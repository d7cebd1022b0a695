//! Single-flight coalescing for identical uploads.
//!
//! When several clients race the same analysis — same upload digest, same
//! parameters — only the first should pay for it. The [`FlightTable`] tracks
//! which cache keys have a computation in flight: the first request to miss
//! the cache becomes the **leader** and runs the analysis; requests arriving
//! for the same key while the leader is airborne become **followers**, block
//! without consuming an admission slot, and are answered straight from the
//! cache entry the leader stores on landing. A leader that lands without a
//! cache entry (its upload failed to decode, say) promotes one waiting
//! follower to leader, so errors never wedge the key.
//!
//! Coalescing only engages for clients that present `X-Btr-Digest`: without
//! the digest the key is unknown until the body has been read, at which
//! point the work is already done.

use crate::cache::{CacheKey, ResponseCache};
use crate::http::Response;
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks a mutex, recovering the data from a poisoned lock: the sets guarded
/// here stay structurally valid at every await point, so a panicking peer
/// must not take the whole table down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How one request joined a flight: see [`FlightTable::join`].
#[derive(Debug)]
pub(crate) enum FlightOutcome<'a> {
    /// No computation was in flight for the key: the caller must run the
    /// analysis; dropping the guard (success or failure) releases the key
    /// and wakes every follower.
    Leader(FlightGuard<'a>),
    /// A leader landed while the caller waited and its response is in the
    /// cache: serve this, the upload never needs to be read.
    Served(Arc<Response>),
}

/// The set of cache keys with an analysis currently in flight.
#[derive(Debug, Default)]
pub struct FlightTable {
    in_flight: Mutex<BTreeSet<CacheKey>>,
    landed: Condvar,
}

impl FlightTable {
    /// An empty table.
    pub fn new() -> Self {
        FlightTable::default()
    }

    /// Joins the flight for `key` after a cache miss: returns immediately as
    /// [`FlightOutcome::Leader`] when no computation is in flight, otherwise
    /// blocks until the current leader lands. If the landing filled the
    /// cache the follower is served; if not (the leader failed), the
    /// follower is promoted to leader and runs the analysis itself.
    ///
    /// The waits are bounded (re-checked every 50 ms) so a lost wakeup can
    /// only add latency, never a hang; the leader's socket timeouts bound
    /// how long a key can stay in flight.
    pub(crate) fn join<'a>(&'a self, key: &CacheKey, cache: &ResponseCache) -> FlightOutcome<'a> {
        let mut in_flight = lock(&self.in_flight);
        loop {
            if !in_flight.contains(key) {
                // A leader that landed between our cache miss and taking the
                // lock has already filled the cache — serve, don't recompute.
                if let Some(cached) = cache.get(key) {
                    return FlightOutcome::Served(cached);
                }
                in_flight.insert(key.clone());
                return FlightOutcome::Leader(FlightGuard {
                    table: self,
                    key: key.clone(),
                });
            }
            in_flight = self
                .landed
                .wait_timeout(in_flight, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Keys currently in flight (telemetry and tests).
    pub fn len(&self) -> usize {
        lock(&self.in_flight).len()
    }

    /// Whether no analysis is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Releases the leader's key on drop — error paths included — and wakes
/// every follower waiting on the flight.
#[derive(Debug)]
pub(crate) struct FlightGuard<'a> {
    table: &'a FlightTable,
    key: CacheKey,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        lock(&self.table.in_flight).remove(&self.key);
        self.table.landed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: &str) -> CacheKey {
        CacheKey {
            digest: format!("d-{tag}"),
            params: "/classify?scheme=paper11".into(),
        }
    }

    #[test]
    fn first_joiner_leads_and_release_empties_the_table() {
        let table = FlightTable::new();
        let cache = ResponseCache::new(4);
        let outcome = table.join(&key("a"), &cache);
        assert!(matches!(outcome, FlightOutcome::Leader(_)));
        assert_eq!(table.len(), 1);
        drop(outcome);
        assert!(table.is_empty());
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let table = FlightTable::new();
        let cache = ResponseCache::new(4);
        let a = table.join(&key("a"), &cache);
        let b = table.join(&key("b"), &cache);
        assert!(matches!(a, FlightOutcome::Leader(_)));
        assert!(matches!(b, FlightOutcome::Leader(_)));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn followers_are_served_from_the_leaders_cache_fill() {
        let table = Arc::new(FlightTable::new());
        let cache = Arc::new(ResponseCache::new(4));
        let k = key("shared");
        let leader = table.join(&k, &cache);
        let FlightOutcome::Leader(guard) = leader else {
            panic!("first joiner must lead");
        };
        let follower = {
            let table = Arc::clone(&table);
            let cache = Arc::clone(&cache);
            let k = k.clone();
            std::thread::spawn(move || match table.join(&k, &cache) {
                FlightOutcome::Served(resp) => resp.status,
                FlightOutcome::Leader(_) => panic!("follower must not recompute"),
            })
        };
        // Land: fill the cache, then release the key.
        cache.insert(k.clone(), &Response::json(200, "{}".into()));
        drop(guard);
        assert_eq!(follower.join().expect("follower thread joins"), 200);
    }

    #[test]
    fn a_failed_leader_promotes_a_follower() {
        let table = Arc::new(FlightTable::new());
        let cache = Arc::new(ResponseCache::new(4));
        let k = key("failing");
        let FlightOutcome::Leader(guard) = table.join(&k, &cache) else {
            panic!("first joiner must lead");
        };
        let follower = {
            let table = Arc::clone(&table);
            let cache = Arc::clone(&cache);
            let k = k.clone();
            std::thread::spawn(move || matches!(table.join(&k, &cache), FlightOutcome::Leader(_)))
        };
        // Land WITHOUT filling the cache: the follower must take over.
        drop(guard);
        assert!(
            follower.join().expect("follower thread joins"),
            "an unfilled landing must promote the follower to leader"
        );
    }

    #[test]
    fn a_prefilled_cache_short_circuits_leadership() {
        let table = FlightTable::new();
        let cache = ResponseCache::new(4);
        let k = key("prefilled");
        cache.insert(k.clone(), &Response::json(200, "{}".into()));
        match table.join(&k, &cache) {
            FlightOutcome::Served(resp) => assert_eq!(resp.status, 200),
            FlightOutcome::Leader(_) => panic!("a filled cache must serve, not lead"),
        };
    }
}
