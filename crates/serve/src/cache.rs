//! Content-addressed response caching.
//!
//! A successful analysis is a pure function of `(body digest, endpoint
//! parameters)`, so its rendered response can be replayed verbatim for any
//! identical upload. Keys pair the [`crate::digest::Fnv64`] body digest with
//! the canonical parameter string; entries hold the complete rendered
//! [`Response`]. Clients that know an upload's digest (from a prior
//! `X-Btr-Digest` response header) can send it in a request header and be
//! answered *without* the server reading the body at all.
//!
//! The map is a `BTreeMap`, not a `HashMap`, so iteration order — and with
//! it eviction under the FIFO bound — is deterministic and the analyzer's
//! determinism pass needs no allowlist entry for this file.

use crate::http::Response;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A cache key: body digest (16 hex digits) × canonical request parameters.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// The upload's FNV-1a 64 digest in hex.
    pub digest: String,
    /// Endpoint path plus canonicalized parameters, e.g.
    /// `/sweep?family=gas&histories=0,2,4`.
    pub params: String,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: BTreeMap<CacheKey, Arc<Response>>,
    order: VecDeque<CacheKey>,
}

/// A bounded FIFO cache of rendered responses, safe for concurrent use.
#[derive(Debug)]
pub struct ResponseCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl ResponseCache {
    /// A cache holding at most `capacity` responses. Zero disables caching
    /// (every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached response for `key`, if any.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Response>> {
        self.inner.lock().map.get(key).cloned()
    }

    /// Inserts a copy of a rendered response, evicting the oldest entry when
    /// full. Re-inserting an existing key refreshes the value without growing
    /// the eviction queue. A zero-capacity cache copies nothing.
    pub fn insert(&self, key: CacheKey, response: &Response) {
        if self.capacity == 0 {
            return;
        }
        let response = Arc::new(response.clone());
        let mut inner = self.inner.lock();
        if inner.map.insert(key.clone(), response).is_some() {
            return;
        }
        inner.order.push_back(key);
        while inner.map.len() > self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(digest: &str, params: &str) -> CacheKey {
        CacheKey {
            digest: digest.into(),
            params: params.into(),
        }
    }

    fn resp(tag: &str) -> Response {
        Response::json(200, format!("{{\"tag\":\"{tag}\"}}"))
    }

    #[test]
    fn hits_require_both_digest_and_params_to_match() {
        let cache = ResponseCache::new(8);
        cache.insert(key("aa", "/classify?scheme=paper11"), &resp("one"));
        assert!(cache.get(&key("aa", "/classify?scheme=paper11")).is_some());
        assert!(cache.get(&key("ab", "/classify?scheme=paper11")).is_none());
        assert!(cache.get(&key("aa", "/classify?scheme=chang6")).is_none());
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = ResponseCache::new(2);
        cache.insert(key("a", "p"), &resp("a"));
        cache.insert(key("b", "p"), &resp("b"));
        cache.insert(key("c", "p"), &resp("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("a", "p")).is_none(), "oldest evicted");
        assert!(cache.get(&key("b", "p")).is_some());
        assert!(cache.get(&key("c", "p")).is_some());
        // Refreshing an existing key neither grows nor double-queues it.
        cache.insert(key("c", "p"), &resp("c2"));
        assert_eq!(cache.len(), 2);
        cache.insert(key("d", "p"), &resp("d"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("b", "p")).is_none(), "b was next out");
        assert_eq!(
            cache.get(&key("c", "p")).expect("refreshed").body,
            resp("c2").body
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResponseCache::new(0);
        cache.insert(key("a", "p"), &resp("a"));
        assert!(cache.is_empty());
        assert!(cache.get(&key("a", "p")).is_none());
    }
}
