//! Serving telemetry: lock-free counters and the `/metrics` snapshot.
//!
//! All wall-clock use in the serving crate lives in this module (the
//! `Instant`s behind uptime and latency accounting) and is *telemetry only*:
//! no duration ever influences an analysis result or a cached response body,
//! so determinism of the analysis artifacts is untouched. The snapshot
//! serializes through [`Wire`], reusing the same JSON writer the bench
//! artifacts use.

use btr_wire::{MapBuilder, Value, Wire, WireError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Live counters, updated lock-free from every connection thread.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    rejected_busy: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced_hits: AtomicU64,
    batched_lanes: AtomicU64,
    bytes_streamed: AtomicU64,
    records_decoded: AtomicU64,
    active_analyses: AtomicU64,
    request_micros: AtomicU64,
}

impl Metrics {
    /// Fresh counters, with uptime anchored at construction.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced_hits: AtomicU64::new(0),
            batched_lanes: AtomicU64::new(0),
            bytes_streamed: AtomicU64::new(0),
            records_decoded: AtomicU64::new(0),
            active_analyses: AtomicU64::new(0),
            request_micros: AtomicU64::new(0),
        }
    }

    /// Marks a request received and starts its latency clock.
    pub(crate) fn begin_request(&self) -> RequestTimer {
        self.requests.fetch_add(1, Ordering::Relaxed);
        RequestTimer {
            started: Instant::now(),
        }
    }

    /// Folds a finished request into the counters, classifying by status.
    /// Call it before writing the response, so `/metrics` never lags a reply.
    pub(crate) fn finish_request(&self, timer: RequestTimer, status: u16) {
        let micros = timer.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.request_micros.fetch_add(micros, Ordering::Relaxed);
        let bucket = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        if status == 503 {
            self.rejected_busy.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a response served from the content-addressed cache.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an analysis that had to run because no cache entry matched.
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request served by waiting on a concurrent identical
    /// analysis instead of running its own (a subset of cache hits).
    pub fn coalesced_hit(&self) {
        self.coalesced_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `/sweep` that ran to completion (`batched_lanes` keeps its
    /// batch-era name because it is part of the `/metrics` wire format).
    pub fn batched_lane(&self) {
        self.batched_lanes.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts bytes streamed through an upload body.
    pub fn add_bytes_streamed(&self, bytes: u64) {
        self.bytes_streamed.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Accounts records decoded from upload bodies.
    pub fn add_records_decoded(&self, records: u64) {
        self.records_decoded.fetch_add(records, Ordering::Relaxed);
    }

    /// Marks an analysis entering the admission-gated section; the returned
    /// guard decrements on drop, so the gauge survives error paths.
    pub(crate) fn analysis_guard(&self) -> AnalysisGuard<'_> {
        self.active_analyses.fetch_add(1, Ordering::Relaxed);
        AnalysisGuard { metrics: self }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_ms: self.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
            requests: self.requests.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced_hits: self.coalesced_hits.load(Ordering::Relaxed),
            batched_lanes: self.batched_lanes.load(Ordering::Relaxed),
            bytes_streamed: self.bytes_streamed.load(Ordering::Relaxed),
            records_decoded: self.records_decoded.load(Ordering::Relaxed),
            active_analyses: self.active_analyses.load(Ordering::Relaxed),
            request_micros: self.request_micros.load(Ordering::Relaxed),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Latency clock for one request; fold back in with
/// [`Metrics::finish_request`].
#[derive(Debug)]
pub(crate) struct RequestTimer {
    started: Instant,
}

/// Decrements the active-analysis gauge on drop.
#[derive(Debug)]
pub(crate) struct AnalysisGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for AnalysisGuard<'_> {
    fn drop(&mut self) {
        self.metrics.active_analyses.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What `/metrics` returns: a frozen copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Requests whose head parsed far enough to be routed.
    pub requests: u64,
    /// Responses in the 2xx range.
    pub responses_2xx: u64,
    /// Responses in the 4xx range.
    pub responses_4xx: u64,
    /// Responses in the 5xx range (503 rejections included).
    pub responses_5xx: u64,
    /// Requests turned away by admission control (a subset of 5xx).
    pub rejected_busy: u64,
    /// Responses answered from the content-addressed cache.
    pub cache_hits: u64,
    /// Analyses that ran because no cache entry matched.
    pub cache_misses: u64,
    /// Requests served by coalescing onto a concurrent identical analysis
    /// (a subset of `cache_hits`).
    pub coalesced_hits: u64,
    /// `/sweep` analyses run to completion (name kept for the wire format).
    pub batched_lanes: u64,
    /// Upload bytes streamed through the decoders.
    pub bytes_streamed: u64,
    /// Trace records decoded from uploads.
    pub records_decoded: u64,
    /// Analyses in flight at snapshot time.
    pub active_analyses: u64,
    /// Total time from receipt to a ready response, in µs, over all requests.
    pub request_micros: u64,
}

impl Wire for MetricsSnapshot {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("uptime_ms", self.uptime_ms)
            .field("requests", self.requests)
            .field("responses_2xx", self.responses_2xx)
            .field("responses_4xx", self.responses_4xx)
            .field("responses_5xx", self.responses_5xx)
            .field("rejected_busy", self.rejected_busy)
            .field("cache_hits", self.cache_hits)
            .field("cache_misses", self.cache_misses)
            .field("coalesced_hits", self.coalesced_hits)
            .field("batched_lanes", self.batched_lanes)
            .field("bytes_streamed", self.bytes_streamed)
            .field("records_decoded", self.records_decoded)
            .field("active_analyses", self.active_analyses)
            .field("request_micros", self.request_micros)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        Ok(MetricsSnapshot {
            uptime_ms: value.get("uptime_ms")?.as_u64()?,
            requests: value.get("requests")?.as_u64()?,
            responses_2xx: value.get("responses_2xx")?.as_u64()?,
            responses_4xx: value.get("responses_4xx")?.as_u64()?,
            responses_5xx: value.get("responses_5xx")?.as_u64()?,
            rejected_busy: value.get("rejected_busy")?.as_u64()?,
            cache_hits: value.get("cache_hits")?.as_u64()?,
            cache_misses: value.get("cache_misses")?.as_u64()?,
            coalesced_hits: value.get("coalesced_hits")?.as_u64()?,
            batched_lanes: value.get("batched_lanes")?.as_u64()?,
            bytes_streamed: value.get("bytes_streamed")?.as_u64()?,
            records_decoded: value.get("records_decoded")?.as_u64()?,
            active_analyses: value.get("active_analyses")?.as_u64()?,
            request_micros: value.get("request_micros")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_classify_statuses_and_track_cache_traffic() {
        let m = Metrics::new();
        let t = m.begin_request();
        m.finish_request(t, 200);
        let t = m.begin_request();
        m.finish_request(t, 422);
        let t = m.begin_request();
        m.finish_request(t, 503);
        m.cache_hit();
        m.cache_miss();
        m.cache_miss();
        m.add_bytes_streamed(100);
        m.add_records_decoded(7);
        let snap = m.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.responses_2xx, 1);
        assert_eq!(snap.responses_4xx, 1);
        assert_eq!(snap.responses_5xx, 1);
        assert_eq!(snap.rejected_busy, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.bytes_streamed, 100);
        assert_eq!(snap.records_decoded, 7);
    }

    #[test]
    fn analysis_guard_releases_on_drop_even_mid_panic_free_error_path() {
        let m = Metrics::new();
        {
            let _g1 = m.analysis_guard();
            let _g2 = m.analysis_guard();
            assert_eq!(m.snapshot().active_analyses, 2);
        }
        assert_eq!(m.snapshot().active_analyses, 0);
    }

    #[test]
    fn snapshots_roundtrip_through_both_codecs() {
        let snap = MetricsSnapshot {
            uptime_ms: 1,
            requests: 2,
            responses_2xx: 3,
            responses_4xx: 4,
            responses_5xx: 5,
            rejected_busy: 6,
            cache_hits: 7,
            cache_misses: 8,
            coalesced_hits: 13,
            batched_lanes: 14,
            bytes_streamed: 9,
            records_decoded: 10,
            active_analyses: 11,
            request_micros: 12,
        };
        let json = snap.to_json().expect("snapshot encodes as JSON");
        assert_eq!(
            MetricsSnapshot::from_json(&json).expect("snapshot decodes"),
            snap
        );
        assert_eq!(
            MetricsSnapshot::from_btrw(&snap.to_btrw()).expect("snapshot decodes"),
            snap
        );
    }
}
