//! Allocation-counting harness proving the streamed path's memory bound: a
//! multi-million-record synthetic trace sweeps through
//! `SimEngine::run_fused_streamed` (PAs, h = 8) with peak heap growth
//! bounded by the chunk size (plus the per-static-branch tables), not by
//! trace length.
//!
//! The whole test binary runs under a counting global allocator (integration
//! tests are their own crates, so the workspace's `forbid(unsafe_code)` lib
//! attribute does not apply here). The trace is produced by a *lazy* record
//! generator — no encoded buffer, no record vector — so the measured peak is
//! the streaming pipeline's own footprint.

use btr_sim::config::PredictorFamily;
use btr_sim::engine::SimEngine;
use btr_trace::{
    BranchAddr, BranchRecord, ChunkedTraceReader, Outcome, TraceMetadata, DEFAULT_CHUNK_RECORDS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator tracking live bytes and the high-water mark.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Lazily generates the conditional-branch records of a synthetic workload:
/// `len` dynamic branches over `statics` static addresses mixing biased,
/// alternating and noisy behaviour. Yields records one at a time, so the
/// "trace" never exists in memory.
struct SyntheticRecords {
    remaining: u64,
    produced: u64,
    statics: u64,
    state: u64,
}

impl SyntheticRecords {
    fn new(len: u64, statics: u64, seed: u64) -> Self {
        SyntheticRecords {
            remaining: len,
            produced: 0,
            statics,
            state: seed | 1,
        }
    }
}

impl Iterator for SyntheticRecords {
    type Item = btr_trace::Result<BranchRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((self.state >> 40) % self.statics) * 4);
        let taken = match self.produced % 3 {
            0 => self.produced.is_multiple_of(2),
            1 => true,
            _ => (self.state >> 33) & 1 == 1,
        };
        self.produced += 1;
        Some(Ok(BranchRecord::conditional(
            addr,
            Outcome::from_bool(taken),
        )))
    }
}

#[test]
fn streamed_peak_memory_is_bounded_by_chunk_size_not_trace_length() {
    let records: u64 = 10_000_000;
    let statics: u64 = 1024;
    let chunk_records = DEFAULT_CHUNK_RECORDS; // 65_536

    let source = SyntheticRecords::new(records, statics, 0xfeed_f00d);
    let reader = ChunkedTraceReader::from_records(
        TraceMetadata::named("synthetic-10e7"),
        Some(records),
        source,
        chunk_records,
    );
    let mut fused = PredictorFamily::PAs.fused_paper(&[8]);

    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let result = SimEngine::new()
        .run_fused_streamed(reader, &mut fused)
        .expect("synthetic stream cannot fail")
        .remove(0);
    let peak_delta = PEAK.load(Ordering::SeqCst).saturating_sub(baseline);

    assert_eq!(result.overall.lookups, records);
    assert_eq!(result.per_branch.len(), statics as usize);

    // What the eager path would at minimum hold: the full record vector
    // (before even interning it).
    let eager_floor = records as usize * std::mem::size_of::<BranchRecord>();
    // The streaming bound: a few chunk buffers' worth (the conditional
    // address / id / outcome columns + Vec growth slack) plus
    // per-static-branch tables and the predictor — all independent of
    // `records`.
    let record_footprint = std::mem::size_of::<BranchAddr>()
        + std::mem::size_of::<u32>()
        + std::mem::size_of::<bool>();
    let bound = 8 * chunk_records * record_footprint + (1 << 21);
    assert!(
        peak_delta < bound,
        "peak heap growth {peak_delta} B exceeds the chunk-size bound {bound} B"
    );
    assert!(
        peak_delta < eager_floor / 4,
        "peak heap growth {peak_delta} B is not meaningfully below the \
         eager-materialisation floor {eager_floor} B"
    );
    println!(
        "[streamed-memory] {records} records: peak heap growth {:.2} MiB \
         (eager floor {:.2} MiB, bound {:.2} MiB)",
        peak_delta as f64 / (1024.0 * 1024.0),
        eager_floor as f64 / (1024.0 * 1024.0),
        bound as f64 / (1024.0 * 1024.0),
    );
}
