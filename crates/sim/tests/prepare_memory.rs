//! Allocation-counting harness pinning [`ExperimentContext::prepare`]'s peak
//! heap: preparing the full 34-benchmark suite on one thread may exceed the
//! heap its [`btr_sim::experiments::SuiteData`] keeps by at most two 32 B
//! [`btr_trace::BranchRecord`]s per record of the largest benchmark.
//!
//! What the suite data keeps is measured as the heap of a fresh copy of the
//! fields every experiment reads: the interned columns, the profile and the
//! two sweeps. The slack is one benchmark's rows while they are generated
//! and interned (the generator also holds a 4 B schedule entry per record),
//! with room for the sweeps' predictor tables and the per-benchmark profile
//! maps. A preparation that holds every benchmark's rows at once — 32 B per
//! record of the whole suite beside the 13 B columns — breaks the bound.
//!
//! The counting allocator sees every thread, so this binary holds exactly
//! one test.

use btr_core::class::BinningScheme;
use btr_sim::experiments::ExperimentContext;
use btr_workloads::spec::{Benchmark, SuiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator tracking live bytes and the high-water mark.
struct CountingAllocator;

// SAFETY: both methods forward to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s.
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System` with
        // this same `layout`.
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes of one `BranchRecord` row.
const ROW_BYTES: usize = 32;

#[test]
fn prepare_holds_one_benchmarks_rows_beside_the_columns() {
    let ctx = ExperimentContext {
        suite: SuiteConfig::default().with_scale(4e-6).with_seed(17),
        benchmarks: Benchmark::suite(),
        histories: vec![0, 4, 8],
        scheme: BinningScheme::Paper11,
        threads: 1,
    };
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let data = ctx.prepare();
    let peak = PEAK.load(Ordering::SeqCst) - baseline;

    let before_copy = LIVE.load(Ordering::SeqCst);
    let copy = (
        data.interned.clone(),
        data.profile.clone(),
        data.pas.clone(),
        data.gas.clone(),
    );
    let kept = LIVE.load(Ordering::SeqCst) - before_copy;
    drop(copy);

    let records: usize = data.interned.iter().map(|t| t.len()).sum();
    let largest = data.interned.iter().map(|t| t.len()).max().unwrap_or(0);
    let bound = kept + 2 * ROW_BYTES * largest;
    eprintln!(
        "prepare: {records} records (largest benchmark {largest}), \
         keeps {kept} B, peaks at {peak} B, bound {bound} B"
    );
    assert_eq!(data.interned.len(), 34);
    assert!(
        peak <= bound,
        "prepare peaked at {peak} B: over the {kept} B it keeps plus two rows \
         per record of the largest benchmark ({largest} records)"
    );
}
