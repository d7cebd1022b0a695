//! A counting global allocator for the per-layer peak-heap rows.
//!
//! Counting is off by default, so timed phases pay one relaxed load per
//! allocation. [`peak_heap_growth`] switches it on around one call and
//! reports the call's peak net heap growth: bytes allocated minus bytes
//! freed, at its highest point, relative to the start of the call. Frees of
//! blocks that predate the call count against the growth, which is what net
//! growth means. Only one measurement may run at a time; the benchmark runs
//! them from its main thread, and allocations by pool threads the call
//! fans out to are counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static NET: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// [`System`], plus net-growth accounting while a measurement runs.
pub struct CountingAllocator;

fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let bytes = i64::try_from(bytes).unwrap_or(i64::MAX);
        let net = NET.fetch_add(bytes, Ordering::SeqCst) + bytes;
        PEAK.fetch_max(net, Ordering::SeqCst);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        NET.fetch_sub(i64::try_from(bytes).unwrap_or(i64::MAX), Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the bookkeeping
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence `System`)
        // with `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Runs `f` and returns its result with the peak net heap growth it caused,
/// in bytes (zero if it never grew the heap).
pub fn peak_heap_growth<T>(f: impl FnOnce() -> T) -> (T, u64) {
    NET.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let peak = u64::try_from(PEAK.load(Ordering::SeqCst)).unwrap_or(0);
    (out, peak)
}
