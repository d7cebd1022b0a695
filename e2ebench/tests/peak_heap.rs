//! The counting allocator's peak-growth accounting, in a test binary of its
//! own: the counters are global, so no unrelated test may allocate or free
//! while a measurement runs.

#[path = "../src/alloc.rs"]
mod alloc;

use alloc::{peak_heap_growth, CountingAllocator};
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Measurements share global counters; tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn peak_growth_tracks_the_high_water_mark_not_the_end_state() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (len, peak) = peak_heap_growth(|| {
        let big = std::hint::black_box(vec![7u8; 4 << 20]);
        let len = big.len();
        drop(big);
        let small = std::hint::black_box(vec![1u8; 1 << 10]);
        len + small.len()
    });
    assert_eq!(len, (4 << 20) + (1 << 10));
    // The harness may free a few bytes of its own mid-measurement.
    assert!(peak >= (4 << 20) - (64 << 10), "{peak}");
    assert!(peak < 5 << 20, "{peak}");
}

#[test]
fn growth_by_realloc_is_counted() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, peak) = peak_heap_growth(|| {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        for i in 0..(1u64 << 18) {
            v.push(i);
        }
        std::hint::black_box(v).len()
    });
    assert!(peak >= (8 << 18) - (64 << 10), "{peak}");
}

#[test]
fn nothing_is_counted_outside_a_measurement() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let outside = std::hint::black_box(vec![0u8; 8 << 20]);
    let (_, peak) = peak_heap_growth(|| std::hint::black_box(vec![0u8; 1 << 10]).len());
    drop(outside);
    assert!(peak < 1 << 20, "{peak}");
}
