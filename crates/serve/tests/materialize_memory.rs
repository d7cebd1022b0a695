//! Allocation-counting harness pinning the memory cost of the in-process
//! sweep reference: `materialize_sweep` holds an upload's conditional
//! records as the decoder's own 13 B address / id / outcome columns,
//! appended chunk by chunk, so its peak heap growth per conditional record
//! stays under a fixed bound instead of the record copies, second statistics
//! pass and re-interning a materialized `Trace` would add. (`btrd` itself
//! streams every request; `serve_memory.rs` bounds that.) The same test then
//! checks that the file-backed ingest route of `read_interned_btrt` —
//! `FastBtrtReader` into `InternedTrace::from_chunks`, which every
//! `btr-shard` unit runs — does not size its allocation by a header's
//! untrusted record count.
//!
//! The whole test binary runs under a counting global allocator (integration
//! tests are their own crates, so the workspace's `forbid(unsafe_code)` lib
//! attribute does not apply here). The upload is encoded before the baseline
//! is taken, so the measured peak is the materialization's own footprint.
//! The counters are global, so the binary holds a single test: a second one
//! would run in parallel and pollute the peak.

use btr_core::profile::ProgramProfile;
use btr_serve::analysis::{materialize_sweep, BodyFormat, Budgets};
use btr_serve::ServerConfig;
use btr_trace::io::binary;
use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, FastBtrtReader, InternedTrace, Outcome, Trace,
    TraceBuilder, TraceError, DEFAULT_CHUNK_RECORDS,
};
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

/// Runs `f` and returns its result with the peak heap growth it caused.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst).saturating_sub(baseline))
}

/// 400k records over 512 static conditional branches, one in eight an
/// unconditional call: a `BTRT` upload a few MiB long, with the trace it
/// encodes.
fn upload() -> (Vec<u8>, Trace, u64) {
    let mut b = TraceBuilder::new("materialize-memory");
    let mut state = 0x5eed_u64;
    let mut conditional = 0u64;
    for i in 0..400_000u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if i % 8 == 7 {
            b.push(
                BranchRecord::new(BranchAddr::new(0x9000), BranchKind::Call, Outcome::Taken)
                    .with_target(BranchAddr::new(0x1_0000)),
            );
        } else {
            let addr = BranchAddr::new(0x40_0000 + ((state >> 40) % 512) * 4);
            b.push(BranchRecord::conditional(
                addr,
                Outcome::from_bool((state >> 33) & 1 == 1),
            ));
            conditional += 1;
        }
    }
    let trace = b.build();
    let mut bytes = Vec::new();
    binary::write_trace(&mut bytes, &trace).expect("in-memory encode");
    (bytes, trace, conditional)
}

#[test]
fn materialize_peak_heap_per_conditional_record_is_bounded() {
    let (bytes, trace, conditional) = upload();
    let config = ServerConfig::default();
    let budgets = Budgets {
        chunk_records: config.chunk_records,
        max_static_branches: config.max_static_branches,
    };

    let (materialized, peak_delta) =
        peak_growth(|| materialize_sweep(bytes.as_slice(), BodyFormat::Btrt, budgets));
    let materialized = materialized.expect("valid upload");

    assert_eq!(materialized.conditional, conditional);
    assert_eq!(materialized.interned.len() as u64, conditional);
    assert_eq!(materialized.interned.static_count(), 512);
    // Same ids and profile as the trace the upload encodes.
    assert_eq!(*materialized.interned, trace.intern());
    assert_eq!(
        materialized.profile,
        ProgramProfile::from_stats(trace.stats())
    );

    // The stated bound: three copies of the 13 B column footprint per
    // conditional record (every column at the moment it doubles, old and new
    // buffers both live: 3 × (8 + 4 + 1) = 39 B) plus a fixed 2 MiB for the
    // decoder's refill buffer, intern cache, chunk buffers and per-branch
    // tables. Any 32 B `BranchRecord` copy of the upload held next to the
    // columns breaks it.
    let column_bytes = std::mem::size_of::<BranchAddr>()
        + std::mem::size_of::<u32>()
        + std::mem::size_of::<bool>();
    let per_record = 3 * column_bytes;
    let fixed = 2 << 20;
    let bound = per_record * conditional as usize + fixed;
    println!(
        "[materialize-memory] {conditional} conditional records: peak heap growth {:.2} MiB \
         ({:.1} B per conditional record; bound {:.2} MiB)",
        peak_delta as f64 / (1024.0 * 1024.0),
        peak_delta as f64 / conditional as f64,
        bound as f64 / (1024.0 * 1024.0),
    );
    assert!(
        peak_delta <= bound,
        "peak heap growth {peak_delta} B exceeds {per_record} B per conditional record \
         + {fixed} B ({bound} B)"
    );

    // A header-only `BTRT` body (magic, version, count, two empty names, no
    // seed: 21 bytes) that declares u64::MAX records. The decoder must fail
    // on the missing first record without first reserving room for the
    // declared count, on the route `read_interned_btrt` takes.
    let mut header = Vec::new();
    header.extend_from_slice(b"BTRT");
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&u64::MAX.to_le_bytes());
    header.extend_from_slice(&[0, 0, 0, 0, 0]);
    assert_eq!(header.len(), 21);
    let (decoded, header_peak) = peak_growth(|| {
        FastBtrtReader::new(header.as_slice(), DEFAULT_CHUNK_RECORDS)
            .and_then(InternedTrace::from_chunks)
    });
    println!(
        "[materialize-memory] header declaring u64::MAX records: peak heap growth {:.2} MiB",
        header_peak as f64 / (1024.0 * 1024.0),
    );
    assert!(
        matches!(decoded, Err(TraceError::TruncatedRecord { record: 0, .. })),
        "expected a truncated first record, got {decoded:?}"
    );
    let header_bound = 4 << 20;
    assert!(
        header_peak <= header_bound,
        "a 21-byte header grew the heap by {header_peak} B (bound {header_bound} B)"
    );
}
