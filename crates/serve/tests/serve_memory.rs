//! Allocation-counting harness pinning `btrd`'s per-request heap: a real
//! in-process server answers `/classify` and `/sweep` for two uploads over
//! the same static branches, one four times longer than the other, and the
//! longer one may not grow the heap by more than a fixed 1 MiB over the
//! shorter. Every endpoint streams its upload, so a request's peak heap
//! follows the chunk size and the static-branch tables, never the upload's
//! length; a path that holds the upload's records breaks the bound.
//!
//! The counting allocator sees every thread — server, pool and client — so
//! this binary holds exactly one test. Uploads are encoded before each
//! baseline is taken, and the response cache is off so no reply outlives
//! its request.

use btr_serve::client::{send, ClientRequest};
use btr_serve::{Server, ServerConfig};
use btr_trace::io::binary;
use btr_trace::{BranchAddr, BranchRecord, Outcome, TraceBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

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

/// Static branches per upload: the population of the benchmark's heaviest
/// sweep uploads (go, vortex).
const SITES: u64 = 3_700;

/// The benchmark's sweep: PAs over every history length 0–16.
const SWEEP: &str = "/sweep?family=pas&histories=0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16";

/// A `BTRT` upload of `records` conditional records over [`SITES`] branches.
/// Every site appears within the first `2 * SITES` records, so uploads of
/// different lengths carry the same static-branch tables.
fn upload(records: u64) -> Vec<u8> {
    let mut b = TraceBuilder::new("serve-memory");
    let mut state = 0x5eed_u64;
    for i in 0..records {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let site = if i < 2 * SITES {
            i / 2
        } else {
            (state >> 40) % SITES
        };
        b.push(BranchRecord::conditional(
            BranchAddr::new(0x40_0000 + site * 4),
            Outcome::from_bool((state >> 33) & 3 != 0),
        ));
    }
    let mut bytes = Vec::new();
    binary::write_trace(&mut bytes, &b.build()).expect("in-memory encode");
    bytes
}

/// Posts `body` to `target` and answers the peak heap growth over the live
/// bytes just before the request.
fn peak_heap_growth(addr: &str, target: &str, body: Vec<u8>) -> usize {
    let request = ClientRequest::post(target, body);
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let resp = send(addr, &request, Duration::from_secs(60)).expect("request must complete");
    assert_eq!(resp.status, 200, "{target}: {}", resp.text());
    drop(resp);
    PEAK.load(Ordering::SeqCst).saturating_sub(baseline)
}

#[test]
fn per_request_peak_heap_does_not_grow_with_upload_length() {
    let (handle, join) = Server::spawn(ServerConfig {
        cache_entries: 0,
        ..ServerConfig::default()
    })
    .expect("ephemeral server must spawn");
    let addr = handle.addr().to_string();
    let short = 100_000;
    let (short_body, long_body) = (upload(short), upload(4 * short));
    // Both under 16 MiB: the size at which uploads used to be held whole.
    assert!(long_body.len() < 16 << 20, "{} B", long_body.len());
    let slack = 1 << 20;
    for target in ["/classify", SWEEP] {
        let short_peak = peak_heap_growth(&addr, target, short_body.clone());
        let long_peak = peak_heap_growth(&addr, target, long_body.clone());
        println!(
            "[serve-memory] {target}: peak heap growth {:.2} MiB at {short} records, \
             {:.2} MiB at {} records",
            short_peak as f64 / (1024.0 * 1024.0),
            long_peak as f64 / (1024.0 * 1024.0),
            4 * short,
        );
        assert!(
            long_peak <= short_peak + slack,
            "{target}: peak heap growth {long_peak} B at {} records exceeds {short_peak} B \
             at {short} records + {slack} B",
            4 * short,
        );
    }
    handle.shutdown();
    join.join()
        .expect("accept thread joins")
        .expect("accept loop exits cleanly");
}
