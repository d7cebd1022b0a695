//! Equivalence suite pinning [`DenseTraceStats`] — the per-id counter fold
//! that streamed classification runs over decoded chunks — to the
//! per-record oracle [`Trace::stats`], which calls [`TraceStats::observe`]
//! once per record into an address-keyed map.
//!
//! The fold must give the same [`TraceStats`] (every per-address count, the
//! last outcome and both totals) through both chunked decoders —
//! [`FastBtrtReader`] for `BTRT` and the text [`ChunkedTraceReader`] — at
//! every chunk size, under socket-shaped byte delivery, on the golden
//! fixtures, and on arbitrary traces.

mod support;

use btr_trace::io::{binary, text};
use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, ChunkStream, ChunkedTraceReader, DenseTraceStats,
    FastBtrtReader, Outcome, Trace, TraceMetadata, TraceStats,
};
use proptest::prelude::*;
use std::io::Read;
use support::btrt_reference;

/// The chunk sizes every input is folded under: degenerate, odd, small,
/// `btrd`'s 16 Ki-record chunks and the readers' 64 Ki default.
const CHUNK_SIZES: [usize; 5] = [1, 7, 64, 16_384, 65_536];

/// Yields at most `max` bytes per `read`, optionally returning
/// `ErrorKind::Interrupted` before every successful read.
struct SocketReader<'a> {
    data: &'a [u8],
    max: usize,
    interrupt: bool,
    ready: bool,
}

impl<'a> SocketReader<'a> {
    fn new(data: &'a [u8], max: usize, interrupt: bool) -> Self {
        SocketReader {
            data,
            max,
            interrupt,
            ready: false,
        }
    }
}

impl Read for SocketReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.interrupt && !self.ready {
            self.ready = true;
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        self.ready = false;
        let n = self.data.len().min(buf.len()).min(self.max);
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Folds every chunk of `stream` into a [`DenseTraceStats`], recycling the
/// chunks as `btrd`'s upload stream does.
fn fold(mut stream: impl ChunkStream) -> TraceStats {
    let mut dense = DenseTraceStats::new();
    while let Some(chunk) = stream.pull() {
        let chunk = chunk.expect("a clean stream decodes");
        dense.observe_chunk(&chunk);
        stream.recycle(chunk);
    }
    let static_count = dense.static_conditional_count();
    let stats = dense.into_trace_stats();
    assert_eq!(stats.static_conditional_count(), static_count);
    stats
}

fn fold_btrt(source: impl Read, chunk_records: usize) -> TraceStats {
    fold(FastBtrtReader::new(source, chunk_records).expect("a valid header"))
}

fn fold_text(source: impl Read, chunk_records: usize) -> TraceStats {
    fold(ChunkedTraceReader::text(source, chunk_records))
}

fn encode_btrt(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, trace).expect("writing to a Vec cannot fail");
    buf
}

fn encode_text(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    text::write_trace(&mut buf, trace).expect("writing to a Vec cannot fail");
    buf
}

/// Checks both formats of `trace` at every chunk size against the oracle.
fn check(trace: &Trace) {
    let oracle = trace.stats();
    let btrt = encode_btrt(trace);
    let text = encode_text(trace);
    for chunk_records in CHUNK_SIZES {
        assert_eq!(
            &fold_btrt(btrt.as_slice(), chunk_records),
            oracle,
            "BTRT, chunk size {chunk_records}"
        );
        assert_eq!(
            &fold_text(text.as_slice(), chunk_records),
            oracle,
            "text, chunk size {chunk_records}"
        );
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {path:?}: {e}"))
}

/// The characteristic trace of `fast_decode_equivalence.rs`: mixed kinds,
/// targets, wraparound deltas and eleven repeated addresses whose outcomes
/// follow `i % 3`, so every branch both repeats and changes direction.
fn adversarial_trace(len: u64) -> Trace {
    let mut records = Vec::new();
    for i in 0..len {
        let addr = if i % 13 == 12 {
            BranchAddr::new(0xffff_ffff_0000_0000u64.wrapping_add(i))
        } else {
            BranchAddr::new(0x40_0000 + (i % 11) * 4)
        };
        let kind = match i % 5 {
            4 => BranchKind::Call,
            3 => BranchKind::Return,
            _ => BranchKind::Conditional,
        };
        let mut r = BranchRecord::new(addr, kind, Outcome::from_bool(i % 3 != 0));
        if i % 7 == 6 {
            r = r.with_target(BranchAddr::new(0x8000_0000 + i * 16));
        }
        records.push(r);
    }
    Trace::from_records(
        TraceMetadata::named("dense-vs-map").with_seed(0xDE5E),
        records,
    )
}

#[test]
fn dense_fold_matches_the_oracle_on_the_golden_fixtures() {
    for name in [
        "single_branch.btrt",
        "mixed_overflow.btrt",
        "empty_body.btrt",
    ] {
        let bytes = fixture(name);
        let trace = btrt_reference::read_trace(bytes.as_slice()).expect("fixture decodes");
        for chunk_records in CHUNK_SIZES {
            assert_eq!(
                &fold_btrt(bytes.as_slice(), chunk_records),
                trace.stats(),
                "{name}, chunk size {chunk_records}"
            );
        }
        check(&trace);
    }
}

#[test]
fn dense_fold_matches_the_oracle_on_the_adversarial_trace() {
    // Long enough that the 16 Ki chunks cut the stream several times.
    let trace = adversarial_trace(70_001);
    let stats = trace.stats();
    assert!(stats.total_other() > 0);
    assert!(stats.iter().any(|(_, s)| s.transitions() > 0));
    assert!(stats
        .iter()
        .any(|(_, s)| s.last_outcome() == Some(Outcome::Taken)));
    assert!(stats
        .iter()
        .any(|(_, s)| s.last_outcome() == Some(Outcome::NotTaken)));
    check(&trace);
}

#[test]
fn socket_shaped_reads_fold_identically() {
    let trace = adversarial_trace(1_031);
    let btrt = encode_btrt(&trace);
    let text = encode_text(&trace);
    for max in [1usize, 2, 3, 5, 21] {
        for interrupt in [false, true] {
            for chunk_records in [7usize, 64] {
                let btrt_reads = SocketReader::new(&btrt, max, interrupt);
                assert_eq!(
                    &fold_btrt(btrt_reads, chunk_records),
                    trace.stats(),
                    "BTRT, max {max}, interrupt {interrupt}, chunk {chunk_records}"
                );
                let text_reads = SocketReader::new(&text, max, interrupt);
                assert_eq!(
                    &fold_text(text_reads, chunk_records),
                    trace.stats(),
                    "text, max {max}, interrupt {interrupt}, chunk {chunk_records}"
                );
            }
        }
    }
}

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::Conditional),
        Just(BranchKind::Conditional),
        Just(BranchKind::Conditional),
        Just(BranchKind::Unconditional),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::Indirect),
    ]
}

/// Addresses mostly from a small set, so branches repeat and transition,
/// with an occasional arbitrary one.
fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..16).prop_map(|slot| 0x40_0000 + slot * 4),
        (0u64..16).prop_map(|slot| 0x40_0000 + slot * 4),
        any::<u64>(),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    let record = (arb_addr(), arb_kind(), any::<bool>()).prop_map(|(addr, kind, taken)| {
        BranchRecord::new(BranchAddr::new(addr), kind, Outcome::from_bool(taken))
    });
    proptest::collection::vec(record, 0..400)
        .prop_map(|records| Trace::from_records(TraceMetadata::named("fuzz"), records))
}

proptest! {
    #[test]
    fn dense_fold_matches_the_oracle_on_arbitrary_traces(trace in arb_trace()) {
        check(&trace);
    }
}
