//! Equivalence suite pinning the slice-based `BTRT` decoder
//! ([`FastBtrtReader`]) to the per-record reference decoder
//! (`support/btrt_reference.rs`, chunked through
//! `ChunkedTraceReader::from_records`): over arbitrary traces, chunk sizes,
//! socket-shaped byte delivery, and — crucially — *every* truncation prefix
//! and arbitrary single-byte corruption, both decoders must produce
//! bit-identical chunks (lengths and conditional columns), interned ids
//! **and errors** (same variant, same record index, same byte offset, pinned
//! by comparing the full `Debug` rendering).
//!
//! The reference decodes one byte per `read` call with its own header parser
//! and varint loop, so it shares no decode code with the fast path; this
//! suite is what licenses routing production ingest through it.

mod support;

use btr_trace::io::binary;
use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, ChunkStream, ConditionalColumns, FastBtrtReader, Outcome,
    Trace, TraceMetadata,
};
use proptest::prelude::*;
use std::io::Read;
use support::btrt_reference;

/// The chunk sizes every property is checked under.
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 100_000];

// ---------------------------------------------------------------------------
// Socket-shaped readers (mirrors `streamed_vs_eager.rs`): the fast path has
// its own refill loop, so fragmentation and `Interrupted` storms must be
// re-proven against it specifically.
// ---------------------------------------------------------------------------

/// Yields at most `max` bytes per `read` call.
struct TrickleReader<'a> {
    data: &'a [u8],
    max: usize,
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.len().min(buf.len()).min(self.max);
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Returns `ErrorKind::Interrupted` before every successful read and then
/// yields at most `max` bytes.
struct InterruptingReader<'a> {
    inner: TrickleReader<'a>,
    ready: bool,
}

impl<'a> InterruptingReader<'a> {
    fn new(data: &'a [u8], max: usize) -> Self {
        InterruptingReader {
            inner: TrickleReader { data, max },
            ready: false,
        }
    }
}

impl Read for InterruptingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.ready {
            self.ready = true;
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "signal",
            ));
        }
        self.ready = false;
        self.inner.read(buf)
    }
}

// ---------------------------------------------------------------------------
// Drain helpers.
// ---------------------------------------------------------------------------

/// Everything a clean decode produced: every chunk's length, the
/// concatenated conditional columns, and the id → address table.
type Drained = (Vec<usize>, ConditionalColumns, Vec<BranchAddr>);

fn drain_slow(bytes: &[u8], chunk_records: usize) -> Drained {
    let mut reader =
        btrt_reference::chunked(bytes, chunk_records).expect("slow header must decode");
    let mut lens = Vec::new();
    let mut conditional = ConditionalColumns::new();
    for chunk in &mut reader {
        let chunk = chunk.expect("well-formed stream must decode (slow)");
        conditional.extend_from(chunk.conditional());
        lens.push(chunk.len());
    }
    let addrs = reader.addrs().to_vec();
    (lens, conditional, addrs)
}

fn drain_fast<R: Read>(source: R, chunk_records: usize) -> Drained {
    let mut reader = FastBtrtReader::new(source, chunk_records).expect("fast header must decode");
    let mut lens = Vec::new();
    let mut conditional = ConditionalColumns::new();
    for (expected_index, chunk) in (&mut reader).enumerate() {
        let chunk = chunk.expect("well-formed stream must decode (fast)");
        assert_eq!(chunk.index(), expected_index);
        assert_eq!(chunk.first_record(), lens.iter().sum::<usize>() as u64);
        assert!(!chunk.is_empty(), "readers never yield empty chunks");
        conditional.extend_from(chunk.conditional());
        lens.push(chunk.len());
    }
    let addrs = reader.addrs().to_vec();
    (lens, conditional, addrs)
}

/// A full decode attempt over possibly-malformed bytes: the lengths and
/// conditional columns of every *successful* chunk plus the terminal error,
/// rendered via `Debug` so the variant and every field (record index, byte
/// offset, context) are compared.
type DecodeOutcome = (Vec<usize>, ConditionalColumns, Option<String>);

/// Drains chunks until the first error (or the end of the stream).
fn outcome<S: Iterator<Item = btr_trace::Result<btr_trace::TraceChunk>>>(
    reader: btr_trace::Result<S>,
) -> DecodeOutcome {
    let mut lens = Vec::new();
    let mut conditional = ConditionalColumns::new();
    let reader = match reader {
        Ok(reader) => reader,
        Err(e) => return (lens, conditional, Some(format!("{e:?}"))),
    };
    for chunk in reader {
        match chunk {
            Ok(chunk) => {
                conditional.extend_from(chunk.conditional());
                lens.push(chunk.len());
            }
            Err(e) => return (lens, conditional, Some(format!("{e:?}"))),
        }
    }
    (lens, conditional, None)
}

fn outcome_slow(bytes: &[u8], chunk_records: usize) -> DecodeOutcome {
    outcome(btrt_reference::chunked(bytes, chunk_records))
}

fn outcome_fast(bytes: &[u8], chunk_records: usize) -> DecodeOutcome {
    outcome(FastBtrtReader::new(bytes, chunk_records))
}

// ---------------------------------------------------------------------------
// Trace generators.
// ---------------------------------------------------------------------------

/// A characteristic trace mixing kinds, targets (two varints per record),
/// wraparound deltas and repeated addresses — every field boundary a record
/// can have shows up in its encoding.
fn adversarial_trace(len: u64) -> Trace {
    let mut records = Vec::new();
    for i in 0..len {
        let addr = if i % 13 == 12 {
            // Huge backward/forward jumps exercise 10-byte varint deltas.
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
        TraceMetadata::named("fast-vs-slow")
            .with_input_set("equivalence")
            .with_seed(0xFA57),
        records,
    )
}

fn encode(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, trace).expect("writing to a Vec cannot fail");
    buf
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

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (
        any::<u64>(),
        arb_kind(),
        any::<bool>(),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(addr, kind, taken, target)| {
            let mut r = BranchRecord::new(BranchAddr::new(addr), kind, Outcome::from_bool(taken));
            if let Some(t) = target {
                r = r.with_target(BranchAddr::new(t));
            }
            r
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(arb_record(), 0..200),
        any::<u64>(),
    )
        .prop_map(|(records, seed)| {
            let meta = TraceMetadata::named("fuzz")
                .with_input_set("fast")
                .with_seed(seed);
            Trace::from_records(meta, records)
        })
}

// ---------------------------------------------------------------------------
// Clean-stream equivalence.
// ---------------------------------------------------------------------------

#[test]
fn fast_matches_slow_on_the_adversarial_trace_at_every_chunk_size() {
    let buf = encode(&adversarial_trace(517));
    for chunk_records in CHUNK_SIZES {
        let slow = drain_slow(&buf, chunk_records);
        let fast = drain_fast(buf.as_slice(), chunk_records);
        assert_eq!(fast, slow, "chunk size {chunk_records} diverged");
    }
}

#[test]
fn socket_shaped_fast_reads_are_bit_identical() {
    let buf = encode(&adversarial_trace(257));
    let oneshot = drain_fast(buf.as_slice(), 16);
    for max in [1usize, 2, 3, 5, 21] {
        let trickled = drain_fast(TrickleReader { data: &buf, max }, 16);
        assert_eq!(trickled, oneshot, "max {max} bytes per read diverged");
        let interrupted = drain_fast(InterruptingReader::new(&buf, max), 16);
        assert_eq!(interrupted, oneshot, "interrupted max {max} diverged");
    }
    assert_eq!(oneshot, drain_slow(&buf, 16), "fast diverged from slow");
}

#[test]
fn interrupted_truncated_streams_still_surface_the_typed_error() {
    let mut buf = encode(&adversarial_trace(64));
    buf.truncate(buf.len() - 1);
    let mut reader =
        FastBtrtReader::new(InterruptingReader::new(&buf, 1), 16).expect("header decodes");
    let err = (&mut reader)
        .filter_map(|c| c.err())
        .next()
        .expect("truncation must surface");
    assert!(
        matches!(err, btr_trace::TraceError::TruncatedRecord { .. }),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------------
// Error equivalence: truncation at EVERY byte boundary — which covers every
// field boundary of every record (flags, delta varint bytes, target varint
// bytes) and every header field — must produce the same error as the slow
// path: same variant, same record index, same byte offset.
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_prefix_agrees_on_error_type_and_offset() {
    let buf = encode(&adversarial_trace(48));
    for cut in 0..buf.len() {
        let prefix = &buf[..cut];
        for chunk_records in [1usize, 7] {
            let slow = outcome_slow(prefix, chunk_records);
            let fast = outcome_fast(prefix, chunk_records);
            assert_eq!(
                fast, slow,
                "truncation at byte {cut} (chunk size {chunk_records}) diverged"
            );
        }
    }
}

#[test]
fn corrupted_flag_bytes_agree_on_unknown_kind_errors() {
    // Force the reserved kind codes (5, 6, 7) into the first record's flag
    // byte: both decoders must reject with the same `UnknownKind` error and
    // the same already-decoded record count.
    let trace = adversarial_trace(16);
    let clean = encode(&trace);
    // The header layout is independent of the record count's value, so the
    // empty-trace encoding length is exactly where the first flag byte sits.
    let header_len = encode(&Trace::from_records(trace.metadata().clone(), Vec::new())).len();
    for bad_kind in [5u8, 6, 7] {
        let mut corrupt = clean.clone();
        corrupt[header_len] = bad_kind;
        let slow = outcome_slow(&corrupt, 4);
        let fast = outcome_fast(&corrupt, 4);
        assert_eq!(fast, slow, "kind code {bad_kind} diverged");
        let (_, _, err) = fast;
        assert!(
            err.expect("reserved kind must error")
                .contains("UnknownKind"),
            "reserved kind code {bad_kind} must surface as UnknownKind"
        );
    }
}

// ---------------------------------------------------------------------------
// Property coverage: arbitrary traces, chunkings, corruptions.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn fast_and_slow_agree_on_arbitrary_traces(trace in arb_trace()) {
        let buf = encode(&trace);
        let eager = trace.intern();
        for chunk_records in CHUNK_SIZES {
            let slow = drain_slow(&buf, chunk_records);
            let fast = drain_fast(buf.as_slice(), chunk_records);
            prop_assert_eq!(&fast, &slow, "chunk size {}", chunk_records);
            prop_assert_eq!(fast.0.iter().sum::<usize>(), trace.len());
            prop_assert_eq!(fast.1.view(), eager.records());
            prop_assert_eq!(fast.2.as_slice(), eager.addrs());
        }
    }

    #[test]
    fn fast_and_slow_agree_under_socket_shaped_delivery(
        trace in arb_trace(),
        max in 1usize..4,
        chunk_records in 1usize..50,
    ) {
        let buf = encode(&trace);
        let slow = drain_slow(&buf, chunk_records);
        let trickled = drain_fast(TrickleReader { data: &buf, max }, chunk_records);
        prop_assert_eq!(&trickled, &slow);
        let interrupted = drain_fast(InterruptingReader::new(&buf, max), chunk_records);
        prop_assert_eq!(&interrupted, &slow);
    }

    #[test]
    fn fast_and_slow_agree_on_arbitrary_truncation(
        trace in arb_trace(),
        cut_seed in any::<usize>(),
        chunk_records in 1usize..50,
    ) {
        let buf = encode(&trace);
        let cut = cut_seed % (buf.len() + 1);
        let prefix = &buf[..cut];
        let slow = outcome_slow(prefix, chunk_records);
        let fast = outcome_fast(prefix, chunk_records);
        prop_assert_eq!(fast, slow, "truncation at byte {} diverged", cut);
    }

    #[test]
    fn fast_and_slow_agree_on_arbitrary_corruption(
        trace in arb_trace(),
        position_seed in any::<usize>(),
        byte in any::<u8>(),
        chunk_records in 1usize..50,
    ) {
        let mut buf = encode(&trace);
        let position = position_seed % buf.len();
        buf[position] = byte;
        let slow = outcome_slow(&buf, chunk_records);
        let fast = outcome_fast(&buf, chunk_records);
        prop_assert_eq!(fast, slow, "corruption at byte {} diverged", position);
    }
}
