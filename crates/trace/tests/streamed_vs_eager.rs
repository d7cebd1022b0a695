//! Equivalence suite pinning the chunked readers to the eager readers: over
//! arbitrary traces and chunk sizes — degenerate (1), prime (7), typical
//! (4096) and larger-than-the-trace — the chunks of [`FastBtrtReader`], of
//! the reference `BTRT` decoder (`support/btrt_reference.rs`) and of the
//! text [`ChunkedTraceReader`] must partition exactly the records the eager
//! readers decode, their conditional columns must be bit-identical to the
//! eager trace's, and the incrementally interned ids must match
//! `Trace::intern` exactly.

mod support;

use btr_trace::io::{binary, text};
use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, ChunkStream, ChunkedTraceReader, ConditionalColumns,
    FastBtrtReader, InternedTrace, Outcome, Trace, TraceChunk, TraceMetadata,
};
use proptest::prelude::*;
use support::btrt_reference;

/// The chunk sizes every property is checked under.
const CHUNK_SIZES: [usize; 4] = [1, 7, 4096, 100_000];

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
        0u64..0x1_0000_0000u64,
        arb_kind(),
        any::<bool>(),
        proptest::option::of(0u64..0x1_0000_0000u64),
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
        proptest::collection::vec(arb_record(), 0..300),
        any::<u64>(),
    )
        .prop_map(|(records, seed)| {
            let meta = TraceMetadata::named("stream")
                .with_input_set("fuzz")
                .with_seed(seed);
            Trace::from_records(meta, records)
        })
}

/// Drains a chunked reader, returning (chunk lengths, conditional columns,
/// addrs).
fn drain<I: Iterator<Item = btr_trace::Result<BranchRecord>>>(
    mut reader: ChunkedTraceReader<I>,
) -> Drained {
    let mut lens = Vec::new();
    let mut conditional = ConditionalColumns::new();
    for (expected_index, chunk) in (&mut reader).enumerate() {
        let chunk = chunk.expect("well-formed stream must decode");
        assert_eq!(chunk.index(), expected_index);
        assert_eq!(chunk.first_record(), lens.iter().sum::<usize>() as u64);
        assert!(!chunk.is_empty(), "readers never yield empty chunks");
        conditional.extend_from(chunk.conditional());
        lens.push(chunk.len());
    }
    let addrs = reader.addrs().to_vec();
    (lens, conditional, addrs)
}

// ---------------------------------------------------------------------------
// Adversarial socket-shaped readers: network sources hand the decoder bytes
// in whatever fragments the kernel felt like, and signals surface as
// `ErrorKind::Interrupted` mid-stream. None of that may change the decoded
// chunks by a single bit.
// ---------------------------------------------------------------------------

use std::io::Read;

/// Yields at most `max` bytes per `read` call — the 1-byte case is the
/// worst fragmentation a TCP stream can legally produce.
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

/// Never lets a `read` cross one of the configured split offsets, so a
/// boundary sitting exactly between header and body (or between records)
/// forces a short read right there.
struct BoundarySplitReader<'a> {
    data: &'a [u8],
    pos: usize,
    splits: Vec<usize>,
}

impl Read for BoundarySplitReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.data.len() - self.pos;
        let mut n = remaining.min(buf.len());
        for &split in &self.splits {
            if split > self.pos {
                n = n.min(split - self.pos);
                break;
            }
        }
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Returns `ErrorKind::Interrupted` before every successful read and then
/// yields at most `max` bytes — a signal-storm socket.
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

/// The record/interning state a drain produced, for whole-sale comparison:
/// every chunk's length, the concatenated conditional columns and the
/// id → address table.
type Drained = (Vec<usize>, ConditionalColumns, Vec<BranchAddr>);

/// Drains the per-record reference decoder.
fn drain_reference<R: Read>(reader: R, chunk_records: usize) -> Drained {
    drain(btrt_reference::chunked(reader, chunk_records).expect("header must decode"))
}

/// Drains the production decoder the same way, so every property below pins
/// it against the reference.
fn drain_fast<R: Read>(reader: R, chunk_records: usize) -> Drained {
    let mut reader = FastBtrtReader::new(reader, chunk_records).expect("header must decode");
    let mut lens = Vec::new();
    let mut conditional = ConditionalColumns::new();
    for (expected_index, chunk) in (&mut reader).enumerate() {
        let chunk = chunk.expect("well-formed stream must decode");
        assert_eq!(chunk.index(), expected_index);
        assert_eq!(chunk.first_record(), lens.iter().sum::<usize>() as u64);
        assert!(!chunk.is_empty(), "readers never yield empty chunks");
        conditional.extend_from(chunk.conditional());
        lens.push(chunk.len());
    }
    let addrs = reader.addrs().to_vec();
    (lens, conditional, addrs)
}

/// A characteristic trace for the deterministic adversarial tests: mixes
/// kinds, targets (two varints per record) and repeated addresses.
fn adversarial_trace() -> Trace {
    let mut records = Vec::new();
    for i in 0..257u64 {
        let addr = BranchAddr::new(0x40_0000 + (i % 11) * 4);
        let mut r = BranchRecord::new(
            addr,
            if i % 5 == 4 {
                BranchKind::Call
            } else {
                BranchKind::Conditional
            },
            Outcome::from_bool(i % 3 != 0),
        );
        if i % 7 == 6 {
            r = r.with_target(BranchAddr::new(0x8000_0000 + i * 16));
        }
        records.push(r);
    }
    Trace::from_records(
        TraceMetadata::named("adversarial")
            .with_input_set("socket")
            .with_seed(0xFEED),
        records,
    )
}

#[test]
fn one_byte_reads_yield_bit_identical_chunks() {
    let trace = adversarial_trace();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    let oneshot = drain_reference(buf.as_slice(), 16);
    for max in [1usize, 2, 3, 5] {
        let trickled = drain_reference(TrickleReader { data: &buf, max }, 16);
        assert_eq!(trickled, oneshot, "max {max} bytes per read diverged");
        let fast = drain_fast(TrickleReader { data: &buf, max }, 16);
        assert_eq!(fast, oneshot, "fast, max {max} bytes per read diverged");
    }
}

#[test]
fn reads_split_at_header_and_record_boundaries_are_bit_identical() {
    let trace = adversarial_trace();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    let oneshot = drain_reference(buf.as_slice(), 16);
    // Recover the exact header and per-record byte boundaries from a clean
    // decode pass.
    let mut boundary_probe = btrt_reference::RecordReader::new(buf.as_slice()).unwrap();
    let mut splits = vec![boundary_probe.byte_offset() as usize];
    while let Some(record) = boundary_probe.next() {
        record.unwrap();
        splits.push(boundary_probe.byte_offset() as usize);
    }
    let split = |splits: &[usize]| BoundarySplitReader {
        data: &buf,
        pos: 0,
        splits: splits.to_vec(),
    };
    // Every read stops at the next header/record boundary…
    assert_eq!(
        drain_reference(split(&splits), 16),
        oneshot,
        "record-boundary splits diverged"
    );
    assert_eq!(
        drain_fast(split(&splits), 16),
        oneshot,
        "fast, record-boundary splits diverged"
    );
    // …and a sparser variant splits at the header plus every 3rd record.
    let sparse: Vec<usize> = splits.iter().copied().step_by(3).collect();
    assert_eq!(
        drain_reference(split(&sparse), 16),
        oneshot,
        "sparse boundary splits diverged"
    );
    assert_eq!(
        drain_fast(split(&sparse), 16),
        oneshot,
        "fast, sparse boundary splits diverged"
    );
}

#[test]
fn interrupted_mid_stream_reads_are_bit_identical() {
    let trace = adversarial_trace();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    let oneshot = drain_reference(buf.as_slice(), 16);
    for max in [1usize, 2, 7] {
        let interrupted = drain_reference(InterruptingReader::new(&buf, max), 16);
        assert_eq!(interrupted, oneshot, "interrupted max {max} diverged");
        let fast = drain_fast(InterruptingReader::new(&buf, max), 16);
        assert_eq!(fast, oneshot, "fast, interrupted max {max} diverged");
    }
    // The text decode path tolerates interrupts identically.
    let mut text_buf = Vec::new();
    text::write_trace(&mut text_buf, &trace).unwrap();
    let eager_text = drain(ChunkedTraceReader::text(text_buf.as_slice(), 16));
    let interrupted_text = drain(ChunkedTraceReader::text(
        InterruptingReader::new(&text_buf, 1),
        16,
    ));
    assert_eq!(interrupted_text, eager_text, "interrupted text diverged");
}

#[test]
fn truncated_interrupted_streams_still_surface_the_typed_error() {
    // Adversarial delivery must not mask genuine truncation: cutting the
    // last byte still ends in `TruncatedRecord`, never a bare IO error.
    let trace = adversarial_trace();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
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

proptest! {
    #[test]
    fn socket_shaped_btrt_reads_are_bit_identical(
        trace in arb_trace(),
        max in 1usize..4,
    ) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let oneshot = drain_reference(buf.as_slice(), 7);
        let trickled = drain_reference(TrickleReader { data: &buf, max }, 7);
        prop_assert_eq!(&trickled, &oneshot);
        let interrupted = drain_reference(InterruptingReader::new(&buf, max), 7);
        prop_assert_eq!(&interrupted, &oneshot);
        let fast_trickled = drain_fast(TrickleReader { data: &buf, max }, 7);
        prop_assert_eq!(&fast_trickled, &oneshot);
        let fast_interrupted = drain_fast(InterruptingReader::new(&buf, max), 7);
        prop_assert_eq!(&fast_interrupted, &oneshot);
    }
}

proptest! {
    #[test]
    fn chunked_btrt_is_bit_identical_to_read_binary(trace in arb_trace()) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let eager = btrt_reference::read_trace(buf.as_slice()).unwrap();
        prop_assert_eq!(eager.records(), trace.records());
        let header = btrt_reference::RecordReader::new(buf.as_slice()).unwrap();
        prop_assert_eq!(header.declared_count(), trace.len() as u64);
        let eager_interned = eager.intern();
        for chunk_records in CHUNK_SIZES {
            let reader = btrt_reference::chunked(buf.as_slice(), chunk_records).unwrap();
            prop_assert_eq!(reader.metadata(), eager.metadata());
            let (lens, conditional, _) = drain(reader);
            prop_assert_eq!(lens.iter().sum::<usize>(), eager.len(), "chunk size {}", chunk_records);
            prop_assert_eq!(conditional.view(), eager_interned.records(), "chunk size {}", chunk_records);
            let (fast_lens, fast_conditional, _) = drain_fast(buf.as_slice(), chunk_records);
            prop_assert_eq!(fast_lens, lens, "fast, chunk size {}", chunk_records);
            prop_assert_eq!(fast_conditional.view(), eager_interned.records(), "fast, chunk size {}", chunk_records);
        }
    }

    #[test]
    fn chunked_interning_matches_eager_interning(trace in arb_trace()) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let eager = trace.intern();
        for chunk_records in CHUNK_SIZES {
            let reader = btrt_reference::chunked(buf.as_slice(), chunk_records).unwrap();
            let (_, conditional, addrs) = drain(reader);
            prop_assert_eq!(conditional.view(), eager.records(), "chunk size {}", chunk_records);
            prop_assert_eq!(addrs.as_slice(), eager.addrs(), "chunk size {}", chunk_records);
            let (_, fast_conditional, fast_addrs) = drain_fast(buf.as_slice(), chunk_records);
            prop_assert_eq!(fast_conditional.view(), eager.records(), "fast, chunk size {}", chunk_records);
            prop_assert_eq!(fast_addrs.as_slice(), eager.addrs(), "fast, chunk size {}", chunk_records);
        }
    }

    #[test]
    fn chunked_text_is_bit_identical_to_read_text(trace in arb_trace()) {
        let mut buf = Vec::new();
        text::write_trace(&mut buf, &trace).unwrap();
        let eager = support::read_text(buf.as_slice()).unwrap();
        let eager_interned = eager.intern();
        for chunk_records in CHUNK_SIZES {
            let reader = ChunkedTraceReader::text(buf.as_slice(), chunk_records);
            prop_assert_eq!(reader.metadata(), eager.metadata());
            let (lens, conditional, _) = drain(reader);
            prop_assert_eq!(lens.iter().sum::<usize>(), eager.len(), "chunk size {}", chunk_records);
            prop_assert_eq!(conditional.view(), eager_interned.records());
        }
    }

    #[test]
    fn chunk_boundaries_partition_exactly(
        trace in arb_trace(),
        chunk_records in 1usize..50,
    ) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let reference: Vec<TraceChunk> = btrt_reference::chunked(buf.as_slice(), chunk_records)
            .unwrap()
            .map(|c| c.unwrap())
            .collect();
        let fast: Vec<TraceChunk> = FastBtrtReader::new(buf.as_slice(), chunk_records)
            .unwrap()
            .map(|c| c.unwrap())
            .collect();
        for chunks in [reference, fast] {
            // Every chunk except the last is exactly full.
            for chunk in chunks.iter().rev().skip(1) {
                prop_assert_eq!(chunk.len(), chunk_records);
            }
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            prop_assert_eq!(total, trace.len());
            if let Some(last) = chunks.last() {
                prop_assert!(last.len() <= chunk_records);
                prop_assert!(!last.is_empty());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// `InternedTrace::from_chunks` does not depend on chunking: collected from
// either production decoder at any chunk size, it equals `Trace::intern` —
// columns and id → address table alike.
// ---------------------------------------------------------------------------

/// The chunk sizes `from_chunks` is pinned under.
const FROM_CHUNKS_SIZES: [usize; 4] = [1, 3, 64, 4096];

/// Collects `trace` through `FastBtrtReader` and the text reader at every
/// [`FROM_CHUNKS_SIZES`] size and compares each result with the eager
/// interning.
fn assert_from_chunks_matches_intern(trace: &Trace) {
    let eager = trace.intern();
    let mut btrt = Vec::new();
    binary::write_trace(&mut btrt, trace).unwrap();
    let mut txt = Vec::new();
    text::write_trace(&mut txt, trace).unwrap();
    for chunk_records in FROM_CHUNKS_SIZES {
        let fast = FastBtrtReader::new(btrt.as_slice(), chunk_records).expect("header decodes");
        let via_fast = InternedTrace::from_chunks(fast).expect("well-formed stream");
        assert_eq!(
            via_fast.records(),
            eager.records(),
            "fast, chunk size {chunk_records}"
        );
        assert_eq!(
            via_fast.addrs(),
            eager.addrs(),
            "fast, chunk size {chunk_records}"
        );
        let via_text =
            InternedTrace::from_chunks(ChunkedTraceReader::text(txt.as_slice(), chunk_records))
                .expect("well-formed stream");
        assert_eq!(
            via_text.records(),
            eager.records(),
            "text, chunk size {chunk_records}"
        );
        assert_eq!(
            via_text.addrs(),
            eager.addrs(),
            "text, chunk size {chunk_records}"
        );
    }
}

#[test]
fn from_chunks_matches_intern_at_every_chunk_size() {
    assert_from_chunks_matches_intern(&adversarial_trace());
}

#[test]
fn from_chunks_of_an_empty_trace_is_empty() {
    let empty = Trace::from_records(TraceMetadata::named("empty"), Vec::new());
    assert_from_chunks_matches_intern(&empty);
}

#[test]
fn from_chunks_of_a_trace_without_conditionals_is_empty() {
    let records = (0..100u64)
        .map(|i| {
            let kind = if i % 2 == 0 {
                BranchKind::Call
            } else {
                BranchKind::Return
            };
            BranchRecord::new(BranchAddr::new(0x40_0000 + i * 4), kind, Outcome::Taken)
        })
        .collect();
    let trace = Trace::from_records(TraceMetadata::named("calls-only"), records);
    assert!(trace.intern().is_empty());
    assert_from_chunks_matches_intern(&trace);
}

proptest! {
    #[test]
    fn from_chunks_matches_intern_on_arbitrary_traces(trace in arb_trace()) {
        assert_from_chunks_matches_intern(&trace);
    }
}
