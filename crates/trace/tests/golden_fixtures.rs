//! Golden-file corpus for the `BTRT` format.
//!
//! The fixtures under `tests/fixtures/` were generated by an *independent*
//! encoder (a Python script following the format spec in `io/binary.rs`), so
//! any drift in the Rust encoder or decoder — header layout, flag packing,
//! zig-zag/varint encoding, delta wraparound — breaks these tests without
//! relying on proptest luck. Each fixture is decoded eagerly and chunked by
//! the reference decoder (`support/btrt_reference.rs`), decoded by the
//! production [`FastBtrtReader`], round-tripped through the text format, and
//! re-encoded byte-identically (the encoder is canonical: minimal varints,
//! one layout per trace).

mod support;

use btr_trace::io::{binary, text};
use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, ConditionalColumns, FastBtrtReader, Outcome, Trace,
    TraceChunk,
};
use support::btrt_reference;

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read fixture {path:?}: {e}"))
}

fn cond(addr: u64, taken: bool) -> BranchRecord {
    BranchRecord::conditional(BranchAddr::new(addr), Outcome::from_bool(taken))
}

/// Drains a chunked decoder into (record count, conditional columns).
fn collect(
    chunks: impl Iterator<Item = btr_trace::Result<TraceChunk>>,
) -> (usize, ConditionalColumns) {
    let mut count = 0;
    let mut columns = ConditionalColumns::new();
    for chunk in chunks {
        let chunk = chunk.expect("chunked decode must succeed");
        count += chunk.len();
        columns.extend_from(chunk.conditional());
    }
    (count, columns)
}

/// Decodes the fixture all three ways and checks the results agree with the
/// expected records before re-encoding byte-identically.
fn check_fixture(bytes: &[u8], expected: &[BranchRecord]) -> Trace {
    // Eager binary decode.
    let trace = btrt_reference::read_trace(bytes).expect("fixture must decode");
    assert_eq!(trace.records(), expected);

    // Chunked decode at several sizes, including degenerate ones — through
    // both the per-record reference decoder and the slice fast path. Chunks
    // count every record and carry the conditional columns of the eager
    // trace's interning.
    let interned = trace.intern();
    for chunk_records in [1usize, 3, 1024] {
        let reader = btrt_reference::chunked(bytes, chunk_records).unwrap();
        assert_eq!(reader.metadata(), trace.metadata());
        let (count, columns) = collect(reader);
        assert_eq!(count, expected.len());
        assert_eq!(columns.view(), interned.records());

        let fast = FastBtrtReader::new(bytes, chunk_records).unwrap();
        assert_eq!(fast.metadata(), trace.metadata());
        let (fast_count, fast_columns) = collect(fast);
        assert_eq!(fast_count, expected.len());
        assert_eq!(fast_columns.view(), interned.records());
    }

    // Text round-trip preserves records and metadata.
    let mut text_buf = Vec::new();
    text::write_trace(&mut text_buf, &trace).unwrap();
    let via_text = support::read_text(text_buf.as_slice()).unwrap();
    assert_eq!(via_text.records(), expected);
    assert_eq!(via_text.metadata(), trace.metadata());

    // Binary re-encode reproduces the golden bytes exactly.
    let mut reencoded = Vec::new();
    binary::write_trace(&mut reencoded, &trace).unwrap();
    assert_eq!(
        reencoded.as_slice(),
        bytes,
        "re-encoding must be byte-identical to the golden fixture"
    );
    trace
}

#[test]
fn empty_body_fixture() {
    let bytes = fixture("empty_body.btrt");
    let trace = check_fixture(&bytes, &[]);
    assert!(trace.is_empty());
    assert_eq!(trace.metadata().benchmark, "empty");
    assert_eq!(trace.metadata().input_set, "none");
    assert_eq!(trace.metadata().seed, Some(7));
    // An empty body yields zero chunks, not one empty chunk — on both paths.
    let mut reader = btrt_reference::chunked(bytes.as_slice(), 8).unwrap();
    assert!(reader.next().is_none());
    let mut fast = FastBtrtReader::new(bytes.as_slice(), 8).unwrap();
    assert!(fast.next().is_none());
}

#[test]
fn single_branch_fixture() {
    let bytes = fixture("single_branch.btrt");
    let trace = check_fixture(&bytes, &[cond(0x0040_0100, true)]);
    assert_eq!(trace.metadata().benchmark, "single");
    assert_eq!(trace.metadata().input_set, "");
    assert_eq!(trace.metadata().seed, None);
    assert_eq!(trace.conditional_count(), 1);
}

#[test]
fn mixed_kinds_with_wraparound_deltas_fixture() {
    let bytes = fixture("mixed_overflow.btrt");
    let expected = vec![
        cond(0x0040_0100, true),
        BranchRecord::new(
            BranchAddr::new(0x0040_0080),
            BranchKind::Unconditional,
            Outcome::Taken,
        )
        .with_target(BranchAddr::new(0x0041_0000)),
        // A jump to the top of the address space: the delta overflows i64
        // magnitude-wise and must round-trip through wrapping arithmetic.
        cond(0xffff_ffff_ffff_fffc, true),
        cond(0x10, false),
        BranchRecord::new(
            BranchAddr::new(0x0040_0200),
            BranchKind::Call,
            Outcome::Taken,
        )
        .with_target(BranchAddr::new(0x0041_1234)),
        BranchRecord::new(
            BranchAddr::new(0x0040_0204),
            BranchKind::Return,
            Outcome::Taken,
        ),
        BranchRecord::new(
            BranchAddr::new(0x0040_0208),
            BranchKind::Indirect,
            Outcome::Taken,
        )
        .with_target(BranchAddr::new(0x9000_0000)),
        cond(0x0040_0100, false),
    ];
    let trace = check_fixture(&bytes, &expected);
    assert_eq!(trace.metadata().benchmark, "mixed");
    assert_eq!(trace.metadata().input_set, "drift");
    assert_eq!(trace.metadata().seed, Some(123_456_789));
    assert_eq!(trace.conditional_count(), 4);
    assert_eq!(trace.static_conditional_count(), 3);
    // Interning sees only the conditional stream and reuses the revisited id.
    let interned = trace.intern();
    assert_eq!(interned.static_count(), 3);
    assert_eq!(interned.records().ids(), &[0, 1, 2, 0]);
}
