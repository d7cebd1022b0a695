//! Chunked, bounded-memory trace decoding.
//!
//! Materialising every record before the simulator sees the first one makes
//! memory grow linearly with trace length — untenable for the paper-scale
//! captures (10⁸+ records) the classification analysis is meant to run
//! over. The chunked readers decode a stream into bounded, fixed-size
//! [`TraceChunk`]s instead: peak memory is one chunk plus the id-interning
//! tables, independent of trace length. [`crate::io::fast::FastBtrtReader`]
//! produces them from `BTRT`; [`ChunkedTraceReader`] produces them from any
//! record iterator — the text format through [`ChunkedTraceReader::text`],
//! or a caller's own source through [`ChunkedTraceReader::from_records`].
//!
//! Each chunk carries the dense interned ids of its conditional records,
//! assigned by a persistent [`IncrementalInterner`] — so the ids seen across
//! all chunks are *identical* to the ids [`crate::Trace::intern`] assigns to
//! the whole trace, no matter the chunk size. That invariant (pinned by
//! `tests/streamed_vs_eager.rs`) is what lets a streaming simulation keep
//! per-branch statistics in flat vectors and still merge bit-identically with
//! the eager path.
//!
//! Any `Read` source works — a file, a network socket, or an in-memory
//! buffer; decoding itself is sequential because `BTRT` records are
//! delta-encoded against their predecessor.
//!
//! ```
//! use btr_trace::io::binary;
//! use btr_trace::{BranchAddr, BranchRecord, FastBtrtReader, Outcome, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("demo");
//! for i in 0..10u64 {
//!     b.push(BranchRecord::conditional(
//!         BranchAddr::new(0x4000 + (i % 3) * 4),
//!         Outcome::from_bool(i % 2 == 0),
//!     ));
//! }
//! let trace = b.build();
//! let mut buf = Vec::new();
//! binary::write_trace(&mut buf, &trace)?;
//!
//! let reader = FastBtrtReader::new(buf.as_slice(), 4)?;
//! assert_eq!(reader.metadata().benchmark, "demo");
//! let chunks: Vec<_> = reader.collect::<btr_trace::Result<_>>()?;
//! assert_eq!(chunks.len(), 3); // 4 + 4 + 2 records
//! assert_eq!(chunks[2].first_record(), 8);
//! # Ok::<(), btr_trace::TraceError>(())
//! ```

use crate::error::TraceError;
use crate::interned::{ConditionalColumns, ConditionalView, IncrementalInterner};
use crate::io::text::TextRecordReader;
use crate::record::{BranchAddr, BranchRecord};
use crate::trace::TraceMetadata;
use crate::Result;
use std::io::Read;

/// Default records per chunk: 64 Ki records ≈ 0.8 MiB of conditional
/// columns, small enough to stay cache- and RAM-friendly, large enough to
/// amortise per-chunk overhead at tens of millions of records per second.
pub const DEFAULT_CHUNK_RECORDS: usize = 1 << 16;

/// One bounded window of a trace produced by [`ChunkedTraceReader`] (or the
/// block-decoding [`crate::io::fast::FastBtrtReader`]).
///
/// Carries the count of records of every kind and the conditional subset as
/// [`ConditionalColumns`]: parallel address / interned-id / outcome columns,
/// one entry per conditional record, in trace order. Non-conditional records
/// are counted, not stored — no analysis reads them.
///
/// Ids are assigned in global first-appearance order by the reader's
/// persistent interner, so across all chunks they are identical to the ids
/// [`crate::Trace::intern`] assigns to the eagerly-read trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceChunk {
    pub(crate) index: usize,
    pub(crate) first_record: u64,
    /// Records of every kind in this chunk.
    pub(crate) len: usize,
    pub(crate) conditional: ConditionalColumns,
}

impl TraceChunk {
    /// An empty chunk, ready to be filled (or recycled) by a reader.
    pub(crate) fn empty() -> Self {
        TraceChunk {
            index: 0,
            first_record: 0,
            len: 0,
            conditional: ConditionalColumns::new(),
        }
    }

    /// Clears the chunk, keeping the column capacity for reuse.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.conditional.clear();
    }

    /// Counts one decoded record, appending it to the columns when it is
    /// conditional (`id` is only called for those).
    #[inline]
    pub(crate) fn push(&mut self, record: &BranchRecord, id: impl FnOnce(BranchAddr) -> u32) {
        if record.kind().is_conditional() {
            let addr = record.addr();
            self.conditional
                .push(addr, id(addr), record.outcome().is_taken());
        }
        self.len += 1;
    }

    /// The chunk's position in the stream (0, 1, 2, …).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Absolute index (within the whole trace) of this chunk's first record.
    pub fn first_record(&self) -> u64 {
        self.first_record
    }

    /// The conditional records of this chunk with their dense interned ids,
    /// in trace order.
    #[inline]
    pub fn conditional(&self) -> ConditionalView<'_> {
        self.conditional.view()
    }

    /// Number of records (of any kind) in this chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A pull source of [`TraceChunk`]s with buffer recycling.
///
/// This is the contract the streaming consumers (`SimEngine::run_fused_streamed`
/// in `btr-sim`, [`crate::InternedTrace::from_chunks`]) use: pull the next chunk with
/// [`ChunkStream::pull`], and once done with it hand the chunk *back*
/// with [`ChunkStream::recycle`] so the reader can refill its buffers in
/// place. With a consumer that recycles, steady-state streaming does zero
/// per-chunk allocation — the reader and the engine swap two chunk buffers
/// back and forth.
///
/// Implementations fuse after the first error, like the readers themselves.
/// `recycle` is advisory: the default drops the chunk, and a stream may
/// ignore returned buffers entirely.
pub trait ChunkStream {
    /// Pulls the next chunk: `None` when the stream is exhausted.
    fn pull(&mut self) -> Option<Result<TraceChunk>>;

    /// Returns a consumed chunk's buffers for reuse. Optional.
    fn recycle(&mut self, chunk: TraceChunk) {
        let _ = chunk;
    }

    /// The stream interner's id → address table, in id (first-appearance)
    /// order. It covers every id of every chunk pulled so far; after the
    /// last chunk it equals the eager trace's [`crate::InternedTrace::addrs`].
    fn addrs(&self) -> &[BranchAddr];
}

impl<S: ChunkStream> ChunkStream for &mut S {
    fn pull(&mut self) -> Option<Result<TraceChunk>> {
        (**self).pull()
    }

    fn recycle(&mut self, chunk: TraceChunk) {
        (**self).recycle(chunk);
    }

    fn addrs(&self) -> &[BranchAddr] {
        (**self).addrs()
    }
}

/// Decodes a trace stream into bounded fixed-size [`TraceChunk`]s, interning
/// conditional-branch addresses incrementally as they first appear.
///
/// Generic over any record source (`Iterator<Item = Result<BranchRecord>>`):
/// [`ChunkedTraceReader::text`] covers the text format from any reader, and
/// [`ChunkedTraceReader::from_records`] any other source. `BTRT` streams
/// decode through [`crate::io::fast::FastBtrtReader`] instead. The iterator
/// yields `Result<TraceChunk>` and fuses after the first error.
#[derive(Debug)]
pub struct ChunkedTraceReader<I> {
    source: I,
    metadata: TraceMetadata,
    declared: Option<u64>,
    chunk_records: usize,
    interner: IncrementalInterner,
    next_chunk: usize,
    records_read: u64,
    finished: bool,
    /// Recycled chunk buffers handed back via [`ChunkStream::recycle`]; the
    /// next chunk is decoded into them instead of fresh allocations.
    spare: Option<TraceChunk>,
}

impl<R: Read> ChunkedTraceReader<TextRecordReader<R>> {
    /// Starts chunked decoding of a text-format stream. The leading comment
    /// block is consumed eagerly so [`ChunkedTraceReader::metadata`] is
    /// populated; the text format declares no record count, so none is
    /// checked.
    ///
    /// [`ChunkedTraceReader::metadata`] is a snapshot of the *leading*
    /// comment block only. Metadata comments appearing between records (an
    /// unconventional layout) are folded into the underlying
    /// [`TextRecordReader`] as chunks are consumed — query them through
    /// [`ChunkedTraceReader::source`] after draining:
    ///
    /// ```
    /// use btr_trace::ChunkedTraceReader;
    /// let text = "# benchmark: early\nC 0x40 T\n# seed: 42\nC 0x44 N\n";
    /// let mut reader = ChunkedTraceReader::text(text.as_bytes(), 8);
    /// assert_eq!(reader.metadata().seed, None); // leading block only
    /// for chunk in &mut reader { chunk.unwrap(); }
    /// assert_eq!(reader.source().metadata().seed, Some(42));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is zero.
    pub fn text(reader: R, chunk_records: usize) -> Self {
        let source = TextRecordReader::new(reader);
        let metadata = source.metadata().clone();
        ChunkedTraceReader::from_records(metadata, None, source, chunk_records)
    }
}

impl<I: Iterator<Item = Result<BranchRecord>>> ChunkedTraceReader<I> {
    /// Wraps an arbitrary record source. `declared`, when given, is checked
    /// against the number of records the source actually yields.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is zero.
    pub fn from_records(
        metadata: TraceMetadata,
        declared: Option<u64>,
        source: I,
        chunk_records: usize,
    ) -> Self {
        assert!(chunk_records > 0, "chunk size must be at least one record");
        ChunkedTraceReader {
            source,
            metadata,
            declared,
            chunk_records,
            interner: IncrementalInterner::new(),
            next_chunk: 0,
            records_read: 0,
            finished: false,
            spare: None,
        }
    }

    /// The metadata decoded from the stream header (for text input: from the
    /// leading comment block — see [`ChunkedTraceReader::text`]).
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    /// The underlying record source, e.g. to query a [`TextRecordReader`]'s
    /// up-to-date metadata after mid-stream comment lines were consumed.
    pub fn source(&self) -> &I {
        &self.source
    }

    /// The configured records-per-chunk bound.
    pub fn chunk_records(&self) -> usize {
        self.chunk_records
    }

    /// Records decoded so far across all yielded chunks.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Distinct static conditional branches interned so far.
    pub fn static_count(&self) -> usize {
        self.interner.static_count()
    }
}

impl<I: Iterator<Item = Result<BranchRecord>>> Iterator for ChunkedTraceReader<I> {
    type Item = Result<TraceChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        // Fill recycled buffers when a consumer handed some back.
        let mut chunk = self.spare.take().unwrap_or_else(TraceChunk::empty);
        chunk.clear();
        let mut exhausted = false;
        while chunk.len < self.chunk_records {
            match self.source.next() {
                Some(Ok(record)) => chunk.push(&record, |addr| self.interner.intern(addr)),
                Some(Err(e)) => {
                    self.finished = true;
                    self.spare = Some(chunk);
                    return Some(Err(e));
                }
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        let first_record = self.records_read;
        self.records_read += chunk.len as u64;
        if exhausted {
            self.finished = true;
            if let Some(declared) = self.declared {
                if declared != self.records_read {
                    self.spare = Some(chunk);
                    return Some(Err(TraceError::CountMismatch {
                        declared,
                        actual: self.records_read,
                    }));
                }
            }
        }
        if chunk.is_empty() {
            self.spare = Some(chunk);
            return None;
        }
        chunk.index = self.next_chunk;
        chunk.first_record = first_record;
        self.next_chunk += 1;
        Some(Ok(chunk))
    }
}

impl<I: Iterator<Item = Result<BranchRecord>>> ChunkStream for ChunkedTraceReader<I> {
    fn pull(&mut self) -> Option<Result<TraceChunk>> {
        self.next()
    }

    fn recycle(&mut self, chunk: TraceChunk) {
        self.spare = Some(chunk);
    }

    fn addrs(&self) -> &[BranchAddr] {
        self.interner.addrs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::binary;
    use crate::io::fast::FastBtrtReader;
    use crate::record::{BranchAddr, BranchKind, Outcome};
    use crate::trace::{Trace, TraceBuilder};

    fn mixed_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("chunks")
            .with_input_set("mix")
            .with_seed(9);
        for i in 0..n {
            if i % 5 == 4 {
                b.push(
                    BranchRecord::new(
                        BranchAddr::new(0x9000 + i * 4),
                        BranchKind::Call,
                        Outcome::Taken,
                    )
                    .with_target(BranchAddr::new(0x1_0000 + i)),
                );
            } else {
                b.push(BranchRecord::conditional(
                    BranchAddr::new(0x4000 + (i % 7) * 4),
                    Outcome::from_bool(i % 3 == 0),
                ));
            }
        }
        b.build()
    }

    /// Chunks an in-memory trace's records, declaring its length.
    fn chunk_trace(
        trace: &Trace,
        chunk_records: usize,
    ) -> ChunkedTraceReader<impl Iterator<Item = Result<BranchRecord>> + '_> {
        ChunkedTraceReader::from_records(
            trace.metadata().clone(),
            Some(trace.len() as u64),
            trace.records().iter().copied().map(Ok),
            chunk_records,
        )
    }

    #[test]
    fn chunks_partition_the_stream_in_order() {
        let trace = mixed_trace(103);
        let reader = chunk_trace(&trace, 10);
        assert_eq!(reader.metadata(), trace.metadata());
        assert_eq!(reader.declared, Some(103));
        assert_eq!(reader.chunk_records(), 10);
        let chunks: Vec<TraceChunk> = reader.map(|c| c.unwrap()).collect();
        assert_eq!(chunks.len(), 11);
        assert_eq!(chunks[10].len(), 3);
        let mut records = 0;
        let mut conditional = ConditionalColumns::new();
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.index(), i);
            assert_eq!(chunk.first_record(), records as u64);
            records += chunk.len();
            conditional.extend_from(chunk.conditional());
        }
        assert_eq!(records, trace.len());
        assert_eq!(conditional.view(), trace.intern().records());
    }

    /// Drains a reader into (record count, conditional columns).
    fn collect(chunks: impl Iterator<Item = Result<TraceChunk>>) -> (usize, ConditionalColumns) {
        let mut records = 0;
        let mut conditional = ConditionalColumns::new();
        for chunk in chunks {
            let chunk = chunk.unwrap();
            records += chunk.len();
            conditional.extend_from(chunk.conditional());
        }
        (records, conditional)
    }

    #[test]
    fn interned_ids_match_the_eager_interner_across_chunk_sizes() {
        let trace = mixed_trace(64);
        let eager = trace.intern();
        for chunk_records in [1usize, 3, 7, 64, 1000] {
            let mut reader = chunk_trace(&trace, chunk_records);
            let (_, streamed) = collect(&mut reader);
            assert_eq!(streamed.view(), eager.records(), "size {chunk_records}");
            assert_eq!(reader.addrs(), eager.addrs());
            assert_eq!(reader.static_count(), eager.static_count());
            assert_eq!(reader.records_read(), trace.len() as u64);
        }
    }

    #[test]
    fn empty_stream_yields_no_chunks() {
        let trace = TraceBuilder::new("empty").build();
        let mut reader = chunk_trace(&trace, 8);
        assert!(reader.next().is_none());
        assert!(reader.next().is_none());
        assert_eq!(reader.records_read(), 0);
    }

    #[test]
    fn text_streams_chunk_identically_to_eager_text_reads() {
        let trace = mixed_trace(41);
        let mut buf = Vec::new();
        crate::io::text::write_trace(&mut buf, &trace).unwrap();
        let reader = ChunkedTraceReader::text(buf.as_slice(), 8);
        assert_eq!(reader.metadata(), trace.metadata());
        assert_eq!(reader.declared, None);
        let (records, conditional) = collect(reader);
        assert_eq!(records, trace.len());
        assert_eq!(conditional.view(), trace.intern().records());
    }

    #[test]
    fn text_metadata_snapshot_covers_the_leading_block_and_source_stays_current() {
        let text = "# benchmark: demo\nC 0x40 T\n# input: late\n# seed: 7\nC 0x44 N\n";
        let mut reader = ChunkedTraceReader::text(text.as_bytes(), 64);
        // The snapshot sees only the leading comment block…
        assert_eq!(reader.metadata().benchmark, "demo");
        assert_eq!(reader.metadata().seed, None);
        let total: usize = (&mut reader).map(|c| c.unwrap().len()).sum();
        assert_eq!(total, 2);
        // …while the underlying text reader keeps folding mid-stream
        // comments, ending with every comment line applied.
        assert_eq!(reader.source().metadata().input_set, "late");
        assert_eq!(reader.source().metadata().seed, Some(7));
        let every_line = TraceMetadata::named("demo")
            .with_input_set("late")
            .with_seed(7);
        assert_eq!(reader.source().metadata(), &every_line);
    }

    /// Drains `chunks`, checking that every chunk before the error is
    /// non-empty, that exactly one `TruncatedRecord` surfaces, and that the
    /// stream stays fused after it.
    fn assert_truncation_fuses(mut chunks: impl Iterator<Item = Result<TraceChunk>>) {
        let mut errors = 0;
        for chunk in &mut chunks {
            match chunk {
                Ok(c) => assert!(!c.is_empty()),
                Err(e) => {
                    assert!(matches!(e, TraceError::TruncatedRecord { .. }), "{e:?}");
                    errors += 1;
                }
            }
        }
        assert_eq!(errors, 1);
        assert!(chunks.next().is_none());
    }

    #[test]
    fn truncated_streams_surface_the_typed_error_and_fuse() {
        let trace = mixed_trace(32);
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 1);
        // The `BTRT` decoder, and this reader over a source that fails the
        // same way partway through.
        assert_truncation_fuses(FastBtrtReader::new(buf.as_slice(), 8).unwrap());
        let torn = trace.records()[..27]
            .iter()
            .copied()
            .map(Ok)
            .chain(std::iter::once(Err(TraceError::TruncatedRecord {
                record: 27,
                offset: 0,
                context: "record flags".into(),
            })));
        assert_truncation_fuses(ChunkedTraceReader::from_records(
            trace.metadata().clone(),
            Some(trace.len() as u64),
            torn,
            8,
        ));
    }

    #[test]
    fn count_mismatch_is_reported_for_short_custom_sources() {
        let records: Vec<crate::Result<BranchRecord>> = (0..3)
            .map(|i| {
                Ok(BranchRecord::conditional(
                    BranchAddr::new(0x40 + i * 4),
                    Outcome::Taken,
                ))
            })
            .collect();
        let reader = ChunkedTraceReader::from_records(
            TraceMetadata::named("short"),
            Some(5),
            records.into_iter(),
            2,
        );
        let results: Vec<Result<TraceChunk>> = reader.collect();
        assert!(results[0].is_ok());
        assert!(matches!(
            results.last().unwrap(),
            Err(TraceError::CountMismatch {
                declared: 5,
                actual: 3
            })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_chunk_size_is_rejected() {
        let trace = mixed_trace(4);
        let _ = chunk_trace(&trace, 0);
    }

    #[test]
    fn file_backed_reading_round_trips() -> Result<()> {
        let trace = mixed_trace(57);
        let dir = std::env::temp_dir().join("btr-chunked-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("roundtrip-{}.txt", std::process::id()));
        let mut buf = Vec::new();
        crate::io::text::write_trace(&mut buf, &trace)?;
        std::fs::write(&path, buf)?;
        let file = std::io::BufReader::new(std::fs::File::open(&path)?);
        let reader = ChunkedTraceReader::text(file, 16);
        let (records, conditional) = collect(reader);
        assert_eq!(records, trace.len());
        assert_eq!(conditional.view(), trace.intern().records());
        std::fs::remove_file(&path).ok();
        Ok(())
    }
}
