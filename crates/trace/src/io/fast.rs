//! Slice-based block decoding of `BTRT` streams — the one `BTRT` decoder.
//!
//! A per-record decoder walking the stream through the generic [`Read`]
//! trait pays one `read` call per byte inside the varint loops and one
//! bounds-checked dispatch per field; it tops out around 3×10⁷ records/s,
//! an order of magnitude below what the SWAR replay tier can simulate.
//! [`FastBtrtReader`] changes the unit of work from bytes to blocks:
//!
//! * the stream is pulled into a large reusable buffer with one `read` call
//!   per ~256 KiB, not per byte;
//! * records are decoded straight from `&[u8]` with
//!   [`btr_wire::varint::read_varint_slice`] (single-byte fast path for the
//!   delta-encoded common case). While at least `MAX_RECORD_BYTES` bytes
//!   are buffered, a record decode cannot hit end-of-buffer, so the hot loop
//!   carries no refill checks per field;
//! * conditional records land directly in the columnar [`TraceChunk`] layout
//!   (address / id / outcome columns) the simulation paths pack from, and a
//!   small direct-mapped cache in front of the persistent interner short-
//!   circuits the hash lookup for hot branches;
//! * chunk buffers are recycled through [`ChunkStream::recycle`], so
//!   steady-state streaming allocates nothing per chunk.
//!
//! The per-record reader survives only as a test oracle
//! (`tests/support/btrt_reference.rs`), with its own header parser and
//! varint loop. `tests/fast_decode_equivalence.rs` pins this decoder to it
//! across adversarial chunkings, socket-shaped reads, every truncation point
//! and arbitrary corruption: same chunk lengths, same conditional columns
//! and interned ids, and the same typed errors with the same record index
//! and byte offset.

use crate::error::TraceError;
use crate::interned::CachedInterner;
use crate::io::binary::{
    kind_from_code, read_header, varint_error, CountingReader, FLAG_TAKEN, FLAG_TARGET, KIND_MASK,
    MAX_RECORD_BYTES,
};
use crate::io::chunked::{ChunkStream, TraceChunk, DEFAULT_CHUNK_RECORDS};
use crate::record::{BranchAddr, BranchRecord, Outcome};
use crate::trace::TraceMetadata;
use crate::InternedTrace;
use crate::Result;
use btr_wire::varint::{read_varint_slice, zigzag_decode};
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Refill-buffer size: large enough that steady-state decode issues one
/// `read` call per ~10⁵ records, small enough to stay cache-polite.
const BUF_BYTES: usize = 256 * 1024;

/// Decodes one record from the front of `bytes`, returning it and its
/// encoded length. Errors use the same contexts as the `Read`-path decoder;
/// a record running past the end of the slice is
/// [`TraceError::UnexpectedEof`], which the caller either retries after a
/// refill or promotes to [`TraceError::TruncatedRecord`] at true EOF.
#[inline]
fn decode_record(bytes: &[u8], prev_addr: u64) -> Result<(BranchRecord, usize)> {
    let Some(&flags) = bytes.first() else {
        return Err(TraceError::UnexpectedEof {
            context: "record flags".into(),
        });
    };
    let kind = kind_from_code(flags & KIND_MASK).ok_or(TraceError::UnknownKind {
        code: char::from(b'0' + (flags & KIND_MASK)),
    })?;
    let outcome = Outcome::from_bool(flags & FLAG_TAKEN != 0);
    let mut used = 1usize;
    let (raw_delta, n) =
        read_varint_slice(&bytes[used..], "address delta").map_err(varint_error)?;
    used += n;
    let addr = prev_addr.wrapping_add(zigzag_decode(raw_delta) as u64);
    let mut record = BranchRecord::new(BranchAddr::new(addr), kind, outcome);
    if flags & FLAG_TARGET != 0 {
        let (target, n) =
            read_varint_slice(&bytes[used..], "target address").map_err(varint_error)?;
        used += n;
        record = record.with_target(BranchAddr::new(target));
    }
    Ok((record, used))
}

/// Block-decoding `BTRT` reader yielding columnar [`TraceChunk`]s.
///
/// Yields the same chunk boundaries and interned ids as
/// [`crate::ChunkedTraceReader`] does over the same records (see the module
/// docs for the equivalence contract). Implements both [`Iterator`] (for
/// drain-style consumers) and [`ChunkStream`] (for recycling consumers).
#[derive(Debug)]
pub struct FastBtrtReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// First unconsumed byte in `buf`.
    start: usize,
    /// End of valid bytes in `buf`.
    len: usize,
    /// The underlying reader returned 0 — no more bytes will arrive.
    eof: bool,
    /// Total bytes pulled from `inner` (header included). At end-of-stream
    /// truncation this equals the stream length, which is exactly the offset
    /// a byte-at-a-time decoder reports.
    fetched: u64,
    metadata: TraceMetadata,
    declared: u64,
    /// Records fully decoded so far (error reporting uses this, matching a
    /// per-record decoder's counter).
    decoded: u64,
    /// Records in chunks actually yielded.
    records_read: u64,
    prev_addr: u64,
    chunk_records: usize,
    interner: CachedInterner,
    next_chunk: usize,
    finished: bool,
    spare: Option<TraceChunk>,
}

impl<R: Read> FastBtrtReader<R> {
    /// Starts block decoding of a `BTRT` stream, reading and validating the
    /// header eagerly. A zero `chunk_records` bound is treated as one record
    /// per chunk.
    ///
    /// # Errors
    ///
    /// Fails on bad magic bytes, unsupported versions, or truncated headers
    /// (a contextual [`TraceError::UnexpectedEof`] naming the field).
    pub fn new(reader: R, chunk_records: usize) -> Result<Self> {
        let mut counting = CountingReader {
            inner: reader,
            bytes: 0,
        };
        let (metadata, declared) = read_header(&mut counting)?;
        Ok(FastBtrtReader {
            inner: counting.inner,
            buf: vec![0u8; BUF_BYTES],
            start: 0,
            len: 0,
            eof: false,
            fetched: counting.bytes,
            metadata,
            declared,
            decoded: 0,
            records_read: 0,
            prev_addr: 0,
            chunk_records: chunk_records.max(1),
            interner: CachedInterner::new(),
            next_chunk: 0,
            finished: false,
            spare: None,
        })
    }

    /// The metadata decoded from the header.
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    /// Records decoded so far across all yielded chunks.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Distinct static conditional branches interned so far.
    pub fn static_count(&self) -> usize {
        self.interner.addrs().len()
    }

    /// Slides the unconsumed tail to the buffer front and performs one
    /// successful `read` into the freed space (`ErrorKind::Interrupted` is
    /// retried transparently, as `Read::read_exact` does). A zero-byte
    /// read marks end-of-stream.
    fn refill(&mut self) -> Result<()> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.len, 0);
            self.len -= self.start;
            self.start = 0;
        }
        loop {
            match self.inner.read(&mut self.buf[self.len..]) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.len += n;
                    self.fetched += n as u64;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceError::Io(e)),
            }
        }
    }

    /// Decodes records into `chunk` until it is full or the declared count
    /// is reached. Errors carry the exact record index and stream offset a
    /// per-record decoder would report.
    fn fill_chunk(&mut self, chunk: &mut TraceChunk) -> Result<()> {
        while chunk.len < self.chunk_records && self.decoded < self.declared {
            let avail = self.len - self.start;
            // The hot path runs with a full record guaranteed in the buffer;
            // only the stream tail (or a socket trickling bytes) drops to
            // the refill/tail-decode handling below.
            if avail < MAX_RECORD_BYTES && !self.eof {
                self.refill()?;
                continue;
            }
            if avail == 0 {
                // Clean EOF before the declared count: a per-record decoder
                // fails reading the next flag byte, every byte consumed.
                return Err(TraceError::TruncatedRecord {
                    record: self.decoded,
                    offset: self.fetched,
                    context: "record flags".into(),
                });
            }
            match decode_record(&self.buf[self.start..self.len], self.prev_addr) {
                Ok((record, used)) => {
                    self.start += used;
                    self.decoded += 1;
                    self.prev_addr = record.addr().raw();
                    chunk.push(&record, |addr| self.interner.intern(addr));
                }
                Err(TraceError::UnexpectedEof { context }) => {
                    // Only reachable at true EOF (see the refill guard): the
                    // record runs past the end of the stream.
                    return Err(TraceError::TruncatedRecord {
                        record: self.decoded,
                        offset: self.fetched,
                        context,
                    });
                }
                Err(other) => return Err(other),
            }
        }
        Ok(())
    }
}

impl FastBtrtReader<File> {
    /// Opens a `BTRT` file for block decoding. Reads are block-sized, so no
    /// `BufReader` wrapper is needed.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened or its header is invalid.
    pub fn open<P: AsRef<Path>>(path: P, chunk_records: usize) -> Result<Self> {
        FastBtrtReader::new(File::open(path)?, chunk_records)
    }
}

impl<R: Read> Iterator for FastBtrtReader<R> {
    type Item = Result<TraceChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let mut chunk = self.spare.take().unwrap_or_else(TraceChunk::empty);
        chunk.clear();
        match self.fill_chunk(&mut chunk) {
            Ok(()) => {}
            Err(e) => {
                // Fuse, recycling the partial chunk's buffers: a decode
                // error is not recoverable mid-stream (record boundaries are
                // lost), so the partial chunk is discarded.
                self.finished = true;
                self.spare = Some(chunk);
                return Some(Err(e));
            }
        }
        if chunk.is_empty() {
            self.finished = true;
            self.spare = Some(chunk);
            return None;
        }
        chunk.index = self.next_chunk;
        chunk.first_record = self.records_read;
        self.records_read += chunk.len as u64;
        if self.decoded >= self.declared {
            self.finished = true;
        }
        self.next_chunk += 1;
        Some(Ok(chunk))
    }
}

impl<R: Read> ChunkStream for FastBtrtReader<R> {
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

/// Reads a `BTRT` file through the fast path straight into an
/// [`InternedTrace`] (conditional records only, with metadata), the form the
/// simulation engine consumes. This is what `btr-shard` workers use to load
/// a shared trace file instead of regenerating the workload per unit.
///
/// # Errors
///
/// Fails on any decode error the streaming fast path would report.
pub fn read_interned_btrt<P: AsRef<Path>>(path: P) -> Result<(TraceMetadata, InternedTrace)> {
    let mut reader = FastBtrtReader::open(path, DEFAULT_CHUNK_RECORDS)?;
    let interned = InternedTrace::from_chunks(&mut reader)?;
    Ok((reader.metadata, interned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::binary;
    use crate::record::BranchKind;
    use crate::trace::{Trace, TraceBuilder};

    fn mixed_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("fast").with_input_set("mix").with_seed(3);
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

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, trace).expect("writing to a Vec cannot fail");
        buf
    }

    #[test]
    fn fast_chunks_match_the_slow_reader_exactly() {
        // The reference chunks come from the same records chunked straight
        // from memory: no `BTRT` decode at all on that side.
        let trace = mixed_trace(1003);
        let buf = encode(&trace);
        for chunk_records in [1usize, 7, 64, 100_000] {
            let slow: Vec<TraceChunk> = crate::ChunkedTraceReader::from_records(
                trace.metadata().clone(),
                Some(trace.len() as u64),
                trace.records().iter().copied().map(Ok),
                chunk_records,
            )
            .map(|c| c.expect("in-memory records"))
            .collect();
            let mut fast_reader =
                FastBtrtReader::new(buf.as_slice(), chunk_records).expect("valid header");
            assert_eq!(fast_reader.metadata(), trace.metadata());
            let fast: Vec<TraceChunk> = (&mut fast_reader)
                .map(|c| c.expect("valid stream"))
                .collect();
            assert_eq!(fast, slow, "chunk size {chunk_records}");
            assert_eq!(fast_reader.records_read(), trace.len() as u64);
            assert_eq!(fast_reader.addrs(), trace.intern().addrs());
        }
    }

    #[test]
    fn recycling_reuses_the_same_buffers() {
        let trace = mixed_trace(300);
        let buf = encode(&trace);
        let mut reader = FastBtrtReader::new(buf.as_slice(), 64).expect("valid header");
        let mut total = 0usize;
        let mut ptr = None;
        while let Some(chunk) = reader.pull() {
            let chunk = chunk.expect("valid stream");
            total += chunk.len();
            // After the first swap the reader refills the exact buffer we
            // handed back: pointer-stable, hence allocation-free.
            if let Some(prev) = ptr {
                assert_eq!(prev, chunk.conditional().addrs().as_ptr());
            }
            ptr = Some(chunk.conditional().addrs().as_ptr());
            reader.recycle(chunk);
        }
        assert_eq!(total, trace.len());
    }

    #[test]
    fn truncated_streams_report_the_slow_path_error() {
        let trace = mixed_trace(64);
        let mut buf = encode(&trace);
        // Records 62 and 63 are conditional with one-byte deltas (+4, then
        // -24), two bytes each: cutting three bytes drops record 63 and the
        // delta of record 62.
        buf.truncate(buf.len() - 3);
        let fast_err = FastBtrtReader::new(buf.as_slice(), 16)
            .expect("valid header")
            .find_map(|c| c.err())
            .expect("truncated stream errors");
        assert!(
            matches!(
                &fast_err,
                TraceError::TruncatedRecord { record: 62, offset, context }
                    if *offset == buf.len() as u64 && context == "address delta"
            ),
            "{fast_err:?}"
        );
    }

    #[test]
    fn read_interned_matches_eager_interning() {
        let trace = mixed_trace(517);
        let dir = std::env::temp_dir().join("btr-fast-test");
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        let path = dir.join(format!("interned-{}.btrt", std::process::id()));
        std::fs::write(&path, encode(&trace)).expect("temp file is writable");
        let (metadata, interned) = read_interned_btrt(&path).expect("valid file decodes");
        assert_eq!(&metadata, trace.metadata());
        assert_eq!(interned, trace.intern());
        std::fs::remove_file(&path).ok();
    }
}
