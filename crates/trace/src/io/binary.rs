//! The `BTRT` compact binary trace format.
//!
//! Layout:
//!
//! ```text
//! magic      : 4 bytes  = "BTRT"
//! version    : u32 LE   = 1
//! count      : u64 LE   = number of records
//! bench_len  : u16 LE, benchmark name bytes (UTF-8)
//! input_len  : u16 LE, input set bytes (UTF-8)
//! seed_flag  : u8 (0/1), seed : u64 LE if flag == 1
//! records    : count × record
//! ```
//!
//! Each record is a flag byte followed by a varint-encoded address delta
//! (zig-zag, relative to the previous record's address) and, when present, a
//! varint-encoded absolute target address. The flag byte packs the branch
//! kind (3 bits), the outcome (1 bit) and target presence (1 bit). Typical
//! workload traces compress to roughly 2 bytes per record because consecutive
//! branches tend to be close together in the address space.

use crate::error::TraceError;
use crate::record::{BranchAddr, BranchKind, BranchRecord, Outcome};
use crate::trace::{Trace, TraceBuilder, TraceMetadata};
use crate::Result;
use std::io::{Read, Write};

const MAGIC: [u8; 4] = *b"BTRT";
const VERSION: u32 = 1;

/// Flag-byte bit carrying the outcome (taken when set).
pub(crate) const FLAG_TAKEN: u8 = 1 << 3;
/// Flag-byte bit marking an absolute target varint after the delta.
pub(crate) const FLAG_TARGET: u8 = 1 << 4;
/// Flag-byte mask selecting the branch-kind code.
pub(crate) const KIND_MASK: u8 = 0x07;

/// Upper bound on one encoded record: flag byte plus two maximal (10-byte)
/// varints. The block decoder in [`super::fast`] uses this to know when a
/// record can be decoded without any bounds checks against end-of-buffer.
pub(crate) const MAX_RECORD_BYTES: usize = 1 + 10 + 10;

fn kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::Indirect => 4,
    }
}

pub(crate) fn kind_from_code(code: u8) -> Option<BranchKind> {
    Some(match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Unconditional,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        4 => BranchKind::Indirect,
        _ => return None,
    })
}

// LEB128/zig-zag primitives are shared with the `BTRW` wire format — one
// canonical-varint implementation for the whole workspace (overflow and
// non-minimal encodings rejected there), with errors mapped to trace terms
// at this boundary.
use btr_wire::varint::{zigzag_decode, zigzag_encode};

fn write_varint<W: Write>(w: &mut W, v: u64) -> Result<()> {
    btr_wire::varint::write_varint(w, v).map_err(varint_error)
}

fn read_varint<R: Read>(r: &mut R, context: &'static str) -> Result<u64> {
    btr_wire::varint::read_varint(r, context).map_err(varint_error)
}

pub(crate) fn varint_error(e: btr_wire::WireError) -> TraceError {
    match e {
        btr_wire::WireError::Io(e) => TraceError::Io(e),
        btr_wire::WireError::UnexpectedEof { context } => TraceError::UnexpectedEof {
            context: context.into(),
        },
        other => TraceError::MalformedLine {
            line: 0,
            reason: other.to_string(),
        },
    }
}

fn write_u16<W: Write>(w: &mut W, v: u16) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_exact<R: Read, const N: usize>(r: &mut R, context: &'static str) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    read_exact_into(r, &mut buf, context)?;
    Ok(buf)
}

/// [`Read::read_exact`] with the same contextual-EOF mapping as
/// [`read_exact`], for the variable-length header fields (the benchmark and
/// input-set names) whose size is only known at run time.
fn read_exact_into<R: Read>(r: &mut R, buf: &mut [u8], context: &'static str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::UnexpectedEof {
                context: context.into(),
            }
        } else {
            TraceError::Io(e)
        }
    })
}

/// Writes a whole trace in the `BTRT` binary format.
///
/// # Errors
///
/// Returns an error if the underlying writer fails.
pub fn write_trace<W: Write>(w: &mut W, trace: &Trace) -> Result<()> {
    write_header(w, trace.metadata(), trace.len() as u64)?;
    let mut prev_addr = 0u64;
    for record in trace.records() {
        write_record(w, record, &mut prev_addr)?;
    }
    Ok(())
}

fn write_header<W: Write>(w: &mut W, meta: &TraceMetadata, count: u64) -> Result<()> {
    w.write_all(&MAGIC)?;
    write_u32(w, VERSION)?;
    write_u64(w, count)?;
    let bench = meta.benchmark.as_bytes();
    let input = meta.input_set.as_bytes();
    write_u16(w, bench.len().min(u16::MAX as usize) as u16)?;
    w.write_all(&bench[..bench.len().min(u16::MAX as usize)])?;
    write_u16(w, input.len().min(u16::MAX as usize) as u16)?;
    w.write_all(&input[..input.len().min(u16::MAX as usize)])?;
    match meta.seed {
        Some(seed) => {
            w.write_all(&[1])?;
            write_u64(w, seed)?;
        }
        None => w.write_all(&[0])?,
    }
    Ok(())
}

fn write_record<W: Write>(w: &mut W, record: &BranchRecord, prev_addr: &mut u64) -> Result<()> {
    let mut flags = kind_code(record.kind());
    if record.outcome().is_taken() {
        flags |= 1 << 3;
    }
    if record.target().is_some() {
        flags |= 1 << 4;
    }
    w.write_all(&[flags])?;
    // Wrapping, to mirror the decoder's `wrapping_add`: a jump across the
    // address-space midpoint is a legal delta, not an overflow.
    let delta = record.addr().raw().wrapping_sub(*prev_addr) as i64;
    write_varint(w, zigzag_encode(delta))?;
    *prev_addr = record.addr().raw();
    if let Some(target) = record.target() {
        write_varint(w, target.raw())?;
    }
    Ok(())
}

/// A [`Read`] adapter counting the bytes consumed so far, so decode errors
/// can report the exact stream offset they occurred at.
#[derive(Debug)]
pub(crate) struct CountingReader<R> {
    pub(crate) inner: R,
    pub(crate) bytes: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// Parses a `BTRT` header, returning the metadata and the declared record
/// count. Shared by the per-record [`BinaryRecordReader`] and the block
/// decoder in [`super::fast`] so the two paths cannot diverge on header
/// validation or error contexts.
pub(crate) fn read_header<R: Read>(reader: &mut CountingReader<R>) -> Result<(TraceMetadata, u64)> {
    let magic: [u8; 4] = read_exact(reader, "magic")?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(read_exact(reader, "version")?);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion { found: version });
    }
    let declared = u64::from_le_bytes(read_exact(reader, "record count")?);
    let bench_len = u16::from_le_bytes(read_exact(reader, "benchmark length")?) as usize;
    let mut bench = vec![0u8; bench_len];
    read_exact_into(reader, &mut bench, "benchmark name")?;
    let input_len = u16::from_le_bytes(read_exact(reader, "input length")?) as usize;
    let mut input = vec![0u8; input_len];
    read_exact_into(reader, &mut input, "input name")?;
    let seed_flag: [u8; 1] = read_exact(reader, "seed flag")?;
    let seed = if seed_flag[0] == 1 {
        Some(u64::from_le_bytes(read_exact(reader, "seed")?))
    } else {
        None
    };
    let metadata = TraceMetadata {
        benchmark: String::from_utf8_lossy(&bench).into_owned(),
        input_set: String::from_utf8_lossy(&input).into_owned(),
        description: String::new(),
        seed,
    };
    Ok((metadata, declared))
}

/// Streaming reader yielding one [`BranchRecord`] at a time from a `BTRT`
/// stream, so very large traces do not have to be materialised.
#[derive(Debug)]
pub struct BinaryRecordReader<R> {
    reader: CountingReader<R>,
    metadata: TraceMetadata,
    declared: u64,
    produced: u64,
    prev_addr: u64,
}

impl<R: Read> BinaryRecordReader<R> {
    /// Reads and validates the header, returning a record iterator.
    ///
    /// # Errors
    ///
    /// Fails on bad magic bytes, unsupported versions, or truncated headers.
    pub fn new(reader: R) -> Result<Self> {
        let mut reader = CountingReader {
            inner: reader,
            bytes: 0,
        };
        let (metadata, declared) = read_header(&mut reader)?;
        Ok(BinaryRecordReader {
            reader,
            metadata,
            declared,
            produced: 0,
            prev_addr: 0,
        })
    }

    /// The metadata decoded from the header.
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    /// The number of records the header declared.
    pub fn declared_count(&self) -> u64 {
        self.declared
    }

    /// The number of bytes consumed from the underlying stream so far
    /// (header included).
    pub fn byte_offset(&self) -> u64 {
        self.reader.bytes
    }

    /// Promotes a record-level end-of-stream into the typed truncation error,
    /// pinning the record index and byte offset; other errors pass through.
    fn truncation(&self, e: TraceError) -> TraceError {
        match e {
            TraceError::UnexpectedEof { context } => TraceError::TruncatedRecord {
                record: self.produced,
                offset: self.reader.bytes,
                context,
            },
            other => other,
        }
    }

    // Kept free of error-path decoration: end-of-stream promotion to
    // `TruncatedRecord` happens once in `next()`, so the hot loop carries no
    // per-field closure captures.
    fn read_record(&mut self) -> Result<BranchRecord> {
        let flags: [u8; 1] = read_exact(&mut self.reader, "record flags")?;
        let flags = flags[0];
        let kind = kind_from_code(flags & KIND_MASK).ok_or(TraceError::UnknownKind {
            code: char::from(b'0' + (flags & KIND_MASK)),
        })?;
        let outcome = Outcome::from_bool(flags & FLAG_TAKEN != 0);
        let has_target = flags & FLAG_TARGET != 0;
        let delta = zigzag_decode(read_varint(&mut self.reader, "address delta")?);
        let addr = self.prev_addr.wrapping_add(delta as u64);
        self.prev_addr = addr;
        let mut record = BranchRecord::new(BranchAddr::new(addr), kind, outcome);
        if has_target {
            let target = read_varint(&mut self.reader, "target address")?;
            record = record.with_target(BranchAddr::new(target));
        }
        Ok(record)
    }
}

impl<R: Read> Iterator for BinaryRecordReader<R> {
    type Item = Result<BranchRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.produced >= self.declared {
            return None;
        }
        match self.read_record() {
            Ok(record) => {
                self.produced += 1;
                Some(Ok(record))
            }
            Err(e) => {
                // Promote end-of-stream to the typed truncation error here —
                // once per failure, not once per field — then fuse the
                // iterator: a decode error is not recoverable mid-stream,
                // since record boundaries are lost.
                let e = self.truncation(e);
                self.produced = self.declared;
                Some(Err(e))
            }
        }
    }
}

/// Reads an entire trace from a `BTRT` stream into memory.
///
/// # Errors
///
/// Fails on any decoding error or if the declared record count does not match
/// the number of records present.
pub fn read_trace<R: Read>(reader: &mut R) -> Result<Trace> {
    let stream = BinaryRecordReader::new(reader)?;
    let declared = stream.declared_count();
    let mut builder = TraceBuilder::with_metadata(stream.metadata().clone());
    // The declared count is untrusted: reserve at most a small head start
    // and let the vector grow with the records actually present.
    builder.reserve(declared.min(1 << 16) as usize);
    let mut actual = 0u64;
    for record in stream {
        builder.push(record?);
        actual += 1;
    }
    if actual != declared {
        return Err(TraceError::CountMismatch { declared, actual });
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new("gcc")
            .with_input_set("cccp.i")
            .with_seed(42);
        b.push(BranchRecord::conditional(
            BranchAddr::new(0x0040_0100),
            Outcome::Taken,
        ));
        b.push(
            BranchRecord::new(
                BranchAddr::new(0x0040_0090),
                BranchKind::Call,
                Outcome::Taken,
            )
            .with_target(BranchAddr::new(0x0041_0000)),
        );
        b.push(BranchRecord::conditional(
            BranchAddr::new(0x0040_0104),
            Outcome::NotTaken,
        ));
        b.build()
    }

    #[test]
    fn roundtrip_preserves_records_and_metadata() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.records(), trace.records());
        assert_eq!(back.metadata().benchmark, "gcc");
        assert_eq!(back.metadata().input_set, "cccp.i");
        assert_eq!(back.metadata().seed, Some(42));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = TraceBuilder::new("empty").build();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.metadata().benchmark, "empty");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOPExxxxxxxxxxxxxxxxxxxx".to_vec();
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf[4] = 9; // corrupt the version field
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion { found: 9 }));
    }

    #[test]
    fn truncation_inside_a_record_body_is_typed_with_offset() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let full_len = buf.len() as u64;
        buf.truncate(buf.len() - 2);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        match err {
            TraceError::TruncatedRecord { record, offset, .. } => {
                // The cut lands inside the third record (index 2), after the
                // decoder consumed every remaining byte.
                assert_eq!(record, 2);
                assert_eq!(offset, full_len - 2);
            }
            other => panic!("expected TruncatedRecord, got {other:?}"),
        }
    }

    #[test]
    fn truncation_between_flag_and_delta_is_typed() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        // Keep the header plus the first record's flag byte only: the delta
        // varint of record 0 is missing.
        let reader = BinaryRecordReader::new(buf.as_slice()).unwrap();
        let header_len = reader.byte_offset() as usize;
        buf.truncate(header_len + 1);
        let mut stream = BinaryRecordReader::new(buf.as_slice()).unwrap();
        let err = stream.next().unwrap().unwrap_err();
        match err {
            TraceError::TruncatedRecord {
                record,
                offset,
                context,
            } => {
                assert_eq!(record, 0);
                assert_eq!(offset, header_len as u64 + 1);
                assert_eq!(context, "address delta");
            }
            other => panic!("expected TruncatedRecord, got {other:?}"),
        }
        // The iterator is fused after the error.
        assert!(stream.next().is_none());
    }

    #[test]
    fn truncation_inside_the_header_stays_an_eof_error() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        // Cut inside the record-count field: no record boundary exists yet,
        // so the error stays at header level.
        buf.truncate(10);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(&err, TraceError::UnexpectedEof { context } if context == "record count"),
            "got {err:?}"
        );
    }

    #[test]
    fn truncation_inside_the_benchmark_name_is_contextual() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("writing to a Vec cannot fail");
        // Header prefix: magic (4) + version (4) + count (8) + bench_len (2)
        // = 18 bytes; "gcc" is 3 bytes, so cutting at 19 lands mid-name.
        buf.truncate(19);
        let err = read_trace(&mut buf.as_slice()).expect_err("truncated header must not decode");
        assert!(
            matches!(&err, TraceError::UnexpectedEof { context } if context == "benchmark name"),
            "got {err:?}"
        );
    }

    #[test]
    fn truncation_inside_the_input_name_is_contextual() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("writing to a Vec cannot fail");
        // 18 bytes of fixed header + "gcc" (3) + input_len (2) = 23 bytes;
        // "cccp.i" is 6 bytes, so any cut in (23, 29) lands mid-name.
        buf.truncate(25);
        let err = read_trace(&mut buf.as_slice()).expect_err("truncated header must not decode");
        assert!(
            matches!(&err, TraceError::UnexpectedEof { context } if context == "input name"),
            "got {err:?}"
        );
    }

    #[test]
    fn every_header_truncation_offset_yields_a_contextual_error() {
        // Sweep every proper prefix of the header: each cut must surface as
        // the typed contextual EOF, never a bare `TraceError::Io`.
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("writing to a Vec cannot fail");
        let header_len = BinaryRecordReader::new(buf.as_slice())
            .expect("intact header decodes")
            .byte_offset() as usize;
        for cut in 4..header_len {
            let mut short = buf.clone();
            short.truncate(cut);
            let err =
                read_trace(&mut short.as_slice()).expect_err("truncated header must not decode");
            assert!(
                matches!(err, TraceError::UnexpectedEof { .. }),
                "cut at {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn streaming_reader_yields_each_record() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let reader = BinaryRecordReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.declared_count(), 3);
        let records: Vec<_> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(records.as_slice(), trace.records());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX >> 1] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            let back = read_varint(&mut buf.as_slice(), "test").unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn encoding_is_compact_for_local_branches() {
        // 1000 branches in a tight loop should average well under 4 bytes each.
        let mut b = TraceBuilder::new("tight");
        for i in 0..1000u64 {
            b.push(BranchRecord::conditional(
                BranchAddr::new(0x0040_0000 + (i % 8) * 4),
                Outcome::from_bool(i % 3 == 0),
            ));
        }
        let trace = b.build();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert!(buf.len() < 4 * 1000, "encoded size {} too large", buf.len());
    }
}
