//! The reference `BTRT` decoder: a per-record reader over any [`Read`], kept
//! as the oracle the production block decoder ([`btr_trace::FastBtrtReader`])
//! is checked against.
//!
//! It follows the format spec in `src/io/binary.rs` one byte at a time, with
//! its own header parser and its own varint and zig-zag decoding, so it
//! shares no decode code with the path it checks. The equivalence, golden
//! and streamed-vs-eager suites compare the fast path's chunks, interned ids
//! and typed errors (variant, record index, byte offset, context) against
//! what this reader reports for the same bytes. The `decode_fast` bench
//! times it as its `slow/` row, and `streaming_throughput` as the decoder of
//! every row.
//!
//! Test files load it with `mod support;`; benches include this file
//! directly with `#[path]`.

// Every includer uses a different subset of this module.
#![allow(dead_code)]

use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, ChunkedTraceReader, Outcome, Result, Trace, TraceBuilder,
    TraceError, TraceMetadata,
};
use std::io::Read;

const MAGIC: [u8; 4] = *b"BTRT";
const VERSION: u32 = 1;

/// A [`Read`] adapter counting the bytes consumed so far, so errors can
/// report the stream offset they occurred at.
#[derive(Debug)]
struct Counting<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// Fills `buf` exactly; running out of bytes is the contextual
/// [`TraceError::UnexpectedEof`].
fn fill<R: Read>(r: &mut R, buf: &mut [u8], context: &str) -> Result<()> {
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

fn read_array<R: Read, const N: usize>(r: &mut R, context: &str) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    fill(r, &mut buf, context)?;
    Ok(buf)
}

/// A `u16` length followed by that many name bytes (lossy UTF-8).
fn read_name<R: Read>(r: &mut R, len_context: &str, name_context: &str) -> Result<String> {
    let len = u16::from_le_bytes(read_array(r, len_context)?);
    let mut bytes = vec![0u8; usize::from(len)];
    fill(r, &mut bytes, name_context)?;
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

/// Parses the header: magic, version, declared record count, benchmark and
/// input names, and the optional seed (present only when its flag is 1).
fn read_header<R: Read>(r: &mut R) -> Result<(TraceMetadata, u64)> {
    let magic: [u8; 4] = read_array(r, "magic")?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(read_array(r, "version")?);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion { found: version });
    }
    let declared = u64::from_le_bytes(read_array(r, "record count")?);
    let benchmark = read_name(r, "benchmark length", "benchmark name")?;
    let input_set = read_name(r, "input length", "input name")?;
    let [seed_flag] = read_array(r, "seed flag")?;
    let seed = if seed_flag == 1 {
        Some(u64::from_le_bytes(read_array(r, "seed")?))
    } else {
        None
    };
    let metadata = TraceMetadata {
        benchmark,
        input_set,
        description: String::new(),
        seed,
    };
    Ok((metadata, declared))
}

/// One byte from one `read` call (retrying `ErrorKind::Interrupted`);
/// running out of bytes is the contextual [`TraceError::UnexpectedEof`].
fn read_byte<R: Read>(r: &mut R, context: &str) -> Result<u8> {
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                return Err(TraceError::UnexpectedEof {
                    context: context.into(),
                })
            }
            Ok(_) => return Ok(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceError::Io(e)),
        }
    }
}

/// A canonicality violation, worded as the wire crate words it.
fn malformed(reason: String) -> TraceError {
    TraceError::MalformedLine {
        line: 0,
        reason: btr_wire::WireError::schema(reason).to_string(),
    }
}

/// One canonical LEB128 varint, one `read` per byte: at most 64 bits of
/// payload (a tenth byte may carry only bit 63) and no trailing zero byte.
fn read_varint<R: Read>(r: &mut R, context: &str) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = read_byte(r, context)?;
        let payload = u64::from(byte & 0x7f);
        if shift == 63 && payload > 1 {
            return Err(malformed(format!(
                "varint overflows 64 bits while reading {context}"
            )));
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            if payload == 0 && shift > 0 {
                return Err(malformed(format!(
                    "non-minimal varint (trailing zero byte) while reading {context}"
                )));
            }
            return Ok(value);
        }
        shift += 7;
        if shift >= 64 {
            return Err(malformed(format!(
                "varint longer than 64 bits while reading {context}"
            )));
        }
    }
}

fn kind_from_code(code: u8) -> Option<BranchKind> {
    Some(match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Unconditional,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        4 => BranchKind::Indirect,
        _ => return None,
    })
}

/// Per-record `BTRT` reader yielding one [`BranchRecord`] at a time. It
/// fuses after the first error: record boundaries are lost past it.
#[derive(Debug)]
pub struct RecordReader<R> {
    reader: Counting<R>,
    metadata: TraceMetadata,
    declared: u64,
    produced: u64,
    prev_addr: u64,
}

impl<R: Read> RecordReader<R> {
    /// Reads and validates the header.
    pub fn new(reader: R) -> Result<Self> {
        let mut reader = Counting {
            inner: reader,
            bytes: 0,
        };
        let (metadata, declared) = read_header(&mut reader)?;
        Ok(RecordReader {
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

    /// Bytes consumed from the stream so far, header included.
    pub fn byte_offset(&self) -> u64 {
        self.reader.bytes
    }

    fn read_record(&mut self) -> Result<BranchRecord> {
        let [flags] = read_array(&mut self.reader, "record flags")?;
        let code = flags & 0x07;
        let kind = kind_from_code(code).ok_or(TraceError::UnknownKind {
            code: char::from(b'0' + code),
        })?;
        let outcome = Outcome::from_bool(flags & (1 << 3) != 0);
        let zigzag = read_varint(&mut self.reader, "address delta")?;
        let delta = ((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64);
        let addr = self.prev_addr.wrapping_add(delta as u64);
        self.prev_addr = addr;
        let mut record = BranchRecord::new(BranchAddr::new(addr), kind, outcome);
        if flags & (1 << 4) != 0 {
            let target = read_varint(&mut self.reader, "target address")?;
            record = record.with_target(BranchAddr::new(target));
        }
        Ok(record)
    }
}

impl<R: Read> Iterator for RecordReader<R> {
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
                // Running out of bytes inside a record body pins the record
                // index and the offset reached.
                let e = match e {
                    TraceError::UnexpectedEof { context } => TraceError::TruncatedRecord {
                        record: self.produced,
                        offset: self.reader.bytes,
                        context,
                    },
                    other => other,
                };
                self.produced = self.declared;
                Some(Err(e))
            }
        }
    }
}

/// Reads a whole `BTRT` stream into a [`Trace`].
pub fn read_trace<R: Read>(reader: R) -> Result<Trace> {
    let records = RecordReader::new(reader)?;
    let declared = records.declared_count();
    let mut builder = TraceBuilder::with_metadata(records.metadata().clone());
    // The declared count is untrusted: reserve at most a small head start.
    builder.reserve(declared.min(1 << 16) as usize);
    for record in records {
        builder.push(record?);
    }
    Ok(builder.build())
}

/// The reference chunked decode: [`RecordReader`] behind
/// [`ChunkedTraceReader::from_records`], with the header's declared count.
pub fn chunked<R: Read>(
    reader: R,
    chunk_records: usize,
) -> Result<ChunkedTraceReader<RecordReader<R>>> {
    let records = RecordReader::new(reader)?;
    let metadata = records.metadata().clone();
    let declared = Some(records.declared_count());
    Ok(ChunkedTraceReader::from_records(
        metadata,
        declared,
        records,
        chunk_records,
    ))
}
