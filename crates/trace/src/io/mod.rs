//! Trace serialization: a compact binary format and a line-oriented text
//! format.
//!
//! * [`binary`] — the `BTRT` format: a small header (magic, version, record
//!   count, metadata) followed by per-record encodings that delta/varint
//!   encode branch addresses and pack kind + outcome + target presence into a
//!   single flag byte. It is the format used for large generated workloads.
//! * [`fast`] — the `BTRT` decoder: block refills and slice varints into
//!   bounded [`chunked::TraceChunk`]s of interned conditional columns.
//! * [`text`] — one record per line (`C 0x00400100 T`), intended for
//!   hand-written fixtures, debugging and interoperability with scripts.
//! * [`chunked`] — bounded-memory chunking of a record stream (text, or any
//!   record iterator) into the same [`chunked::TraceChunk`]s, for
//!   paper-scale traces that must never be materialised whole.
//!
//! `BTRT` decoding yields what every analysis reads — the conditional stream
//! with dense ids — so a `BTRT` round trip reproduces the trace's interning;
//! the text reader yields every record:
//!
//! ```
//! use btr_trace::{BranchAddr, BranchRecord, InternedTrace, Outcome, TraceBuilder};
//! use btr_trace::io::{binary, text, FastBtrtReader, TextRecordReader};
//!
//! let mut b = TraceBuilder::new("roundtrip");
//! b.push(BranchRecord::conditional(BranchAddr::new(0x400000), Outcome::Taken));
//! b.push(BranchRecord::conditional(BranchAddr::new(0x400008), Outcome::NotTaken));
//! let trace = b.build();
//!
//! let mut buf = Vec::new();
//! binary::write_trace(&mut buf, &trace)?;
//! let reader = FastBtrtReader::new(buf.as_slice(), 1024)?;
//! assert_eq!(reader.metadata(), trace.metadata());
//! assert_eq!(InternedTrace::from_chunks(reader)?, trace.intern());
//!
//! let mut textbuf = Vec::new();
//! text::write_trace(&mut textbuf, &trace)?;
//! let back = TextRecordReader::new(textbuf.as_slice()).collect::<btr_trace::Result<Vec<_>>>()?;
//! assert_eq!(back, trace.records());
//! # Ok::<(), btr_trace::TraceError>(())
//! ```

pub mod binary;
pub mod chunked;
pub mod fast;
pub mod text;

pub use binary::write_trace as write_binary;
pub use chunked::{ChunkStream, ChunkedTraceReader, TraceChunk, DEFAULT_CHUNK_RECORDS};
pub use fast::{read_interned_btrt, FastBtrtReader};
pub use text::{write_trace as write_text, TextRecordReader};
