//! Trace serialization: a compact binary format and a line-oriented text
//! format.
//!
//! * [`binary`] — the `BTRT` format: a small header (magic, version, record
//!   count, metadata) followed by per-record encodings that delta/varint
//!   encode branch addresses and pack kind + outcome + target presence into a
//!   single flag byte. It is the format used for large generated workloads.
//! * [`text`] — one record per line (`C 0x00400100 T`), intended for
//!   hand-written fixtures, debugging and interoperability with scripts.
//! * [`chunked`] — bounded-memory decoding of either format into fixed-size
//!   [`chunked::TraceChunk`]s with incrementally interned conditional
//!   records, for paper-scale traces that must never be materialised whole.
//!
//! Both formats round-trip exactly:
//!
//! ```
//! use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceBuilder};
//! use btr_trace::io::{binary, text};
//!
//! let mut b = TraceBuilder::new("roundtrip");
//! b.push(BranchRecord::conditional(BranchAddr::new(0x400000), Outcome::Taken));
//! b.push(BranchRecord::conditional(BranchAddr::new(0x400008), Outcome::NotTaken));
//! let trace = b.build();
//!
//! let mut buf = Vec::new();
//! binary::write_trace(&mut buf, &trace)?;
//! let back = binary::read_trace(&mut buf.as_slice())?;
//! assert_eq!(back.records(), trace.records());
//!
//! let mut textbuf = Vec::new();
//! text::write_trace(&mut textbuf, &trace)?;
//! let back = text::read_trace(&mut textbuf.as_slice())?;
//! assert_eq!(back.records(), trace.records());
//! # Ok::<(), btr_trace::TraceError>(())
//! ```

pub mod binary;
pub mod chunked;
pub mod fast;
pub mod text;

pub use binary::{read_trace as read_binary, write_trace as write_binary, BinaryRecordReader};
pub use chunked::{ChunkStream, ChunkedTraceReader, TraceChunk, DEFAULT_CHUNK_RECORDS};
pub use fast::{read_interned_btrt, FastBtrtReader};
pub use text::{read_trace as read_text, write_trace as write_text, TextRecordReader};
