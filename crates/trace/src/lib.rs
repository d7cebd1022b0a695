//! # btr-trace
//!
//! Branch trace substrate for the Branch Transition Rate (BTR) reproduction.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace: individual branch execution [`record::BranchRecord`]s, in-memory
//! [`trace::Trace`]s, a compact binary and a line-oriented text serialization
//! format ([`io`]), and raw per-address statistics accumulation ([`stats`]).
//!
//! The original paper instrumented SimpleScalar's `sim-bpred` to observe the
//! dynamic stream of *conditional* branch outcomes. Everything the paper
//! measures — taken rate, transition rate, per-class predictor miss rates — is
//! a pure function of that stream, so a faithful trace model is the foundation
//! of the whole reproduction.
//!
//! ## Quick example
//!
//! ```
//! use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceBuilder, TraceStats};
//!
//! let mut builder = TraceBuilder::new("demo");
//! let addr = BranchAddr::new(0x4000_1000);
//! for i in 0..8u64 {
//!     builder.push(BranchRecord::conditional(addr, Outcome::from_bool(i % 2 == 0)));
//! }
//! let trace: Trace = builder.build();
//! assert_eq!(trace.len(), 8);
//! let stats = TraceStats::from_interned(&trace.intern());
//! assert_eq!(stats.total_conditional(), 8);
//! assert_eq!(stats.addr(addr).map(|s| s.transitions()), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod interned;
pub mod io;
pub mod record;
pub mod stats;
pub mod trace;
pub mod wire;

pub use error::TraceError;
pub use interned::{ConditionalColumns, ConditionalView, IncrementalInterner, InternedTrace};
pub use io::chunked::{ChunkStream, ChunkedTraceReader, TraceChunk, DEFAULT_CHUNK_RECORDS};
pub use io::fast::{read_interned_btrt, FastBtrtReader};
pub use record::{BranchAddr, BranchKind, BranchRecord, Outcome};
pub use stats::{AddrStats, DenseTraceStats, TraceStats};
pub use trace::{Trace, TraceBuilder, TraceMetadata};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, TraceError>;
