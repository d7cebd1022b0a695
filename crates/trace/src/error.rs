//! Error type for trace serialization and validation.

use std::fmt;
use std::io;

/// Errors produced while reading, writing or validating branch traces.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O error from the reader or writer.
    Io(io::Error),
    /// The input did not start with the expected magic bytes.
    BadMagic {
        /// The bytes actually found at the start of the stream.
        found: [u8; 4],
    },
    /// The binary format version is not supported by this build.
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// The stream ended in the middle of a record or header.
    UnexpectedEof {
        /// Human-readable description of what was being decoded.
        context: String,
    },
    /// The stream ended in the middle of a record body: the header promised
    /// more records than the bytes that follow can supply.
    ///
    /// Unlike [`TraceError::UnexpectedEof`] (which covers header-level
    /// truncation, where no record boundary exists yet) this variant pins the
    /// failure to a record index and the byte offset the decoder had reached,
    /// so a corrupted multi-gigabyte capture can be diagnosed — and re-fetched
    /// from that offset — without replaying the whole stream.
    TruncatedRecord {
        /// Zero-based index of the record being decoded when bytes ran out.
        record: u64,
        /// Byte offset from the start of the stream reached by the decoder.
        offset: u64,
        /// Which field of the record was being decoded.
        context: String,
    },
    /// A text-format line could not be parsed.
    MalformedLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A record declared an unknown branch-kind code.
    UnknownKind {
        /// The offending code byte or mnemonic.
        code: char,
    },
    /// A declared record count does not match the number of records present.
    CountMismatch {
        /// Count from the header.
        declared: u64,
        /// Records actually decoded.
        actual: u64,
    },
    /// The stream introduced more distinct static conditional branches than
    /// its consumer budgeted for (the budget sizes the per-branch tables).
    StaticBranchBudget {
        /// The configured ceiling that was crossed.
        limit: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic { found } => {
                write!(f, "bad trace magic bytes {found:?}, expected \"BTRT\"")
            }
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace format version {found}")
            }
            TraceError::UnexpectedEof { context } => {
                write!(f, "unexpected end of trace stream while reading {context}")
            }
            TraceError::TruncatedRecord {
                record,
                offset,
                context,
            } => write!(
                f,
                "trace truncated at byte offset {offset}: record {record} cut mid-stream \
                 while reading {context}"
            ),
            TraceError::MalformedLine { line, reason } => {
                write!(f, "malformed trace text at line {line}: {reason}")
            }
            TraceError::UnknownKind { code } => {
                write!(f, "unknown branch kind code {code:?}")
            }
            TraceError::CountMismatch { declared, actual } => write!(
                f,
                "trace header declared {declared} records but {actual} were decoded"
            ),
            TraceError::StaticBranchBudget { limit } => {
                write!(f, "trace exceeds the static-branch budget of {limit}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(TraceError, &str)> = vec![
            (TraceError::BadMagic { found: *b"XXXX" }, "bad trace magic"),
            (TraceError::UnsupportedVersion { found: 99 }, "version 99"),
            (
                TraceError::UnexpectedEof {
                    context: "header".into(),
                },
                "header",
            ),
            (
                TraceError::TruncatedRecord {
                    record: 3,
                    offset: 41,
                    context: "address delta".into(),
                },
                "byte offset 41",
            ),
            (
                TraceError::MalformedLine {
                    line: 7,
                    reason: "missing outcome".into(),
                },
                "line 7",
            ),
            (TraceError::UnknownKind { code: 'z' }, "'z'"),
            (
                TraceError::CountMismatch {
                    declared: 10,
                    actual: 9,
                },
                "declared 10",
            ),
            (TraceError::StaticBranchBudget { limit: 16 }, "budget of 16"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn io_errors_are_wrapped_with_source() {
        let io_err = io::Error::other("disk on fire");
        let err = TraceError::from(io_err);
        assert!(err.to_string().contains("disk on fire"));
        assert!(err.source().is_some());
        // Non-IO variants have no source.
        assert!(TraceError::UnknownKind { code: 'q' }.source().is_none());
    }
}
