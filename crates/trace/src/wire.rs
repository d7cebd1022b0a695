//! Wire representations for the trace types shared across process
//! boundaries: stream headers ([`TraceMetadata`]) and decode errors
//! ([`TraceError`]), so a trace-ingesting service can report failures in the
//! same machine-readable formats it reports results in.

use crate::error::TraceError;
use crate::trace::TraceMetadata;
use btr_wire::{MapBuilder, Value, Wire, WireError};

impl Wire for TraceMetadata {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("benchmark", self.benchmark.as_str())
            .field("input_set", self.input_set.as_str())
            .field("description", self.description.as_str())
            .field(
                "seed",
                match self.seed {
                    Some(seed) => Value::U64(seed),
                    None => Value::Null,
                },
            )
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let seed = match value.get("seed")? {
            Value::Null => None,
            other => Some(other.as_u64()?),
        };
        Ok(TraceMetadata {
            benchmark: value.get("benchmark")?.as_str()?.to_string(),
            input_set: value.get("input_set")?.as_str()?.to_string(),
            description: value.get("description")?.as_str()?.to_string(),
            seed,
        })
    }
}

/// [`TraceError`] encodes as a map tagged by a `"kind"` field. Every variant
/// round-trips field-exactly except [`TraceError::Io`], which carries a live
/// [`std::io::Error`]: it encodes as its display message and decodes as an
/// [`std::io::ErrorKind::Other`] error wrapping that message.
impl Wire for TraceError {
    fn to_value(&self) -> Value {
        let b = MapBuilder::new();
        match self {
            TraceError::Io(e) => b.field("kind", "io").field("message", e.to_string()),
            TraceError::BadMagic { found } => b.field("kind", "bad_magic").field(
                "found",
                found.iter().map(|b| u64::from(*b)).collect::<Vec<u64>>(),
            ),
            TraceError::UnsupportedVersion { found } => b
                .field("kind", "unsupported_version")
                .field("found", u64::from(*found)),
            TraceError::UnexpectedEof { context } => b
                .field("kind", "unexpected_eof")
                .field("context", context.as_str()),
            TraceError::TruncatedRecord {
                record,
                offset,
                context,
            } => b
                .field("kind", "truncated_record")
                .field("record", *record)
                .field("offset", *offset)
                .field("context", context.as_str()),
            TraceError::MalformedLine { line, reason } => b
                .field("kind", "malformed_line")
                .field("line", *line)
                .field("reason", reason.as_str()),
            TraceError::UnknownKind { code } => b
                .field("kind", "unknown_kind")
                .field("code", code.to_string()),
            TraceError::CountMismatch { declared, actual } => b
                .field("kind", "count_mismatch")
                .field("declared", *declared)
                .field("actual", *actual),
            TraceError::StaticBranchBudget { limit } => b
                .field("kind", "static_branch_budget")
                .field("limit", *limit),
        }
        .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        Ok(match value.get("kind")?.as_str()? {
            "io" => TraceError::Io(std::io::Error::other(
                value.get("message")?.as_str()?.to_string(),
            )),
            "bad_magic" => {
                let bytes = value.get("found")?.as_u64_seq()?;
                let found: [u8; 4] = bytes
                    .iter()
                    .map(|b| u8::try_from(*b))
                    .collect::<Result<Vec<u8>, _>>()
                    .ok()
                    .and_then(|v| v.try_into().ok())
                    .ok_or_else(|| WireError::schema("bad_magic wants exactly 4 bytes"))?;
                TraceError::BadMagic { found }
            }
            "unsupported_version" => TraceError::UnsupportedVersion {
                found: u32::try_from(value.get("found")?.as_u64()?)
                    .map_err(|_| WireError::schema("version exceeds u32"))?,
            },
            "unexpected_eof" => TraceError::UnexpectedEof {
                context: value.get("context")?.as_str()?.to_string(),
            },
            "truncated_record" => TraceError::TruncatedRecord {
                record: value.get("record")?.as_u64()?,
                offset: value.get("offset")?.as_u64()?,
                context: value.get("context")?.as_str()?.to_string(),
            },
            "malformed_line" => TraceError::MalformedLine {
                line: value.get("line")?.as_u64()? as usize,
                reason: value.get("reason")?.as_str()?.to_string(),
            },
            "unknown_kind" => {
                let code = value.get("code")?.as_str()?;
                let mut chars = code.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => TraceError::UnknownKind { code: c },
                    _ => {
                        return Err(WireError::schema(format!(
                            "unknown_kind code must be one character, got {code:?}"
                        )))
                    }
                }
            }
            "count_mismatch" => TraceError::CountMismatch {
                declared: value.get("declared")?.as_u64()?,
                actual: value.get("actual")?.as_u64()?,
            },
            "static_branch_budget" => TraceError::StaticBranchBudget {
                limit: value.get("limit")?.as_u64()?,
            },
            other => {
                return Err(WireError::schema(format!(
                    "unknown trace error kind {other:?}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_roundtrips_with_and_without_seed() {
        for seed in [None, Some(42u64), Some(u64::MAX)] {
            let meta = TraceMetadata {
                benchmark: "gcc".into(),
                input_set: "cccp.i".into(),
                description: "regression\nnotes".into(),
                seed,
            };
            assert_eq!(
                TraceMetadata::from_json(&meta.to_json().unwrap()).unwrap(),
                meta
            );
            assert_eq!(TraceMetadata::from_btrw(&meta.to_btrw()).unwrap(), meta);
        }
    }

    #[test]
    fn every_error_variant_roundtrips_through_both_codecs() {
        let errors = vec![
            TraceError::Io(std::io::Error::other("disk on fire")),
            TraceError::BadMagic { found: *b"NOPE" },
            TraceError::UnsupportedVersion { found: 9 },
            TraceError::UnexpectedEof {
                context: "record count".into(),
            },
            TraceError::TruncatedRecord {
                record: 17,
                offset: 0xdead_beef,
                context: "address delta".into(),
            },
            TraceError::MalformedLine {
                line: 3,
                reason: "what is a florp".into(),
            },
            TraceError::UnknownKind { code: 'z' },
            TraceError::CountMismatch {
                declared: 10,
                actual: 7,
            },
            TraceError::StaticBranchBudget { limit: 16 },
        ];
        for err in errors {
            let via_json = TraceError::from_json(&err.to_json().unwrap()).unwrap();
            let via_btrw = TraceError::from_btrw(&err.to_btrw()).unwrap();
            // TraceError cannot derive PartialEq (io::Error), so compare the
            // Debug views, which cover every field.
            assert_eq!(format!("{via_json:?}"), format!("{err:?}"));
            assert_eq!(format!("{via_btrw:?}"), format!("{err:?}"));
        }
    }

    #[test]
    fn io_errors_keep_their_message_across_the_wire() {
        let err = TraceError::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            "locked",
        ));
        let back = TraceError::from_json(&err.to_json().unwrap()).unwrap();
        // The kind is not preserved (documented), the message is.
        assert!(back.to_string().contains("locked"));
    }

    #[test]
    fn malformed_error_values_are_rejected() {
        let bad_kind = MapBuilder::new().field("kind", "florp").build();
        assert!(TraceError::from_value(&bad_kind).is_err());
        let bad_magic = MapBuilder::new()
            .field("kind", "bad_magic")
            .field("found", vec![1u64, 2])
            .build();
        assert!(TraceError::from_value(&bad_magic).is_err());
        let wide_byte = MapBuilder::new()
            .field("kind", "bad_magic")
            .field("found", vec![1u64, 2, 3, 999])
            .build();
        assert!(TraceError::from_value(&wide_byte).is_err());
        let long_code = MapBuilder::new()
            .field("kind", "unknown_kind")
            .field("code", "zz")
            .build();
        assert!(TraceError::from_value(&long_code).is_err());
    }
}
