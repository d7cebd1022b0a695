//! The self-describing value tree both codecs operate on.
//!
//! [`Value`] plays the role serde's data model plays for real serde: every
//! [`crate::Wire`] type lowers itself to a `Value` and rebuilds itself from
//! one, and the JSON and `BTRW` codecs translate between `Value` trees and
//! bytes. Keeping the model explicit (instead of trait-driven visitors) is
//! what lets this crate stay dependency-free.
//!
//! ## Numbers
//!
//! The model keeps unsigned integers, signed integers and IEEE 754 doubles
//! apart so 64-bit counters survive bit-exactly (JSON readers that funnel
//! every number through `f64` corrupt counts above 2⁵³). JSON text does not
//! carry that distinction, so the JSON parser classifies tokens
//! (unsigned-looking → [`Value::U64`], negative → [`Value::I64`], fractional
//! or exponent → [`Value::F64`]) and the typed accessors ([`Value::as_u64`],
//! [`Value::as_f64`]) accept any numeric variant that represents the
//! requested value exactly.
//!
//! ## Dense unsigned sequences
//!
//! [`Value::U64s`] is a specialised list of unsigned integers — the shape of
//! every column this workspace persists (sorted branch addresses, execution
//! counts, hit counters). JSON renders it as a plain array; the `BTRW` codec
//! gives it a dedicated tag encoded as zig-zag deltas between consecutive
//! elements, which compresses sorted address columns to a couple of bytes per
//! entry (the same trick `BTRT` traces use for record addresses).

use crate::error::WireError;

/// A self-describing wire value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (`null` in JSON); encodes `None`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned 64-bit integer.
    U64(u64),
    /// A signed 64-bit integer (used only for genuinely negative numbers;
    /// non-negative integers normalise to [`Value::U64`]).
    I64(i64),
    /// An IEEE 754 double. Round-trips bit-exactly through `BTRW` always and
    /// through JSON for every finite value (non-finite floats are rejected by
    /// the JSON writer, which has no literal for them).
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// A heterogeneous ordered list.
    List(Vec<Value>),
    /// An ordered map with string keys. Order is preserved by both codecs, so
    /// canonical encodings are byte-stable.
    Map(Vec<(String, Value)>),
    /// A dense unsigned-integer sequence (see the module docs).
    U64s(Vec<u64>),
}

impl Value {
    /// A short name for the value's kind, used in schema error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) => "u64",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Map(_) => "map",
            Value::U64s(_) => "u64-sequence",
        }
    }

    /// Wraps an optional float, mapping `None` to [`Value::Null`].
    pub fn opt_f64(v: Option<f64>) -> Value {
        match v {
            Some(f) => Value::F64(f),
            None => Value::Null,
        }
    }

    /// Reads this value as a `bool`.
    ///
    /// # Errors
    ///
    /// Fails unless the value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Result<bool, WireError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch("bool", other)),
        }
    }

    /// Reads this value as a `u64`, accepting any integer variant that
    /// represents a non-negative value.
    ///
    /// # Errors
    ///
    /// Fails on non-integers and on negative integers.
    pub fn as_u64(&self) -> Result<u64, WireError> {
        match self {
            Value::U64(v) => Ok(*v),
            Value::I64(v) if *v >= 0 => Ok(*v as u64),
            other => Err(mismatch("u64", other)),
        }
    }

    /// Reads this value as an `f64`. Integer variants convert when exactly
    /// representable (|v| ≤ 2⁵³), so a float that happened to serialise as an
    /// integer-looking JSON token converts back losslessly.
    ///
    /// # Errors
    ///
    /// Fails on non-numbers and on integers a double cannot represent
    /// exactly.
    pub fn as_f64(&self) -> Result<f64, WireError> {
        const EXACT: u64 = 1 << 53;
        match self {
            Value::F64(v) => Ok(*v),
            Value::U64(v) if *v <= EXACT => Ok(*v as f64),
            Value::I64(v) if v.unsigned_abs() <= EXACT => Ok(*v as f64),
            other => Err(mismatch("f64", other)),
        }
    }

    /// Reads this value as an optional `f64`, mapping [`Value::Null`] to
    /// `None`.
    ///
    /// # Errors
    ///
    /// Fails on anything [`Value::as_f64`] rejects, `Null` excepted.
    pub fn as_opt_f64(&self) -> Result<Option<f64>, WireError> {
        match self {
            Value::Null => Ok(None),
            other => other.as_f64().map(Some),
        }
    }

    /// Reads this value as a string slice.
    ///
    /// # Errors
    ///
    /// Fails unless the value is a [`Value::Str`].
    pub fn as_str(&self) -> Result<&str, WireError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(mismatch("string", other)),
        }
    }

    /// Reads this value as a list slice. A [`Value::U64s`] sequence does
    /// *not* coerce here — use [`Value::as_u64_seq`] for numeric columns.
    ///
    /// # Errors
    ///
    /// Fails unless the value is a [`Value::List`].
    pub fn as_list(&self) -> Result<&[Value], WireError> {
        match self {
            Value::List(items) => Ok(items),
            other => Err(mismatch("list", other)),
        }
    }

    /// Reads this value as a sequence of `u64`, accepting either the dense
    /// [`Value::U64s`] form (produced by the `BTRW` decoder) or a
    /// [`Value::List`] of integers (produced by the JSON parser, which cannot
    /// tell the two shapes apart).
    ///
    /// # Errors
    ///
    /// Fails if the value is not a sequence or any element is not a
    /// non-negative integer.
    pub fn as_u64_seq(&self) -> Result<Vec<u64>, WireError> {
        match self {
            Value::U64s(items) => Ok(items.clone()),
            Value::List(items) => items.iter().map(Value::as_u64).collect(),
            other => Err(mismatch("u64-sequence", other)),
        }
    }

    /// Reads this value as a map (ordered key/value pairs).
    ///
    /// # Errors
    ///
    /// Fails unless the value is a [`Value::Map`].
    pub fn as_map(&self) -> Result<&[(String, Value)], WireError> {
        match self {
            Value::Map(entries) => Ok(entries),
            other => Err(mismatch("map", other)),
        }
    }

    /// Looks up a field in a map value.
    ///
    /// # Errors
    ///
    /// Fails if the value is not a map or the key is absent.
    pub fn get(&self, key: &str) -> Result<&Value, WireError> {
        self.get_opt(key)?
            .ok_or_else(|| WireError::schema(format!("missing field {key:?}")))
    }

    /// Looks up an optional field in a map value (`Ok(None)` when absent).
    ///
    /// # Errors
    ///
    /// Fails if the value is not a map.
    pub fn get_opt(&self, key: &str) -> Result<Option<&Value>, WireError> {
        let entries = self.as_map()?;
        Ok(entries.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

fn mismatch(wanted: &str, found: &Value) -> WireError {
    WireError::schema(format!("expected {wanted}, found {}", found.kind()))
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Value::U64(v as u64)
        } else {
            Value::I64(v)
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

impl From<Vec<u64>> for Value {
    fn from(v: Vec<u64>) -> Self {
        Value::U64s(v)
    }
}

/// Builds a [`Value::Map`] fluently, preserving field order.
///
/// ```
/// use btr_wire::{MapBuilder, Value};
///
/// let v = MapBuilder::new()
///     .field("name", "gcc")
///     .field("count", 42u64)
///     .build();
/// assert_eq!(v.get("count").unwrap().as_u64().unwrap(), 42);
/// ```
#[derive(Debug, Default)]
pub struct MapBuilder {
    entries: Vec<(String, Value)>,
}

impl MapBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        MapBuilder::default()
    }

    /// Appends one field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.entries.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the map.
    pub fn build(self) -> Value {
        Value::Map(self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_accept_exact_cross_variant_numbers() {
        assert_eq!(Value::U64(7).as_u64().expect("u64 reads as u64"), 7);
        assert_eq!(Value::I64(7).as_u64().expect("exact i64 reads as u64"), 7);
        assert!(Value::I64(-1).as_u64().is_err());
        assert_eq!(
            Value::U64(5).as_f64().expect("exact integer reads as f64"),
            5.0
        );
        assert!(Value::U64(u64::MAX).as_f64().is_err());
        assert_eq!(Value::F64(2.5).as_f64().expect("f64 reads as f64"), 2.5);
        assert!(Value::Str("x".into()).as_f64().is_err());
    }

    #[test]
    fn option_floats_map_null_to_none() {
        assert_eq!(Value::opt_f64(None), Value::Null);
        assert_eq!(
            Value::Null
                .as_opt_f64()
                .expect("null reads as optional f64"),
            None
        );
        assert_eq!(
            Value::opt_f64(Some(0.5))
                .as_opt_f64()
                .expect("float reads as optional f64"),
            Some(0.5)
        );
    }

    #[test]
    fn u64_sequences_read_from_both_shapes() {
        let dense = Value::U64s(vec![3, 1, 4]);
        let sparse = Value::List(vec![Value::U64(3), Value::U64(1), Value::U64(4)]);
        assert_eq!(
            dense.as_u64_seq().expect("dense sequence reads"),
            vec![3, 1, 4]
        );
        assert_eq!(
            sparse.as_u64_seq().expect("sparse list reads as sequence"),
            vec![3, 1, 4]
        );
        assert!(Value::List(vec![Value::Str("x".into())])
            .as_u64_seq()
            .is_err());
        assert!(dense.as_list().is_err(), "U64s is not a generic list");
    }

    #[test]
    fn map_lookup_reports_missing_fields() {
        let v = MapBuilder::new().field("a", 1u64).build();
        assert_eq!(
            v.get("a")
                .expect("field a is present")
                .as_u64()
                .expect("field a reads as u64"),
            1
        );
        assert!(v.get("b").unwrap_err().to_string().contains("\"b\""));
        assert_eq!(v.get_opt("b").expect("optional lookup succeeds"), None);
        assert!(Value::Null.get("a").is_err());
    }

    #[test]
    fn from_impls_normalise_integers() {
        assert_eq!(Value::from(5i64), Value::U64(5));
        assert_eq!(Value::from(-5i64), Value::I64(-5));
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(vec![1u64, 2]), Value::U64s(vec![1, 2]));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }

    #[test]
    fn kind_names_every_variant() {
        let all = [
            Value::Null,
            Value::Bool(true),
            Value::U64(0),
            Value::I64(-1),
            Value::F64(0.0),
            Value::Str(String::new()),
            Value::List(vec![]),
            Value::Map(vec![]),
            Value::U64s(vec![]),
        ];
        let kinds: Vec<&str> = all.iter().map(Value::kind).collect();
        assert_eq!(kinds.len(), 9);
        assert!(kinds.contains(&"u64-sequence"));
    }
}
