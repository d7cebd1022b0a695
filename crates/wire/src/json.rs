//! The self-describing JSON codec.
//!
//! ## Canonical form
//!
//! [`to_string`] emits *canonical* JSON: compact separators (`,` and `:`
//! with no whitespace), map fields in insertion order, strings with the
//! minimal escape set (`"`, `\`, the C0 shorthands `\b \t \n \f \r`, and
//! `\u00XX` for the remaining control characters), integers as plain decimal
//! digits, and floats via Rust's shortest round-trip formatting (always
//! containing a `.` or an exponent, so they re-parse as floats). Two equal
//! value trees therefore always serialise to identical bytes, which is what
//! lets golden fixtures assert byte-identical re-encodes.
//!
//! Numbers are written straight into the output without allocating:
//! the writer appends bytes and checks the UTF-8 once at the end, integers
//! go two digits at a time through a stack buffer, and floats are formatted
//! in place. A sweep reply carries one integer per branch per column per
//! history, so a per-number `String` would dominate its encoding.
//!
//! [`to_string_pretty`] is the same encoding with two-space indentation, for
//! human-facing artifacts; it parses back identically.
//!
//! ## Exactness
//!
//! * Integers round-trip bit-exactly across the full `u64`/`i64` range
//!   (digits are never routed through a double).
//! * Finite floats round-trip bit-exactly: the writer uses shortest
//!   round-trip formatting and the parser defers to `str::parse::<f64>`,
//!   which is correctly rounded. Non-finite floats have no JSON literal and
//!   are rejected with [`WireError::Unrepresentable`].
//!
//! ## What the text cannot carry
//!
//! JSON has one number syntax and one array syntax, so parsing cannot
//! distinguish [`Value::U64s`] from a list of integers, nor a non-negative
//! [`Value::I64`] from a [`Value::U64`]. The parser normalises: non-negative
//! integers become `U64`, arrays become `List`. Typed decoders are
//! insensitive to this because the [`Value`] accessors accept every exact
//! representation (see `value.rs`); `BTRW` preserves the distinction
//! natively.

use crate::error::WireError;
use crate::value::Value;
use std::io::Write as _;

/// Maximum nesting depth the parser accepts, guarding against stack
/// exhaustion on adversarial input.
pub const MAX_DEPTH: usize = 128;

/// Serialises a value as canonical (compact) JSON.
///
/// # Errors
///
/// Fails only on non-finite floats, which JSON cannot represent.
pub fn to_string(value: &Value) -> Result<String, WireError> {
    encode(value, None)
}

/// Serialises a value as two-space-indented JSON (a trailing newline is not
/// appended). Parses back to the same value as [`to_string`].
///
/// # Errors
///
/// Fails only on non-finite floats, which JSON cannot represent.
pub fn to_string_pretty(value: &Value) -> Result<String, WireError> {
    encode(value, Some(2))
}

/// Writes into bytes, so a number or separator is a plain byte append, and
/// checks the UTF-8 once at the end.
fn encode(value: &Value, indent: Option<usize>) -> Result<String, WireError> {
    let mut out = Vec::new();
    write_value(&mut out, value, indent, 0)?;
    Ok(String::from_utf8(out).expect("the writer emits string bytes verbatim and ASCII otherwise"))
}

fn write_value(
    out: &mut Vec<u8>,
    value: &Value,
    indent: Option<usize>,
    level: usize,
) -> Result<(), WireError> {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::U64(v) => write_u64(out, *v),
        Value::I64(v) => write_i64(out, *v),
        Value::F64(v) => write_f64(out, *v)?,
        Value::Str(s) => write_string(out, s),
        Value::U64s(items) => {
            write_seq(out, items.len(), indent, level, |out, i, _, _| {
                write_u64(out, items[i]);
                Ok(())
            })?;
        }
        Value::List(items) => {
            write_seq(out, items.len(), indent, level, |out, i, ind, lvl| {
                write_value(out, &items[i], ind, lvl)
            })?;
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.extend_from_slice(b"{}");
                return Ok(());
            }
            out.push(b'{');
            for (i, (key, field)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(b':');
                if indent.is_some() {
                    out.push(b' ');
                }
                write_value(out, field, indent, level + 1)?;
            }
            newline_indent(out, indent, level);
            out.push(b'}');
        }
    }
    Ok(())
}

fn write_seq(
    out: &mut Vec<u8>,
    len: usize,
    indent: Option<usize>,
    level: usize,
    mut write_item: impl FnMut(&mut Vec<u8>, usize, Option<usize>, usize) -> Result<(), WireError>,
) -> Result<(), WireError> {
    if len == 0 {
        out.extend_from_slice(b"[]");
        return Ok(());
    }
    out.push(b'[');
    for i in 0..len {
        if i > 0 {
            out.push(b',');
        }
        newline_indent(out, indent, level + 1);
        write_item(out, i, indent, level + 1)?;
    }
    newline_indent(out, indent, level);
    out.push(b']');
    Ok(())
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        out.resize(out.len() + width * level, b' ');
    }
}

/// The two-digit decimal form of every `n` in `0..100`, at `2n..2n + 2`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, filling a stack buffer from the right two digits
/// at a time (`u64::MAX` has 20 digits).
fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[pos..]);
}

fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    // `unsigned_abs` is exact for `i64::MIN`, whose magnitude has no `i64`.
    write_u64(out, v.unsigned_abs());
}

/// Appends a finite float so it re-parses bit-exactly *as a float*: Rust's
/// shortest round-trip representation, with `.0` appended when it would
/// otherwise look like an integer token.
fn write_f64(out: &mut Vec<u8>, v: f64) -> Result<(), WireError> {
    if !v.is_finite() {
        return Err(WireError::Unrepresentable {
            reason: format!("non-finite float {v} has no JSON representation"),
        });
    }
    let start = out.len();
    write!(out, "{v}").expect("writing into a Vec cannot fail");
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
    Ok(())
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    // Every escape is ASCII and every byte of a multi-byte UTF-8 sequence is
    // at least 0x80, so a byte walk copies non-ASCII text through intact.
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            0x08 => out.extend_from_slice(b"\\b"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b'\n' => out.extend_from_slice(b"\\n"),
            0x0c => out.extend_from_slice(b"\\f"),
            b'\r' => out.extend_from_slice(b"\\r"),
            0..=0x1f => write!(out, "\\u{b:04x}").expect("writing into a Vec cannot fail"),
            _ => out.push(b),
        }
    }
    out.push(b'"');
}

/// Parses one JSON document into a [`Value`]. Trailing whitespace is
/// allowed; trailing garbage is an error.
///
/// # Errors
///
/// Fails with [`WireError::Syntax`] on malformed input, inputs nested deeper
/// than [`MAX_DEPTH`], or bytes past the end of the first document.
pub fn from_str(text: &str) -> Result<Value, WireError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after the JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> WireError {
        WireError::Syntax {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), WireError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", char::from(byte))))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_list(depth),
            Some(b'{') => self.parse_map(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(format!("unexpected byte {:?}", char::from(b)))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &'static str, value: Value) -> Result<Value, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn parse_list(&mut self, depth: usize) -> Result<Value, WireError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(self.err("expected ',' or ']' in list")),
            }
        }
    }

    fn parse_map(&mut self, depth: usize) -> Result<Value, WireError> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in map")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, WireError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a maximal run of plain (unescaped, non-control) bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing on byte positions found by
            // scanning ASCII delimiters is always on a char boundary.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("valid UTF-8"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, WireError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b't' => '\t',
            b'n' => '\n',
            b'f' => '\u{000c}',
            b'r' => '\r',
            b'u' => {
                let first = self.parse_hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let second = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&second) {
                            return Err(self.err("high surrogate not followed by low surrogate"));
                        }
                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&first) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    first
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            other => return Err(self.err(format!("invalid escape {:?}", char::from(other)))),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, WireError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, WireError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut fractional = false;
        // Integer part.
        self.consume_digits("number")?;
        // Fraction.
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            self.consume_digits("fraction")?;
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            self.consume_digits("exponent")?;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number token");
        if !fractional {
            // Integer token: keep full 64-bit precision when it fits,
            // falling back to f64 (with rounding) for wider literals.
            if negative {
                if let Ok(v) = token.parse::<i64>() {
                    return Ok(if v >= 0 {
                        Value::U64(v as u64)
                    } else {
                        Value::I64(v)
                    });
                }
            } else if let Ok(v) = token.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        match token.parse::<f64>() {
            // `str::parse` maps out-of-range literals (e.g. 1e999) to
            // infinity; accepting that would admit a value the writer
            // refuses to re-encode, so reject the token instead. Underflow
            // to zero is fine (it stays a representable finite value).
            Ok(v) if v.is_finite() => Ok(Value::F64(v)),
            Ok(_) => Err(self.err(format!("number token {token:?} overflows f64"))),
            Err(_) => Err(self.err(format!("invalid number token {token:?}"))),
        }
    }

    fn consume_digits(&mut self, what: &str) -> Result<(), WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err(format!("expected digits in {what}")))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::MapBuilder;
    use proptest::prelude::*;

    /// The bytes the writer produced when every number went through
    /// `format!`: the reference the digit writer must reproduce.
    fn oracle_number(value: &Value) -> String {
        match value {
            Value::U64(v) => format!("{v}"),
            Value::I64(v) => format!("{v}"),
            Value::F64(v) => {
                let mut s = format!("{v}");
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    s.push_str(".0");
                }
                s
            }
            other => panic!("not a number: {other:?}"),
        }
    }

    /// The old writer's bytes for a top-level `U64s`, compact or pretty.
    fn oracle_u64s(items: &[u64], pretty: bool) -> String {
        if items.is_empty() {
            return "[]".into();
        }
        let digits: Vec<String> = items.iter().map(|v| format!("{v}")).collect();
        if pretty {
            let lines: Vec<String> = digits.iter().map(|d| format!("  {d}")).collect();
            format!("[\n{}\n]", lines.join(",\n"))
        } else {
            format!("[{}]", digits.join(","))
        }
    }

    fn assert_matches_oracle(value: &Value) {
        let expected = oracle_number(value);
        assert_eq!(to_string(value).expect("number encodes"), expected);
        assert_eq!(to_string_pretty(value).expect("number encodes"), expected);
    }

    fn assert_u64s_match_oracle(items: &[u64]) {
        let value = Value::U64s(items.to_vec());
        assert_eq!(
            to_string(&value).expect("U64s encodes"),
            oracle_u64s(items, false)
        );
        assert_eq!(
            to_string_pretty(&value).expect("U64s encodes"),
            oracle_u64s(items, true)
        );
    }

    #[test]
    fn number_writer_matches_format_on_edge_values() {
        let mut unsigned = vec![0, 9, 10, 99, 100, 999, 1000, u64::MAX, u64::MAX - 1];
        for power in 0..=19 {
            let p = 10u64.pow(power);
            unsigned.extend([p - 1, p, p + 1]);
        }
        for &v in &unsigned {
            assert_matches_oracle(&Value::U64(v));
        }
        for v in [-1, 0, 1, -10, -99, -100, i64::MIN, i64::MIN + 1, i64::MAX] {
            assert_matches_oracle(&Value::I64(v));
        }
        for v in [1.0, -1.0, 1e21, 1e-7, 5e-324, -0.0, 0.0, 0.1, f64::MAX] {
            assert_matches_oracle(&Value::F64(v));
        }
        assert_u64s_match_oracle(&[]);
        assert_u64s_match_oracle(&[0]);
        assert_u64s_match_oracle(&unsigned);
        // Inside a container the items keep the nesting's indentation.
        let nested = MapBuilder::new().field("xs", vec![7u64, u64::MAX]).build();
        assert_eq!(
            to_string_pretty(&nested).expect("map encodes"),
            "{\n  \"xs\": [\n    7,\n    18446744073709551615\n  ]\n}"
        );
    }

    proptest! {
        #[test]
        fn number_writer_matches_format(
            u in any::<u64>(),
            i in any::<i64>(),
            items in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            assert_matches_oracle(&Value::U64(u));
            assert_matches_oracle(&Value::I64(i));
            // Small magnitudes exercise every digit count below 20.
            assert_matches_oracle(&Value::U64(u >> (u % 64)));
            assert_matches_oracle(&Value::I64(i >> (u % 64)));
            assert_u64s_match_oracle(&items);
        }
    }

    fn roundtrip(v: &Value) -> Value {
        let text = to_string(v).expect("value encodes as JSON");
        from_str(&text).expect("encoded JSON parses back")
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(roundtrip(&Value::Null), Value::Null);
        assert_eq!(roundtrip(&Value::Bool(true)), Value::Bool(true));
        assert_eq!(roundtrip(&Value::U64(u64::MAX)), Value::U64(u64::MAX));
        assert_eq!(roundtrip(&Value::I64(i64::MIN)), Value::I64(i64::MIN));
        assert_eq!(
            roundtrip(&Value::Str("héllo\n\"q\"".into())),
            Value::Str("héllo\n\"q\"".into())
        );
    }

    #[test]
    fn floats_always_reparse_as_floats() {
        for v in [0.25, -0.0, 5.0, 1e-300, 6.02e23, f64::MIN_POSITIVE] {
            let text = to_string(&Value::F64(v)).expect("float encodes as JSON");
            match from_str(&text).expect("encoded float parses back") {
                Value::F64(back) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
        assert_eq!(
            to_string(&Value::F64(5.0)).expect("5.0 encodes as JSON"),
            "5.0"
        );
        assert_eq!(
            to_string(&Value::F64(-0.0)).expect("-0.0 encodes as JSON"),
            "-0.0"
        );
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                to_string(&Value::F64(v)),
                Err(WireError::Unrepresentable { .. })
            ));
        }
    }

    #[test]
    fn canonical_output_is_compact_and_ordered() {
        let v = MapBuilder::new()
            .field("b", 1u64)
            .field("a", Value::List(vec![Value::U64(1), Value::Null]))
            .build();
        assert_eq!(
            to_string(&v).expect("map encodes as JSON"),
            "{\"b\":1,\"a\":[1,null]}"
        );
    }

    #[test]
    fn pretty_output_parses_back_identically() {
        let v = MapBuilder::new()
            .field("xs", vec![1u64, 2, 3])
            .field("name", "bench")
            .field("empty", Value::Map(vec![]))
            .build();
        let pretty = to_string_pretty(&v).expect("value pretty-prints");
        assert!(pretty.contains("\n  \"xs\": ["));
        // U64s serialises as a plain array, so it parses back as a List.
        let reparsed = from_str(&pretty).expect("pretty JSON parses back");
        assert_eq!(
            reparsed,
            from_str(&to_string(&v).expect("value encodes compactly"))
                .expect("compact JSON parses back")
        );
        assert_eq!(
            reparsed
                .get("xs")
                .expect("xs field is present")
                .as_u64_seq()
                .expect("xs is a u64 sequence"),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn parser_normalises_numbers_by_shape() {
        assert_eq!(from_str("7").expect("unsigned token parses"), Value::U64(7));
        assert_eq!(
            from_str("-7").expect("negative token parses"),
            Value::I64(-7)
        );
        assert_eq!(from_str("-0").expect("negative zero parses"), Value::U64(0));
        assert_eq!(
            from_str("7.5").expect("fractional token parses"),
            Value::F64(7.5)
        );
        assert_eq!(
            from_str("1e3").expect("exponent token parses"),
            Value::F64(1000.0)
        );
        assert_eq!(
            from_str("18446744073709551615").expect("u64::MAX token parses"),
            Value::U64(u64::MAX)
        );
        // Wider than u64: falls back to a double.
        assert!(matches!(
            from_str("18446744073709551616").expect("over-u64 token parses as f64"),
            Value::F64(_)
        ));
    }

    #[test]
    fn overflowing_number_tokens_are_rejected_not_infinite() {
        // `str::parse::<f64>` would return infinity for these; the parser
        // must reject them so every accepted tree can be re-encoded.
        for bad in ["1e999", "-1e999", "1e309"] {
            let err = from_str(bad).unwrap_err();
            assert!(err.to_string().contains("overflows"), "{bad}: {err}");
        }
        // Underflow collapses to a representable zero and stays accepted.
        assert_eq!(
            from_str("1e-999").expect("underflowing token parses"),
            Value::F64(0.0)
        );
        assert_eq!(
            from_str("1.7976931348623157e308").expect("f64::MAX token parses"),
            Value::F64(f64::MAX)
        );
    }

    #[test]
    fn escapes_and_surrogate_pairs_decode() {
        assert_eq!(
            from_str("\"a\\u0041\\n\\t\\\\\\\"\\/\"").expect("escape sequences parse"),
            Value::Str("aA\n\t\\\"/".into())
        );
        assert_eq!(
            from_str("\"\\ud83d\\ude00\"").expect("surrogate pair parses"),
            Value::Str("😀".into())
        );
        assert!(from_str("\"\\ud83d\"").is_err(), "unpaired surrogate");
        assert!(from_str("\"\\q\"").is_err(), "unknown escape");
    }

    #[test]
    fn control_characters_escape_symmetrically() {
        let s: String = (0u8..0x20).map(char::from).collect();
        let v = Value::Str(s.clone());
        assert_eq!(roundtrip(&v), v);
        assert!(to_string(&v)
            .expect("control character encodes")
            .contains("\\u0000"));
        // Lowercase hex, and non-ASCII text passes through the byte walk.
        assert_eq!(
            to_string(&Value::Str("\u{1f}é\u{b}😀".into())).expect("string encodes"),
            "\"\\u001fé\\u000b😀\""
        );
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in [
            "", "[1,", "{\"a\"}", "{\"a\":}", "nul", "1 2", "[1] x", "\u{1}", "--1", "1.", "\"abc",
            "{1:2}",
        ] {
            let err = from_str(bad).unwrap_err();
            assert!(
                matches!(err, WireError::Syntax { .. }),
                "{bad:?} gave {err}"
            );
        }
    }

    #[test]
    fn depth_limit_guards_recursion() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = from_str(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_str(&ok).is_ok());
    }
}
