//! LEB128 varints and zig-zag transforms.
//!
//! Byte-level conventions are shared with the `BTRT` trace format
//! (`btr-trace::io::binary` calls into this module): little-endian base-128
//! with the continuation bit in the high bit, and zig-zag mapping for signed
//! quantities so small-magnitude deltas stay short.
//!
//! The reader enforces the *canonical* encoding the writer produces: at most
//! 64 bits of payload (a tenth byte may carry only the single top bit) and
//! minimal length (a multi-byte encoding must not end in a zero byte). Every
//! value therefore has exactly one accepted byte sequence, which is what
//! lets golden fixtures and re-encode tests compare bytes.

use crate::error::WireError;
use std::io::{Read, Write};

/// Maps a signed value to an unsigned one with small magnitudes first.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes `v` as a canonical LEB128 varint.
///
/// # Errors
///
/// Fails only if the underlying writer fails.
pub fn write_varint<W: Write>(w: &mut W, mut v: u64) -> Result<(), WireError> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// The canonical-varint state machine shared by every decoder in the
/// workspace: the `Read`-based [`read_varint`] (`BTRW` values, the `BTRT`
/// slow path) and the slice-based [`read_varint_slice`] (the `BTRT` block
/// decoder) both feed bytes through [`VarintAccum::push`], so the
/// canonicality rules — and the exact error messages they produce — cannot
/// drift between paths.
#[derive(Debug, Default)]
struct VarintAccum {
    value: u64,
    shift: u32,
}

impl VarintAccum {
    /// Feeds one byte: `Ok(Some(value))` on the terminal byte, `Ok(None)` if
    /// more bytes must follow.
    #[inline]
    fn push(&mut self, byte: u8, context: &'static str) -> Result<Option<u64>, WireError> {
        let payload = byte & 0x7f;
        // The tenth byte lands at shift 63: only the lowest payload bit fits
        // in a u64, so anything above it would be silently discarded by the
        // shift — reject instead of corrupting.
        if self.shift == 63 && payload > 1 {
            return Err(WireError::schema(format!(
                "varint overflows 64 bits while reading {context}"
            )));
        }
        self.value |= u64::from(payload) << self.shift;
        if byte & 0x80 == 0 {
            if payload == 0 && self.shift > 0 {
                return Err(WireError::schema(format!(
                    "non-minimal varint (trailing zero byte) while reading {context}"
                )));
            }
            return Ok(Some(self.value));
        }
        self.shift += 7;
        if self.shift >= 64 {
            return Err(WireError::schema(format!(
                "varint longer than 64 bits while reading {context}"
            )));
        }
        Ok(None)
    }
}

/// Reads one canonical LEB128 varint.
///
/// # Errors
///
/// Fails on truncation, on encodings carrying more than 64 bits of payload
/// (bits a `u64` would silently drop), and on non-minimal encodings (a
/// multi-byte varint ending in a zero byte denotes the same value as a
/// shorter one).
pub fn read_varint<R: Read>(r: &mut R, context: &'static str) -> Result<u64, WireError> {
    let mut accum = VarintAccum::default();
    loop {
        let mut byte = [0u8; 1];
        // Retry `ErrorKind::Interrupted` like `Read::read_exact` does: on
        // socket-backed readers a signal mid-read is routine, not an error,
        // and surfacing it would tear an otherwise-intact stream.
        let n = loop {
            match r.read(&mut byte) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        };
        if n == 0 {
            return Err(WireError::UnexpectedEof { context });
        }
        if let Some(value) = accum.push(byte[0], context)? {
            return Ok(value);
        }
    }
}

/// Decodes one canonical LEB128 varint from the front of a byte slice,
/// returning the value and the number of bytes it occupied.
///
/// This is the block-decoder primitive behind the `BTRT` fast path: where
/// [`read_varint`] issues one `Read::read` call per byte, this reads straight
/// from an in-memory slice with a single-byte fast path (the common case for
/// delta-encoded branch addresses). Canonicality rules and error messages are
/// identical to [`read_varint`] — both feed the same `VarintAccum` — which
/// `tests/proptest_codecs.rs` pins by decoding random byte strings through
/// both and comparing outcomes.
///
/// # Errors
///
/// Exactly [`read_varint`]'s failures; a varint running past the end of the
/// slice is [`WireError::UnexpectedEof`].
#[inline]
pub fn read_varint_slice(bytes: &[u8], context: &'static str) -> Result<(u64, usize), WireError> {
    // Single-byte fast path: no continuation bit means the byte is the value
    // (and a lone byte is always minimal).
    match bytes.first() {
        Some(&b0) if b0 & 0x80 == 0 => return Ok((u64::from(b0), 1)),
        Some(_) => {}
        None => return Err(WireError::UnexpectedEof { context }),
    }
    let mut accum = VarintAccum::default();
    for (used, &byte) in bytes.iter().enumerate() {
        if let Some(value) = accum.push(byte, context)? {
            return Ok((value, used + 1));
        }
    }
    Err(WireError::UnexpectedEof { context })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_across_widths() {
        for v in [0u64, 1, 127, 128, 300, 1 << 21, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).expect("writing to a Vec cannot fail");
            assert_eq!(
                read_varint(&mut buf.as_slice(), "test").expect("canonical varint decodes"),
                v
            );
        }
    }

    #[test]
    fn zigzag_roundtrips_and_orders_magnitudes() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert!(zigzag_encode(-1) < zigzag_encode(100));
    }

    #[test]
    fn truncated_and_overlong_varints_are_rejected() {
        let err = read_varint(&mut [0x80u8].as_slice(), "tail").unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { context: "tail" }));
        let overlong = [0xffu8; 10];
        let err = read_varint(&mut overlong.as_slice(), "big").unwrap_err();
        assert!(err.to_string().contains("overflows 64 bits"), "{err}");
        let way_overlong = [0x80u8; 11];
        let err = read_varint(&mut way_overlong.as_slice(), "big").unwrap_err();
        assert!(err.to_string().contains("longer than 64 bits"), "{err}");
    }

    #[test]
    fn tenth_byte_payload_must_fit_the_top_bit() {
        // u64::MAX is the canonical 10-byte maximum: nine 0xff then 0x01.
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX).expect("writing to a Vec cannot fail");
        assert_eq!(max.len(), 10);
        assert_eq!(*max.last().expect("ten-byte varint is non-empty"), 0x01);
        assert_eq!(
            read_varint(&mut max.as_slice(), "max").expect("maximal varint decodes"),
            u64::MAX
        );
        // A final byte with any payload above bit 0 would drop bits 64+.
        let mut too_big = max.clone();
        *too_big.last_mut().expect("ten-byte varint is non-empty") = 0x03;
        let err = read_varint(&mut too_big.as_slice(), "wide").unwrap_err();
        assert!(err.to_string().contains("overflows 64 bits"), "{err}");
    }

    #[test]
    fn interrupted_reads_are_retried_not_surfaced() {
        /// Yields one byte per call and returns `Interrupted` before every
        /// successful read — the shape a signal-hit socket read takes.
        struct Interrupting<'a> {
            data: &'a [u8],
            ready: bool,
        }
        impl std::io::Read for Interrupting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "signal",
                    ));
                }
                self.ready = false;
                let n = self.data.len().min(buf.len()).min(1);
                buf[..n].copy_from_slice(&self.data[..n]);
                self.data = &self.data[n..];
                Ok(n)
            }
        }
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).expect("writing to a Vec cannot fail");
            let mut r = Interrupting {
                data: &buf,
                ready: false,
            };
            assert_eq!(
                read_varint(&mut r, "interrupted").expect("interrupts are transparent"),
                v
            );
        }
        // A genuinely truncated interrupted stream still reports EOF.
        let mut r = Interrupting {
            data: &[0x80],
            ready: false,
        };
        let err = read_varint(&mut r, "tail").unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { context: "tail" }));
    }

    #[test]
    fn slice_decoder_matches_the_reader_on_canonical_encodings() {
        for v in [0u64, 1, 127, 128, 300, 1 << 21, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).expect("writing to a Vec cannot fail");
            // Trailing garbage must be left untouched by the slice decoder.
            let len = buf.len();
            buf.extend_from_slice(&[0xaa, 0xbb]);
            let (value, used) = read_varint_slice(&buf, "slice").expect("canonical varint decodes");
            assert_eq!(value, v);
            assert_eq!(used, len);
        }
    }

    #[test]
    fn slice_decoder_rejects_what_the_reader_rejects() {
        // Truncation (empty and mid-varint), overflow, over-length, padding.
        for bad in [
            &[][..],
            &[0x80],
            &[0xff; 10],
            &[0x80; 11],
            &[0x80, 0x00],
            &[0xff, 0x00],
        ] {
            let via_slice = read_varint_slice(bad, "ctx").expect_err("bad varint rejected");
            let via_read = read_varint(&mut &bad[..], "ctx").expect_err("bad varint rejected");
            assert_eq!(via_slice.to_string(), via_read.to_string(), "{bad:?}");
        }
    }

    #[test]
    fn non_minimal_encodings_are_rejected() {
        // [0x80, 0x00] denotes 0, whose canonical form is [0x00].
        for bad in [&[0x80u8, 0x00][..], &[0x81, 0x80, 0x00], &[0xff, 0x00]] {
            let err = read_varint(&mut &bad[..], "padded").unwrap_err();
            assert!(err.to_string().contains("non-minimal"), "{bad:?}: {err}");
        }
        // A lone zero byte is canonical.
        assert_eq!(
            read_varint(&mut [0x00u8].as_slice(), "zero").expect("single zero byte decodes"),
            0
        );
    }
}
