//! Line-oriented text trace format.
//!
//! Header lines start with `#` and carry metadata key/value pairs. Each
//! record line is `<kind> <addr-hex> <T|N> [<target-hex>]`, for example:
//!
//! ```text
//! # benchmark: gcc
//! # input: cccp.i
//! C 0x00400100 T
//! C 0x00400104 N
//! L 0x00400200 T 0x00410000
//! ```

use crate::error::TraceError;
use crate::record::{BranchAddr, BranchKind, BranchRecord, Outcome};
use crate::trace::{Trace, TraceMetadata};
use crate::Result;
use std::io::{BufRead, BufReader, Read, Write};

/// Writes a trace in the text format.
///
/// # Errors
///
/// Returns an error if the underlying writer fails.
pub fn write_trace<W: Write>(w: &mut W, trace: &Trace) -> Result<()> {
    let meta = trace.metadata();
    writeln!(w, "# benchmark: {}", meta.benchmark)?;
    if !meta.input_set.is_empty() {
        writeln!(w, "# input: {}", meta.input_set)?;
    }
    if let Some(seed) = meta.seed {
        writeln!(w, "# seed: {seed}")?;
    }
    for record in trace.records() {
        write!(
            w,
            "{} {:#010x} {}",
            record.kind().mnemonic(),
            record.addr().raw(),
            record.outcome()
        )?;
        if let Some(t) = record.target() {
            write!(w, " {:#010x}", t.raw())?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Applies one `# key: value` comment line to the metadata being collected.
fn apply_comment(metadata: &mut TraceMetadata, comment: &str) {
    let comment = comment.trim();
    if let Some(value) = comment.strip_prefix("benchmark:") {
        metadata.benchmark = value.trim().to_string();
    } else if let Some(value) = comment.strip_prefix("input:") {
        metadata.input_set = value.trim().to_string();
    } else if let Some(value) = comment.strip_prefix("seed:") {
        metadata.seed = value.trim().parse().ok();
    }
}

/// Parses one non-empty, non-comment record line.
fn parse_record_line(trimmed: &str, line_no: usize) -> Result<BranchRecord> {
    let mut parts = trimmed.split_whitespace();
    let kind_token = parts.next().ok_or_else(|| TraceError::MalformedLine {
        line: line_no,
        reason: "missing kind".into(),
    })?;
    let kind_char = kind_token.chars().next().unwrap_or('?');
    let kind =
        BranchKind::from_mnemonic(kind_char).ok_or(TraceError::UnknownKind { code: kind_char })?;
    let addr_token = parts.next().ok_or_else(|| TraceError::MalformedLine {
        line: line_no,
        reason: "missing address".into(),
    })?;
    let addr = parse_hex(addr_token, line_no)?;
    let outcome_token = parts.next().ok_or_else(|| TraceError::MalformedLine {
        line: line_no,
        reason: "missing outcome".into(),
    })?;
    let outcome = match outcome_token {
        "T" | "t" | "1" => Outcome::Taken,
        "N" | "n" | "0" => Outcome::NotTaken,
        other => {
            return Err(TraceError::MalformedLine {
                line: line_no,
                reason: format!("invalid outcome {other:?}"),
            })
        }
    };
    let mut record = BranchRecord::new(BranchAddr::new(addr), kind, outcome);
    if let Some(target_token) = parts.next() {
        record = record.with_target(BranchAddr::new(parse_hex(target_token, line_no)?));
    }
    Ok(record)
}

/// Streaming reader yielding one [`BranchRecord`] at a time from a text
/// trace, so large text captures never have to be materialised whole.
///
/// Construction eagerly consumes the leading comment block (blank lines and
/// `# key: value` lines) so [`TextRecordReader::metadata`] is complete before
/// the first record for well-formed files, which write their header first.
/// Comment lines appearing *between* records are still folded into the
/// metadata as they are passed.
#[derive(Debug)]
pub struct TextRecordReader<R> {
    reader: BufReader<R>,
    metadata: TraceMetadata,
    line_no: usize,
    /// First record line, prefetched while scanning the leading header block.
    pending: Option<Result<BranchRecord>>,
    finished: bool,
}

impl<R: Read> TextRecordReader<R> {
    /// Wraps a reader, consuming the leading metadata block.
    pub fn new(reader: R) -> Self {
        let mut stream = TextRecordReader {
            reader: BufReader::new(reader),
            metadata: TraceMetadata::default(),
            line_no: 0,
            pending: None,
            finished: false,
        };
        stream.pending = stream.advance();
        stream
    }

    /// The metadata collected from the comment lines consumed so far.
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    /// Reads lines until the next record, EOF, or an error.
    fn advance(&mut self) -> Option<Result<BranchRecord>> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(TraceError::Io(e))),
            }
            self.line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(comment) = trimmed.strip_prefix('#') {
                apply_comment(&mut self.metadata, comment);
                continue;
            }
            return Some(parse_record_line(trimmed, self.line_no));
        }
    }
}

impl<R: Read> Iterator for TextRecordReader<R> {
    type Item = Result<BranchRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let item = match self.pending.take() {
            Some(pending) => Some(pending),
            None => self.advance(),
        };
        if !matches!(item, Some(Ok(_))) {
            // Fuse after EOF or the first error: record boundaries after a
            // malformed line are unreliable.
            self.finished = true;
        }
        item
    }
}

fn parse_hex(token: &str, line: usize) -> Result<u64> {
    let stripped = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
        .unwrap_or(token);
    u64::from_str_radix(stripped, 16).map_err(|_| TraceError::MalformedLine {
        line,
        reason: format!("invalid hex address {token:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    /// Reads a whole text trace, with metadata from every comment line.
    fn read_trace(bytes: &[u8]) -> Result<Trace> {
        let mut reader = TextRecordReader::new(bytes);
        let records = (&mut reader).collect::<Result<Vec<_>>>()?;
        Ok(Trace::from_records(reader.metadata().clone(), records))
    }

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new("perl")
            .with_input_set("primes.pl")
            .with_seed(3);
        b.push(BranchRecord::conditional(
            BranchAddr::new(0x0040_0100),
            Outcome::Taken,
        ));
        b.push(
            BranchRecord::new(
                BranchAddr::new(0x0040_0200),
                BranchKind::Unconditional,
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
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.records(), trace.records());
        assert_eq!(back.metadata().benchmark, "perl");
        assert_eq!(back.metadata().input_set, "primes.pl");
        assert_eq!(back.metadata().seed, Some(3));
    }

    #[test]
    fn parses_hand_written_text() {
        let text = "\
# benchmark: demo
# input: small
C 0x1000 T
C 0x1004 N
R 0x1008 T
";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.conditional_count(), 2);
        assert_eq!(trace.metadata().benchmark, "demo");
    }

    #[test]
    fn blank_lines_and_comments_are_skipped() {
        let text = "\n\n# just a comment\nC 0x1000 T\n\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn lowercase_and_numeric_outcomes_accepted() {
        let text = "C 0x1000 t\nC 0x1004 0\nC 0x1008 1\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.records()[0].outcome(), Outcome::Taken);
        assert_eq!(trace.records()[1].outcome(), Outcome::NotTaken);
        assert_eq!(trace.records()[2].outcome(), Outcome::Taken);
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let text = "C 0x1000 T\nC zzzz T\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        match err {
            TraceError::MalformedLine { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_is_reported() {
        let text = "X 0x1000 T\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::UnknownKind { code: 'X' }));
    }

    #[test]
    fn missing_fields_are_reported() {
        for text in ["C\n", "C 0x1000\n", "C 0x1000 Q\n"] {
            assert!(read_trace(text.as_bytes()).is_err(), "{text:?}");
        }
    }
}
