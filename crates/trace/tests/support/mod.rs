//! Test-only support shared by the integration suites: the reference `BTRT`
//! decoder and an eager text reader.

pub mod btrt_reference;

use btr_trace::io::TextRecordReader;
use btr_trace::{Result, Trace};

/// Reads a whole text-format trace, with metadata from every comment line:
/// the eager counterpart of `ChunkedTraceReader::text`.
#[allow(dead_code)] // Not every suite reads text.
pub fn read_text(bytes: &[u8]) -> Result<Trace> {
    let mut reader = TextRecordReader::new(bytes);
    let records = (&mut reader).collect::<Result<Vec<_>>>()?;
    Ok(Trace::from_records(reader.metadata().clone(), records))
}
