//! Trace tools: build a branch trace from the structured CFG program model,
//! round-trip it through the binary and text formats, and inspect it with
//! std's iterator adapters.
//!
//! Run with: `cargo run --release --example trace_tools`

use btr::prelude::*;
use btr_trace::io::{binary, text};
use btr_trace::{FastBtrtReader, InternedTrace, TraceStats, DEFAULT_CHUNK_RECORDS};
use btr_workloads::cfg::{CfgBuilder, Condition};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // A little program: an outer loop over records, an inner loop over
    // fields, a periodic validity check and a data-dependent comparison.
    let mut builder = CfgBuilder::new(0x0040_0000);
    builder.counted_loop(200, |record_loop| {
        record_loop.counted_loop(8, |field_loop| {
            field_loop.if_else(
                Condition::Modulo {
                    period: 3,
                    phase: 1,
                },
                1,
                1,
            );
        });
        record_loop.if_else(Condition::Random { p_taken: 0.5 }, 2, 2);
        record_loop.if_else(Condition::SameAsPrevious, 1, 0);
    });
    let program = builder.build();
    let trace = program.interpret(50_000, 2024);
    println!("interpreted CFG program: {trace}");

    // Round-trip through both serialization formats.
    let mut binary_bytes = Vec::new();
    binary::write_trace(&mut binary_bytes, &trace)?;
    let mut reader = FastBtrtReader::new(binary_bytes.as_slice(), DEFAULT_CHUNK_RECORDS)?;
    let reread = InternedTrace::from_chunks(&mut reader)?;
    assert_eq!(reader.metadata(), trace.metadata());
    let interned = trace.intern();
    assert_eq!(reread, interned);
    println!(
        "binary format: {} bytes ({:.2} bytes/record)",
        binary_bytes.len(),
        binary_bytes.len() as f64 / trace.len() as f64
    );

    let mut text_bytes = Vec::new();
    text::write_trace(&mut text_bytes, &trace)?;
    println!("text format:   {} bytes", text_bytes.len());

    // Sample the conditional branches in a window, one in a hundred.
    let sampled: Vec<_> = trace
        .records()
        .iter()
        .filter(|r| r.kind().is_conditional())
        .take(10_000)
        .step_by(100)
        .collect();
    println!(
        "sampled {} records from the first 10k (1 in 100)",
        sampled.len()
    );

    // Profile and report the hottest branch.
    let stats = TraceStats::from_interned(&interned);
    let profile = ProgramProfile::from_stats(&stats);
    let hottest = stats.hottest_branch().expect("non-empty trace");
    let branch = profile.branch(hottest.0).expect("profiled branch");
    println!(
        "hottest branch {} executed {} times: taken rate {:.2}, transition rate {:.2}",
        hottest.0,
        branch.executions(),
        branch.taken_rate().map(|r| r.value()).unwrap_or(0.0),
        branch.transition_rate().map(|r| r.value()).unwrap_or(0.0)
    );
    Ok(())
}
