//! Streamed vs eager trace simulation: throughput of the chunked fused
//! sweep (`run_fused_streamed`, one PAs(h=8) slot) against the eager
//! read-intern-simulate path.
//!
//! All variants decode the *same* in-memory `BTRT` byte stream, so the
//! comparison covers the full pipeline each path really executes: decode (+
//! intern) + simulate. Every row decodes through the per-record reference
//! decoder (`crates/trace/tests/support/btrt_reference.rs`, included below),
//! eagerly or chunked, so its rows stay comparable with the
//! `streaming_pipeline/` baselines recorded in `BENCH_pr*.json`; the
//! production decoder's rate is the `decode_fast` bench.

#[path = "../../trace/tests/support/btrt_reference.rs"]
mod btrt_reference;

use btr_bench::run_full_window;
use btr_sim::config::{PredictorFamily, PredictorKind};
use btr_sim::engine::SimEngine;
use btr_trace::io::binary;
use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceBuilder, DEFAULT_CHUNK_RECORDS};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// A trace shaped like the generated suite: a few thousand static branches
/// with mixed behaviours (same generator as `predictor_throughput`).
fn synthetic_trace(n: usize) -> Trace {
    let mut b = TraceBuilder::new("streaming");
    b.reserve(n);
    let mut state = 0x0f0f_1234_cafe_f00du64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((state >> 21) & 0xfff) * 4);
        let taken = match (state >> 18) & 3 {
            0 => i % 2 == 0,
            1 => true,
            _ => (state >> 41) & 1 == 1,
        };
        b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
    }
    b.build()
}

fn bench_streaming(c: &mut Criterion) {
    let n = 2_000_000usize;
    let trace = synthetic_trace(n);
    let mut encoded = Vec::new();
    binary::write_trace(&mut encoded, &trace).unwrap();
    let kind = PredictorKind::PAsPaper { history: 8 };
    let engine = SimEngine::new();

    // Full pipeline from bytes: decode (+ intern) + simulate.
    let mut group = c.benchmark_group("streaming_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(format!("eager/{}", kind.label()), |b| {
        b.iter(|| {
            let trace = btrt_reference::read_trace(encoded.as_slice()).unwrap();
            let interned = trace.intern();
            run_full_window(&engine, &interned, kind)
        })
    });
    for chunk_records in [1 << 12, DEFAULT_CHUNK_RECORDS, 1 << 20] {
        group.bench_function(
            format!(
                "fused_streamed/chunk{}k/{}",
                chunk_records >> 10,
                kind.label()
            ),
            |b| {
                b.iter(|| {
                    let chunks =
                        btrt_reference::chunked(encoded.as_slice(), chunk_records).unwrap();
                    engine
                        .run_fused_streamed(chunks, &mut PredictorFamily::PAs.fused_paper(&[8]))
                        .unwrap()
                })
            },
        );
    }
    // Decode-only: the I/O layer's own overhead, without simulation.
    group.bench_function("decode_only/eager", |b| {
        b.iter(|| {
            btrt_reference::read_trace(encoded.as_slice())
                .unwrap()
                .len()
        })
    });
    group.bench_function("decode_only/chunked64k", |b| {
        b.iter(|| {
            btrt_reference::chunked(encoded.as_slice(), DEFAULT_CHUNK_RECORDS)
                .unwrap()
                .map(|c| c.unwrap().len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
