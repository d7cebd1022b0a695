//! Cost of a whole history curve: the fused single-pass sweep engine versus
//! the per-history baselines that re-walk the trace once per sweep point.
//!
//! Throughput is declared as `records × history points`, so `per_sec` is
//! directly the *history-point* throughput of a sweep and rate ratios are
//! cost-per-point ratios. The baseline, `per_history_17pass/…`, is one
//! monomorphized full-range `run_window_dispatch` pass per history over the
//! pre-interned trace (the parallel runner's pre-fusion grid cell). Fused
//! wins ~2.9–3.5× per point against it (`BENCH_pr5.json`).
//!
//! `fused_sweep_streamed/fused_streamed_chunk64k/…` prices the same curve
//! from one `FastBtrtReader` decode pass of the serialized `BTRT` bytes.

use btr_bench::run_full_window;
use btr_predictors::fused::FusedSweepPredictor;
use btr_sim::config::PredictorKind;
use btr_sim::engine::SimEngine;
use btr_trace::io::binary;
use btr_trace::{BranchAddr, BranchRecord, FastBtrtReader, Outcome, Trace, TraceBuilder};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// A trace shaped like the generated suite: a few thousand static branches
/// with mixed biased/alternating/noisy behaviours.
fn synthetic_trace(n: usize) -> Trace {
    let mut b = TraceBuilder::new("fused-sweep");
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

fn bench_fused_sweep(c: &mut Criterion) {
    let trace = synthetic_trace(200_000);
    let interned = trace.intern();
    let histories: Vec<u32> = (0..=16).collect();
    let points = histories.len() as u64;
    let records = interned.len() as u64;
    let engine = SimEngine::new();

    type FusedFactory = fn(&[u32]) -> FusedSweepPredictor;
    type KindFactory = fn(u32) -> PredictorKind;
    let families: Vec<(&str, FusedFactory, KindFactory)> = vec![
        ("PAs", FusedSweepPredictor::pas_paper, |h| {
            PredictorKind::PAsPaper { history: h }
        }),
        ("GAs", FusedSweepPredictor::gas_paper, |h| {
            PredictorKind::GAsPaper { history: h }
        }),
        ("gshare", FusedSweepPredictor::gshare_paper, |h| {
            PredictorKind::Gshare { history: h }
        }),
    ];

    let mut group = c.benchmark_group("fused_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records * points));
    for (label, fused_factory, kind_factory) in &families {
        // The per-pass baseline: one full trace walk per history length on the monomorphized dispatch path (what the parallel
        // runner's grid cells executed before fusion).
        group.bench_function(format!("per_history_17pass/{label}"), |b| {
            b.iter(|| {
                histories
                    .iter()
                    .map(|&h| run_full_window(&engine, &interned, kind_factory(h)))
                    .collect::<Vec<_>>()
            })
        });
        // Fused: the whole curve from one pass.
        group.bench_function(format!("fused/{label}"), |b| {
            b.iter(|| engine.run_fused(&interned, &mut fused_factory(&histories)))
        });
    }
    group.finish();

    // The paper-scale case: a trace that lives as serialized bytes (too big
    // to materialise) yields the curve from one fused chunked-decode pass.
    let mut bytes = Vec::new();
    binary::write_trace(&mut bytes, &trace).unwrap();
    let mut group = c.benchmark_group("fused_sweep_streamed");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records * points));
    for (label, fused_factory, _) in families.iter().take(2) {
        group.bench_function(format!("fused_streamed_chunk64k/{label}"), |b| {
            b.iter(|| {
                let chunks = FastBtrtReader::new(bytes.as_slice(), 64 * 1024).unwrap();
                engine
                    .run_fused_streamed(chunks, &mut fused_factory(&histories))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fused_sweep);
criterion_main!(benches);
