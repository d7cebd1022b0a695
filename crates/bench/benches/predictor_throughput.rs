//! Throughput of the predictor substrate and of the monomorphized,
//! dense-indexed per-predictor engine path over an interned trace.

use btr_bench::run_full_window;
use btr_predictors::prelude::*;
use btr_sim::config::PredictorKind;
use btr_sim::engine::SimEngine;
use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceBuilder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn synthetic_stream(n: usize) -> Vec<(BranchAddr, Outcome)> {
    let mut state = 0x1234_5678_9abc_def0u64;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = BranchAddr::new(0x40_0000 + ((state >> 20) & 0x3ff) * 4);
            let outcome = Outcome::from_bool(i % 3 != 0 || (state >> 40) & 1 == 1);
            (addr, outcome)
        })
        .collect()
}

/// A trace shaped like the generated suite: a few thousand static branches
/// (realistic table aliasing) with mixed behaviours.
fn synthetic_trace(n: usize) -> Trace {
    let mut b = TraceBuilder::new("throughput");
    b.reserve(n);
    let mut state = 0x0f0f_1234_cafe_f00du64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((state >> 21) & 0xfff) * 4);
        let taken = match (state >> 18) & 3 {
            0 => i % 2 == 0,             // alternating
            1 => true,                   // strongly biased
            _ => (state >> 41) & 1 == 1, // noisy
        };
        b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
    }
    b.build()
}

type PredictorFactory = Box<dyn Fn() -> Box<dyn BranchPredictor>>;

fn bench_predictors(c: &mut Criterion) {
    let stream = synthetic_stream(100_000);
    let mut group = c.benchmark_group("predictor_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stream.len() as u64));

    let cases: Vec<(&str, PredictorFactory)> = vec![
        (
            "PAs(h=8)",
            Box::new(|| Box::new(TwoLevelPredictor::pas_paper(8))),
        ),
        (
            "GAs(h=12)",
            Box::new(|| Box::new(TwoLevelPredictor::gas_paper(12))),
        ),
        (
            "gshare(h=12)",
            Box::new(|| Box::new(GsharePredictor::paper_sized(12))),
        ),
        (
            "bimodal(2^17)",
            Box::new(|| Box::new(BimodalPredictor::paper_sized())),
        ),
    ];
    for (name, make) in &cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &stream, |b, stream| {
            b.iter(|| {
                let mut predictor = make();
                let mut hits = 0u64;
                for (addr, outcome) in stream {
                    if predictor.access(*addr, *outcome) {
                        hits += 1;
                    }
                }
                hits
            })
        });
    }
    group.finish();

    // The per-predictor engine path: the dense-indexed monomorphized loop
    // over an interned trace.
    let trace = synthetic_trace(200_000);
    let interned = trace.intern();
    let records = trace.conditional_records().len() as u64;
    let engine = SimEngine::new();
    let mut group = c.benchmark_group("sim_engine_path");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records));
    for kind in [
        PredictorKind::PAsPaper { history: 8 },
        PredictorKind::GAsPaper { history: 12 },
    ] {
        group.bench_function(format!("interned_fused/{}", kind.label()), |b| {
            b.iter(|| run_full_window(&engine, &interned, kind))
        });
    }
    // The one-off cost the interned path pays up front, for context: one
    // interning pass is amortized over every (family × history) sweep point.
    group.bench_function("intern_pass", |b| b.iter(|| trace.intern()));
    group.finish();
}

criterion_group!(benches, bench_predictors);
criterion_main!(benches);
