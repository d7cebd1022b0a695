//! Shared helpers for the Criterion benchmarks and the `reproduce` binary.
//!
//! Every benchmark regenerates one of the paper's tables or figures at a
//! reduced scale (so `cargo bench` completes in minutes); the `reproduce`
//! binary runs the same experiment code at full configured scale and prints
//! the artefacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use btr_sim::config::{PredictorKind, WarmupWindow};
use btr_sim::engine::{result_from_dense, RunResult, SimEngine};
use btr_sim::experiments::{ExperimentContext, SuiteData};
use btr_trace::InternedTrace;
use btr_workloads::spec::{Benchmark, SuiteConfig};

/// A small experiment context sized for Criterion runs: three benchmarks, a
/// coarse history sweep and a tiny scale factor.
pub fn bench_context() -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.suite = SuiteConfig::default()
        .with_scale(1e-6)
        .with_seed(11)
        .with_min_executions_per_branch(150);
    ctx.benchmarks = vec![
        Benchmark::compress(),
        Benchmark::vortex(),
        Benchmark::ijpeg("vigo.ppm", 1_627_642_253),
    ];
    ctx.histories = vec![0, 2, 4, 8];
    ctx.threads = 2;
    ctx
}

/// Prepares the shared suite data for a benchmark context.
pub fn bench_data(ctx: &ExperimentContext) -> SuiteData {
    ctx.prepare()
}

/// One monomorphized per-predictor pass over a whole interned trace: a
/// full-range [`SimEngine::run_window_dispatch`] folded into a [`RunResult`].
/// The per-history baseline rows time this against the fused tiers.
pub fn run_full_window(
    engine: &SimEngine,
    trace: &InternedTrace,
    kind: PredictorKind,
) -> RunResult {
    let mut predictor = kind.build_dispatch();
    let (len, full) = (trace.len(), WarmupWindow::FullPrefix);
    let dense = engine.run_window_dispatch(trace, &mut predictor, 0, len, full);
    result_from_dense(dense, trace.addrs())
}
