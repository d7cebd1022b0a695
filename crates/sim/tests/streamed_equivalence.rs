//! Equivalence suite for windowed simulation.
//!
//! A trace cut into windows, each run through
//! [`SimEngine::run_window_dispatch`] on a fresh predictor with
//! [`WarmupWindow::FullPrefix`], merges into statistics **bit-identical** to
//! one sequential [`SimEngine::run`]. (The streamed sweep path is pinned by
//! `fused_equivalence.rs`.)

use btr_core::analysis::DenseMissTable;
use btr_predictors::predictor::BranchPredictor;
use btr_sim::config::{PredictorKind, WarmupWindow};
use btr_sim::engine::{result_from_dense, RunResult, SimEngine};
use btr_trace::{BranchAddr, BranchRecord, InternedTrace, Outcome, Trace, TraceBuilder};
use btr_workloads::spec::{Benchmark, SuiteConfig};
use proptest::prelude::*;

/// A synthetic trace mixing biased, alternating and pseudo-random branches
/// over many addresses — the same shape the engine unit tests use, but
/// parameterised by seed so several distinct workloads are covered.
fn mixed_trace(n: u64, seed: u64) -> Trace {
    let mut b = TraceBuilder::new("mixed").with_seed(seed);
    let mut state = seed | 1;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((state >> 45) & 0xff) * 4);
        let taken = match i % 3 {
            0 => i % 2 == 0,
            1 => true,
            _ => (state >> 33) & 1 == 1,
        };
        b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
    }
    b.build()
}

/// A small but realistic generated benchmark trace.
fn generated_trace() -> Trace {
    Benchmark::compress().generate(
        &SuiteConfig::default()
            .with_scale(5e-8)
            .with_seed(11)
            .with_min_executions_per_branch(50),
    )
}

/// One sequential [`SimEngine::run`] on a boxed predictor: the reference the
/// windowed runs must match.
fn sequential_run(trace: &InternedTrace, kind: PredictorKind) -> RunResult {
    let mut predictor: Box<dyn BranchPredictor> = Box::new(kind.build_dispatch());
    SimEngine::new().run(trace, &mut *predictor)
}

/// Cuts `trace` into `window`-record windows, runs each on a fresh
/// predictor after a full-prefix warmup replay, and merges the per-window
/// partials in window order.
fn windowed_run(trace: &InternedTrace, kind: PredictorKind, window: usize) -> RunResult {
    let engine = SimEngine::new();
    let mut dense = DenseMissTable::new(trace.static_count());
    for start in (0..trace.len()).step_by(window) {
        let end = (start + window).min(trace.len());
        let mut predictor = kind.build_dispatch();
        let full = WarmupWindow::FullPrefix;
        dense.merge(&engine.run_window_dispatch(trace, &mut predictor, start, end, full));
    }
    result_from_dense(dense, trace.addrs())
}

fn predictor_kinds() -> Vec<PredictorKind> {
    vec![
        PredictorKind::PAsPaper { history: 8 },
        PredictorKind::GAsPaper { history: 12 },
        PredictorKind::Gshare { history: 10 },
        PredictorKind::Bimodal { index_bits: 12 },
        PredictorKind::StaticTaken,
    ]
}

#[test]
fn windowed_full_prefix_warmup_is_bit_identical_to_dispatch() {
    // Degenerate window sizes are O(n²/window) under full-prefix warmup, so
    // they run on a short trace; realistic sizes cover the longer traces.
    let short = mixed_trace(1200, 0x5eed);
    let cases: Vec<(Trace, Vec<usize>)> = vec![
        (short, vec![1, 7, 100]),
        (mixed_trace(5000, 0xbeef), vec![617, 5000, 5005]),
        (generated_trace(), vec![1000]),
    ];
    for (trace, windows) in cases {
        let interned = trace.intern();
        for kind in predictor_kinds() {
            let sequential = sequential_run(&interned, kind);
            for &window in &windows {
                let windowed = windowed_run(&interned, kind, window);
                assert_eq!(
                    sequential,
                    windowed,
                    "{} diverged at window size {window}",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn windowed_empty_trace_produces_empty_result() {
    let interned = TraceBuilder::new("empty").build().intern();
    let result = windowed_run(&interned, PredictorKind::GAsPaper { history: 4 }, 128);
    assert_eq!(result.overall.lookups, 0);
    assert!(result.per_branch.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn windowed_full_prefix_identity_holds_for_arbitrary_partitions(
        seed in any::<u64>(),
        len in 1u64..2000,
        window in 1usize..600,
    ) {
        let trace = mixed_trace(len, seed);
        let interned = trace.intern();
        let kind = PredictorKind::GAsPaper { history: 6 };
        let sequential = sequential_run(&interned, kind);
        let windowed = windowed_run(&interned, kind, window);
        prop_assert_eq!(sequential, windowed);
    }
}
