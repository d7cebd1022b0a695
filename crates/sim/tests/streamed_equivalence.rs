//! Equivalence suite for the windowed simulation path.
//!
//! Windowed-parallel simulation with [`WarmupWindow::FullPrefix`] is
//! **bit-identical** to one full-range sequential
//! [`SimEngine::run_window_dispatch`] run, while finite warmup windows
//! diverge by a bounded, shrinking amount. (The streamed sweep path is
//! pinned by `fused_equivalence.rs`.)

use btr_sim::config::{PredictorKind, WarmupWindow, WindowConfig};
use btr_sim::engine::{result_from_dense, RunResult, SimEngine};
use btr_sim::runner::SuiteRunner;
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

/// One full-range [`SimEngine::run_window_dispatch`] run folded into a
/// [`RunResult`]: the sequential reference the windowed runs must match.
fn sequential_run(trace: &InternedTrace, kind: PredictorKind) -> RunResult {
    let mut predictor = kind.build_dispatch();
    let (len, full) = (trace.len(), WarmupWindow::FullPrefix);
    let dense = SimEngine::new().run_window_dispatch(trace, &mut predictor, 0, len, full);
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
    let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(3);
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
                let windowed =
                    runner.run_trace_windowed(&interned, kind, WindowConfig::new(window));
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
    let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(2);
    let interned = TraceBuilder::new("empty").build().intern();
    let result = runner.run_trace_windowed(
        &interned,
        PredictorKind::GAsPaper { history: 4 },
        WindowConfig::new(128),
    );
    assert_eq!(result.overall.lookups, 0);
    assert!(result.per_branch.is_empty());
}

#[test]
fn finite_warmup_divergence_is_bounded_and_shrinks() {
    let trace = mixed_trace(20_000, 0xcafe);
    let interned = trace.intern();
    let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(4);
    // Bounds are calibrated to this deterministic workload (a third of its
    // outcomes are pure noise, the worst case for window re-convergence):
    // gshare re-converges fast; PAs pays slow per-address PHT retraining.
    let cases = [
        (
            PredictorKind::Gshare { history: 8 },
            [(0usize, 0.15), (1024, 0.04), (4096, 0.005)],
        ),
        (
            PredictorKind::PAsPaper { history: 8 },
            [(0usize, 0.10), (1024, 0.10), (4096, 0.05)],
        ),
    ];
    for (kind, bounds) in cases {
        let exact = sequential_run(&interned, kind);
        let exact_rate = exact.miss_rate().unwrap();
        let mut divergences = Vec::new();
        for (warm, bound) in bounds {
            let cfg = WindowConfig::new(1000).with_warmup_window(WarmupWindow::Records(warm));
            let approx = runner.run_trace_windowed(&interned, kind, cfg);
            // Every record is still scored exactly once: only *hit* counts
            // move under approximate warmup.
            assert_eq!(approx.overall.lookups, exact.overall.lookups);
            let divergence = (approx.miss_rate().unwrap() - exact_rate).abs();
            assert!(
                divergence <= bound,
                "{} warmup {warm}: divergence {divergence} exceeds {bound}",
                kind.label()
            );
            divergences.push(divergence);
        }
        // Divergence shrinks as the warmup window grows.
        assert!(divergences[1] <= divergences[0] + 1e-12, "{divergences:?}");
        assert!(divergences[2] <= divergences[1] + 1e-12, "{divergences:?}");
        // A warmup window longer than any prefix is exactly FullPrefix.
        let huge = WindowConfig::new(1000).with_warmup_window(WarmupWindow::Records(usize::MAX));
        assert_eq!(runner.run_trace_windowed(&interned, kind, huge), exact);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn windowed_full_prefix_identity_holds_for_arbitrary_partitions(
        seed in any::<u64>(),
        len in 1u64..2000,
        window in 1usize..600,
        threads in 1usize..5,
    ) {
        let trace = mixed_trace(len, seed);
        let interned = trace.intern();
        let kind = PredictorKind::GAsPaper { history: 6 };
        let sequential = sequential_run(&interned, kind);
        let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(threads);
        let windowed = runner.run_trace_windowed(&interned, kind, WindowConfig::new(window));
        prop_assert_eq!(sequential, windowed);
    }
}
