//! Determinism guarantees of the work-stealing sweep grid (one fused
//! multi-history task per benchmark): whatever the thread count or task
//! schedule, the parallel sweep must equal the sequential [`HistorySweep`]
//! bit for bit, and [`ExperimentContext::prepare`] must hand every
//! experiment the same [`SuiteData`]. (Both sweeps run the fused engine
//! path; its bit-identity to the per-history dispatch runs is pinned
//! separately by `fused_equivalence.rs`.)

use btr_sim::config::PredictorFamily;
use btr_sim::experiments::{ExperimentContext, SuiteData};
use btr_sim::runner::SuiteRunner;
use btr_sim::sweep::HistorySweep;
use btr_trace::Trace;
use btr_workloads::spec::{Benchmark, SuiteConfig};

fn tiny_config() -> SuiteConfig {
    SuiteConfig::default()
        .with_scale(5e-8)
        .with_seed(11)
        .with_min_executions_per_branch(120)
}

fn runner_with_threads(threads: usize) -> SuiteRunner {
    SuiteRunner::new(tiny_config())
        .with_benchmarks(vec![
            Benchmark::compress(),
            Benchmark::li(),
            Benchmark::vortex(),
        ])
        .with_threads(threads)
}

/// The runner's benchmarks generated one by one, in order.
fn generate(runner: &SuiteRunner) -> Vec<Trace> {
    runner
        .benchmarks()
        .iter()
        .map(|b| b.generate(runner.config()))
        .collect()
}

fn sequential_reference(
    traces: &[Trace],
    family: PredictorFamily,
    histories: &[u32],
) -> btr_sim::sweep::SweepResult {
    let refs: Vec<&Trace> = traces.iter().collect();
    HistorySweep::new(family, histories.to_vec()).run(&refs)
}

#[test]
fn more_threads_than_histories_matches_sequential_bit_for_bit() {
    // 2 history lengths, 8 threads: the old per-history split would idle six
    // workers; the grid must both use them and stay deterministic.
    let runner = runner_with_threads(8);
    let traces = generate(&runner);
    let (interned, _) = runner.intern_suite();
    let histories = [0u32, 4];
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        let parallel = runner.run_sweep_interned(&interned, family, &histories);
        let sequential = sequential_reference(&traces, family, &histories);
        assert_eq!(parallel, sequential, "{} diverged", family.label());
    }
}

#[test]
fn single_benchmark_with_many_threads_matches_sequential_bit_for_bit() {
    // 1 benchmark, 8 threads, dense 0..=16: the fused sweep must split the
    // histories into enough fused groups to occupy the pool, and regrouping
    // must not change a single bit of the result.
    let runner = SuiteRunner::new(tiny_config())
        .with_benchmarks(vec![Benchmark::compress()])
        .with_threads(8);
    let traces = generate(&runner);
    let (interned, _) = runner.intern_suite();
    let histories: Vec<u32> = (0..=16).collect();
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        let parallel = runner.run_sweep_interned(&interned, family, &histories);
        let sequential = sequential_reference(&traces, family, &histories);
        assert_eq!(parallel, sequential, "{} diverged", family.label());
    }
}

#[test]
fn single_thread_grid_matches_sequential_bit_for_bit() {
    let runner = runner_with_threads(1);
    let traces = generate(&runner);
    let histories = [0u32, 1, 2, 8];
    let parallel =
        runner.run_sweep_interned(&runner.intern_suite().0, PredictorFamily::PAs, &histories);
    let sequential = sequential_reference(&traces, PredictorFamily::PAs, &histories);
    assert_eq!(parallel, sequential);
}

#[test]
fn empty_benchmark_set_matches_sequential_empty_sweep() {
    let runner = SuiteRunner::new(tiny_config())
        .with_benchmarks(Vec::new())
        .with_threads(4);
    let traces = generate(&runner);
    let (interned, profile) = runner.intern_suite();
    assert!(traces.is_empty() && interned.is_empty());
    assert_eq!(profile.total_dynamic(), 0);
    let histories = [0u32, 2];
    let parallel = runner.run_sweep_interned(&interned, PredictorFamily::GAs, &histories);
    let sequential = sequential_reference(&traces, PredictorFamily::GAs, &histories);
    assert_eq!(parallel, sequential);
    // Both produce one (empty) entry per history length.
    assert_eq!(parallel.history_lengths(), histories.to_vec());
    assert_eq!(parallel.overall_miss_rate(0), None);
}

#[test]
fn grid_results_are_stable_across_thread_counts() {
    let histories = [0u32, 2, 6];
    let reference = {
        let runner = runner_with_threads(1);
        runner.run_sweep_interned(&runner.intern_suite().0, PredictorFamily::GAs, &histories)
    };
    for threads in [2, 3, 5, 16] {
        let runner = runner_with_threads(threads);
        let result =
            runner.run_sweep_interned(&runner.intern_suite().0, PredictorFamily::GAs, &histories);
        assert_eq!(result, reference, "thread count {threads} diverged");
    }
}

/// Asserts that two preparations agree on every field.
fn assert_same_suite(a: &SuiteData, b: &SuiteData) {
    assert_eq!(a.interned, b.interned);
    assert_eq!(a.profile, b.profile);
    assert_eq!(a.pas, b.pas);
    assert_eq!(a.gas, b.gas);
}

#[test]
fn prepared_suite_data_is_stable_across_thread_counts() {
    let ctx = |threads| ExperimentContext {
        suite: tiny_config(),
        benchmarks: vec![Benchmark::compress(), Benchmark::li(), Benchmark::vortex()],
        histories: vec![0, 2, 6],
        threads,
        ..ExperimentContext::quick()
    };
    let one = ctx(1).prepare();
    let three = ctx(3).prepare();
    assert_same_suite(&three, &one);
    assert_eq!(one.interned.len(), 3);
}
