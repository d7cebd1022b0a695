//! Multi-threaded execution of the full benchmark suite.
//!
//! Earlier revisions parallelised with `std::thread::scope` plus a
//! mutex-guarded shared work index, and split sweeps by history length only —
//! so a sweep over fewer history lengths than cores left threads idle. A
//! later revision flattened sweeps into a (benchmark × history) grid on a
//! vendored work-stealing pool ([`stealpool`]); the grid dimension is now
//! (benchmark × **1 fused task**): each task simulates every history length
//! of the sweep from a single trace pass
//! ([`crate::engine::SimEngine::run_fused`]), so the whole history curve of
//! a benchmark costs one traversal instead of `histories.len()`. Per-task
//! partial results are still merged deterministically by benchmark index.

use crate::config::PredictorFamily;
use crate::engine::{BatchLane, RunResult, SimEngine};
use crate::sweep::SweepResult;
use btr_core::profile::ProgramProfile;
use btr_trace::{InternedTrace, Trace};
use btr_workloads::spec::{Benchmark, SuiteConfig};
use stealpool::WorkStealingPool;

/// Generates the synthetic suite and runs predictor sweeps over it, spreading
/// work across a work-stealing thread pool.
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    config: SuiteConfig,
    benchmarks: Vec<Benchmark>,
    threads: usize,
}

impl SuiteRunner {
    /// A runner over the full 34-row Table 1 suite.
    pub fn new(config: SuiteConfig) -> Self {
        SuiteRunner {
            config,
            benchmarks: Benchmark::suite(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }

    /// Restricts the runner to a subset of benchmarks (useful for tests and
    /// quick benches).
    #[must_use]
    pub fn with_benchmarks(mut self, benchmarks: Vec<Benchmark>) -> Self {
        self.benchmarks = benchmarks;
        self
    }

    /// Sets the number of worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// The suite configuration in force.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// The benchmarks this runner covers.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    fn pool(&self) -> WorkStealingPool {
        WorkStealingPool::new(self.threads)
    }

    /// Generates every benchmark trace, in parallel, in benchmark order.
    ///
    /// Each trace's [`Trace::stats`] are computed on the pool too: a trace
    /// computes them on first read, and the suite reads them next
    /// ([`SuiteRunner::merged_profile`]), which would otherwise pay for every
    /// trace on one thread.
    pub fn generate_traces(&self) -> Vec<Trace> {
        self.pool().run(self.benchmarks.clone(), |_, bench| {
            let trace = bench.generate(&self.config);
            trace.stats();
            trace
        })
    }

    /// Interns every trace (dense static-branch ids) in parallel, preserving
    /// order. Interning once per sweep amortises the pass across all
    /// (family × history) simulations of the sweep.
    pub fn intern_traces(&self, traces: &[Trace]) -> Vec<InternedTrace> {
        self.pool().run(traces.iter().collect(), |_, t| t.intern())
    }

    /// Builds the merged suite profile from generated traces.
    pub fn merged_profile(traces: &[Trace]) -> ProgramProfile {
        let mut profile = ProgramProfile::new();
        for trace in traces {
            profile.merge(&ProgramProfile::from_trace(trace));
        }
        profile
    }

    /// Sweeps one predictor family over the given history lengths for all
    /// interned traces (see [`SuiteRunner::intern_traces`]). Every benchmark
    /// uses fresh predictor state per history length, exactly as the
    /// sequential [`crate::sweep::HistorySweep`] does.
    ///
    /// The grid is (benchmark × fused history-group): by default one
    /// **fused** task per benchmark simulates every history length of the
    /// sweep in a single trace pass, instead of one task — and one full
    /// trace walk — per (benchmark, history) cell. When that would leave
    /// workers idle (fewer benchmarks than threads), the histories are split
    /// into just enough contiguous fused groups to occupy the pool — each
    /// group is still one fused pass over its subset, so a single-benchmark
    /// sweep keeps history-level parallelism without giving up fusion. Each
    /// task is one [`SimEngine::run_batch`] lane: the bit-sliced SWAR tier
    /// when the geometry allows, the scalar blocked replay otherwise —
    /// bit-identical either way. Per-task results are split back out per
    /// history and merged in benchmark-index order, so the outcome is
    /// bit-identical to the sequential per-history sweep no matter the
    /// grouping or schedule (pinned by `tests/fused_equivalence.rs` and
    /// `tests/grid_determinism.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `histories` is empty.
    pub fn run_sweep_interned(
        &self,
        traces: &[InternedTrace],
        family: PredictorFamily,
        histories: &[u32],
    ) -> SweepResult {
        assert!(
            !histories.is_empty(),
            "at least one history length is required"
        );
        let engine = SimEngine::new();
        let group_count = self
            .threads
            .div_ceil(traces.len().max(1))
            .clamp(1, histories.len());
        let groups: Vec<&[u32]> = histories
            .chunks(histories.len().div_ceil(group_count))
            .collect();
        let grid: Vec<(usize, usize)> = (0..groups.len())
            .flat_map(|group| (0..traces.len()).map(move |bench| (bench, group)))
            .collect();
        let partials: Vec<Vec<RunResult>> = self.pool().run(grid, |_, (bench, group)| {
            // Each task is one `run_batch` lane over one benchmark; the
            // engine falls back to the scalar blocked replay when the trace
            // or geometry is outside the SWAR tier, bit-identically.
            let lane = BatchLane::new(0, family.fused_paper(groups[group]));
            let mut lanes = engine.run_batch(&[&traces[bench]], vec![lane]);
            lanes.pop().expect("one lane in, one result out")
        });
        let mut parts = Vec::with_capacity(histories.len());
        for (g, group) in groups.iter().enumerate() {
            for (slot, &history) in group.iter().enumerate() {
                let mut merged = RunResult::default();
                for bench in 0..traces.len() {
                    merged.merge(&partials[g * traces.len() + bench][slot]);
                }
                parts.push((history, merged));
            }
        }
        SweepResult::from_parts(family, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::HistorySweep;

    fn tiny_config() -> SuiteConfig {
        SuiteConfig::default()
            .with_scale(5e-8)
            .with_seed(3)
            .with_min_executions_per_branch(100)
    }

    fn tiny_runner() -> SuiteRunner {
        SuiteRunner::new(tiny_config())
            .with_benchmarks(vec![Benchmark::compress(), Benchmark::li()])
            .with_threads(2)
    }

    #[test]
    fn traces_are_generated_for_every_benchmark_in_order() {
        let runner = tiny_runner();
        let traces = runner.generate_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].metadata().benchmark, "compress");
        assert_eq!(traces[1].metadata().benchmark, "li");
        assert!(traces.iter().all(|t| t.conditional_count() > 0));
        assert_eq!(runner.benchmarks().len(), 2);
        assert_eq!(runner.config().seed, 3);
    }

    #[test]
    fn parallel_generation_matches_sequential_generation() {
        let runner = tiny_runner();
        let parallel = runner.generate_traces();
        let sequential: Vec<Trace> = runner
            .benchmarks()
            .iter()
            .map(|b| b.generate(runner.config()))
            .collect();
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.records(), s.records());
        }
    }

    #[test]
    fn interning_preserves_trace_order() {
        let runner = tiny_runner();
        let traces = runner.generate_traces();
        let interned = runner.intern_traces(&traces);
        assert_eq!(interned.len(), traces.len());
        for (t, i) in traces.iter().zip(&interned) {
            assert_eq!(i.len() as u64, t.conditional_count());
            assert_eq!(i.static_count(), t.static_conditional_count());
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        let runner = tiny_runner();
        let traces = runner.generate_traces();
        let refs: Vec<&Trace> = traces.iter().collect();
        let histories = vec![0, 2, 4];
        let parallel = runner.run_sweep_interned(
            &runner.intern_traces(&traces),
            PredictorFamily::PAs,
            &histories,
        );
        let sequential = HistorySweep::new(PredictorFamily::PAs, histories.clone()).run(&refs);
        assert_eq!(
            parallel, sequential,
            "grid sweep must be bit-identical to the sequential sweep"
        );
    }

    #[test]
    fn merged_profile_covers_all_traces() {
        let runner = tiny_runner();
        let traces = runner.generate_traces();
        let profile = SuiteRunner::merged_profile(&traces);
        let total: u64 = traces.iter().map(|t| t.conditional_count()).sum();
        assert_eq!(profile.total_dynamic(), total);
        assert!(profile.static_count() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = tiny_runner().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "at least one history")]
    fn empty_histories_rejected() {
        let runner = tiny_runner();
        let _ = runner.run_sweep_interned(&[], PredictorFamily::PAs, &[]);
    }
}
