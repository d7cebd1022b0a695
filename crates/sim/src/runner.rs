//! Multi-threaded execution of an [`ExperimentContext`]'s suite.
//!
//! Everything runs on a vendored work-stealing pool ([`stealpool`]) of the
//! context's `threads` workers. Preparing the suite is one task per
//! benchmark: generate, intern, drop the rows, fold the profile from the
//! columns ([`ExperimentContext::intern_suite`]). A sweep is a (benchmark ×
//! history-group) grid whose every task is one [`SimEngine::run_batch`]
//! lane, simulating all the group's history lengths in a single pass over
//! the benchmark's columns ([`ExperimentContext::run_sweep_interned`]).
//! Per-task results merge deterministically in benchmark order.

use crate::config::PredictorFamily;
use crate::engine::{BatchLane, RunResult, SimEngine};
use crate::experiments::ExperimentContext;
use crate::sweep::SweepResult;
use btr_core::profile::ProgramProfile;
use btr_trace::InternedTrace;
use stealpool::WorkStealingPool;

impl ExperimentContext {
    /// Generates, interns and profiles every benchmark, one pool task each:
    /// the task generates the benchmark's rows, interns them, drops the rows
    /// and folds the benchmark's profile from the columns
    /// ([`ProgramProfile::from_interned`]). So beside the columns the suite
    /// keeps, each worker holds at most one benchmark's rows at a time.
    ///
    /// Returns the interned traces in benchmark order and the suite profile,
    /// the per-benchmark profiles merged in that same order.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn intern_suite(&self) -> (Vec<InternedTrace>, ProgramProfile) {
        let tasks = WorkStealingPool::new(self.threads).run(self.benchmarks.clone(), |_, bench| {
            let interned = bench.generate(&self.suite).intern();
            let profile = ProgramProfile::from_interned(&interned);
            (interned, profile)
        });
        let mut profile = ProgramProfile::new();
        let traces = tasks
            .into_iter()
            .map(|(interned, part)| {
                profile.merge(&part);
                interned
            })
            .collect();
        (traces, profile)
    }

    /// Sweeps one predictor family over the given history lengths for all
    /// interned traces (see [`ExperimentContext::intern_suite`]). Every
    /// benchmark uses fresh predictor state per history length, exactly as
    /// the sequential [`crate::sweep::HistorySweep`] does.
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
    /// Panics if `histories` is empty or `threads` is zero.
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
        let partials: Vec<Vec<RunResult>> =
            WorkStealingPool::new(self.threads).run(grid, |_, (bench, group)| {
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
    use btr_workloads::spec::{Benchmark, SuiteConfig};

    fn tiny_context() -> ExperimentContext {
        ExperimentContext {
            suite: SuiteConfig::default()
                .with_scale(5e-8)
                .with_seed(3)
                .with_min_executions_per_branch(100),
            benchmarks: vec![Benchmark::compress(), Benchmark::li()],
            threads: 2,
            ..ExperimentContext::quick()
        }
    }

    #[test]
    fn traces_are_generated_for_every_benchmark_in_order() {
        let ctx = tiny_context();
        let (interned, _) = ctx.intern_suite();
        assert_eq!(interned.len(), 2);
        for (bench, columns) in ctx.benchmarks.iter().zip(&interned) {
            assert_eq!(
                columns.len() as u64,
                bench.generate(&ctx.suite).conditional_count()
            );
            assert!(!columns.is_empty());
        }
    }

    #[test]
    fn parallel_generation_matches_sequential_generation() {
        let ctx = tiny_context();
        let (parallel, _) = ctx.intern_suite();
        let (sequential, _) = ExperimentContext { threads: 1, ..ctx }.intern_suite();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn interning_preserves_trace_order() {
        let ctx = tiny_context();
        let (interned, _) = ctx.intern_suite();
        for (bench, i) in ctx.benchmarks.iter().zip(&interned) {
            let trace = bench.generate(&ctx.suite);
            assert_eq!(i, &trace.intern());
            assert_eq!(i.static_count(), trace.static_conditional_count());
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        let ctx = tiny_context();
        let (interned, _) = ctx.intern_suite();
        let refs: Vec<_> = interned.iter().collect();
        let histories = vec![0, 2, 4];
        let parallel = ctx.run_sweep_interned(&interned, PredictorFamily::PAs, &histories);
        let sequential = HistorySweep::new(PredictorFamily::PAs, histories.clone()).run(&refs);
        assert_eq!(
            parallel, sequential,
            "grid sweep must be bit-identical to the sequential sweep"
        );
    }

    #[test]
    fn merged_profile_covers_all_traces() {
        let (interned, profile) = tiny_context().intern_suite();
        let total: u64 = interned.iter().map(|t| t.len() as u64).sum();
        assert_eq!(profile.total_dynamic(), total);
        assert!(profile.static_count() > 0);
        let mut merged = ProgramProfile::new();
        for trace in &interned {
            merged.merge(&ProgramProfile::from_interned(trace));
        }
        assert_eq!(profile, merged);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let ctx = ExperimentContext {
            threads: 0,
            ..tiny_context()
        };
        let _ = ctx.intern_suite();
    }

    #[test]
    #[should_panic(expected = "at least one history")]
    fn empty_histories_rejected() {
        let _ = tiny_context().run_sweep_interned(&[], PredictorFamily::PAs, &[]);
    }
}
