//! History-length sweeps: the core experimental procedure of the paper
//! (simulate PAs and GAs at history lengths 0–16 and fold the results over
//! branch classes).
//!
//! Sweeps run on the *fused* engine path: one
//! [`btr_predictors::fused::FusedSweepPredictor`] per trace simulates every
//! history length in a single pass (bit-identical to one run per length —
//! see [`SimEngine::run_fused`] and `tests/fused_equivalence.rs`).

use crate::config::PredictorFamily;
use crate::engine::{column_sums, RunResult, SimEngine};
use btr_core::analysis::{
    miss_map_to_value, BranchMissMap, ClassHistoryMatrix, ClassMissRates, JointMissMatrix,
};
use btr_core::class::BinningScheme;
use btr_core::distribution::Metric;
use btr_core::profile::ProgramProfile;
use btr_trace::Trace;
use btr_wire::{MapBuilder, Value, Wire, WireError};
use std::collections::BTreeSet;

/// The outcome of sweeping one predictor family over a set of history
/// lengths for one or more traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    family: PredictorFamily,
    /// Per-history aggregated per-branch statistics. A history's overall
    /// statistics are its map's column sums, computed when asked for.
    runs: Vec<(u32, BranchMissMap)>,
    /// Labels of the sweep partials already folded into this result. A
    /// labeled partial arriving twice (a re-issued straggler whose first
    /// attempt committed after all) is recognised by its label and skipped,
    /// making [`SweepResult::merge`] idempotent per source. Empty for
    /// unlabeled results, which always merge additively.
    sources: BTreeSet<String>,
}

impl SweepResult {
    /// Assembles a sweep result from per-history run results (used by the
    /// parallel suite runner, which executes one fused task per benchmark on
    /// a work-stealing pool and merges partial results per history).
    pub fn from_parts(family: PredictorFamily, mut parts: Vec<(u32, RunResult)>) -> Self {
        parts.sort_by_key(|(h, _)| *h);
        SweepResult::assemble(family, parts)
    }

    /// Builds a sweep result from per-history runs in the order given,
    /// **moving** each run's per-branch map into place — per-branch
    /// statistics are never cloned, whatever the sweep size.
    fn assemble(family: PredictorFamily, parts: Vec<(u32, RunResult)>) -> Self {
        SweepResult {
            family,
            runs: parts
                .into_iter()
                .map(|(history, result)| (history, result.per_branch))
                .collect(),
            sources: BTreeSet::new(),
        }
    }

    /// Labels this result as the partial produced by one named source (a
    /// shard work unit, a worker id, …). Merging two results whose source
    /// sets overlap completely is a no-op; see [`SweepResult::merge`].
    #[must_use]
    pub fn with_source(mut self, label: impl Into<String>) -> Self {
        self.sources = BTreeSet::from([label.into()]);
        self
    }

    /// The source labels folded into this result (empty when unlabeled).
    pub fn sources(&self) -> &BTreeSet<String> {
        &self.sources
    }

    /// Decomposes the result into its family and per-history
    /// `(history, RunResult)` parts, dropping source labels.
    ///
    /// This is the inverse of [`SweepResult::from_parts`]: shard
    /// coordinators merge same-history partials first, then concatenate the
    /// per-group parts and reassemble one result over the full history set.
    pub fn into_parts(self) -> (PredictorFamily, Vec<(u32, RunResult)>) {
        let parts = self
            .runs
            .into_iter()
            .map(|(history, per_branch)| {
                let overall = column_sums(per_branch.values());
                (
                    history,
                    RunResult {
                        overall,
                        per_branch,
                    },
                )
            })
            .collect();
        (self.family, parts)
    }

    /// The predictor family swept.
    pub fn family(&self) -> PredictorFamily {
        self.family
    }

    /// The history lengths swept, in order.
    pub fn history_lengths(&self) -> Vec<u32> {
        self.runs.iter().map(|(h, _)| *h).collect()
    }

    /// The per-branch statistics at one history length.
    pub fn per_branch(&self, history: u32) -> Option<&BranchMissMap> {
        self.runs
            .iter()
            .find(|(h, _)| *h == history)
            .map(|(_, m)| m)
    }

    /// The per-history `(history, BranchMissMap)` pairs.
    pub fn runs(&self) -> &[(u32, BranchMissMap)] {
        &self.runs
    }

    /// Overall miss rate at one history length.
    pub fn overall_miss_rate(&self, history: u32) -> Option<f64> {
        self.per_branch(history)
            .and_then(|m| column_sums(m.values()).miss_rate())
    }

    /// Builds the class × history miss matrix for one metric
    /// (Figures 5–12).
    pub fn class_history_matrix(
        &self,
        profile: &ProgramProfile,
        metric: Metric,
        scheme: BinningScheme,
    ) -> ClassHistoryMatrix {
        let runs: Vec<(u32, ClassMissRates)> = self
            .runs
            .iter()
            .map(|(h, misses)| {
                (
                    *h,
                    ClassMissRates::aggregate(profile, metric, scheme, misses),
                )
            })
            .collect();
        ClassHistoryMatrix::from_runs(&runs)
    }

    /// Builds the joint-class optimal-history miss matrix (Figures 13–14).
    pub fn joint_miss_matrix(
        &self,
        profile: &ProgramProfile,
        scheme: BinningScheme,
    ) -> JointMissMatrix {
        JointMissMatrix::from_history_runs(profile, scheme, &self.runs)
    }

    /// Merges another sweep's statistics into this one, history by history.
    ///
    /// This is how persisted sweep *partials* recombine: shard a benchmark
    /// suite across workers, run the same sweep on each shard, persist each
    /// [`SweepResult`] over the wire, then merge the decoded partials.
    /// Prediction statistics are plain counters, so the merged result is
    /// bit-identical to a single sweep over the union of the shards —
    /// whatever the sharding (pinned by `tests/sweep_wire_partials.rs`).
    ///
    /// When both sides carry source labels (see [`SweepResult::with_source`])
    /// the merge is **idempotent**: a partial whose sources are already all
    /// folded into `self` is skipped rather than double-counted, so a
    /// duplicate completion from a re-issued straggler cannot corrupt the
    /// total. Unlabeled partials always merge additively (the pre-existing
    /// behaviour for ad-hoc shard unions).
    ///
    /// # Panics
    ///
    /// Panics if the sweeps disagree on predictor family or history
    /// lengths — partials of different experiments must not be mixed — or if
    /// the source sets overlap only partially (some of `other`'s sources
    /// merged, some not), which no correct sharding can produce.
    pub fn merge(&mut self, other: &SweepResult) {
        assert_eq!(
            self.family, other.family,
            "cannot merge sweeps of different predictor families"
        );
        assert_eq!(
            self.history_lengths(),
            other.history_lengths(),
            "cannot merge sweeps over different history lengths"
        );
        if !other.sources.is_empty() {
            let seen = other
                .sources
                .iter()
                .filter(|s| self.sources.contains(*s))
                .count();
            if seen == other.sources.len() {
                // Every source already merged: a duplicate completion.
                return;
            }
            assert_eq!(
                seen, 0,
                "cannot merge sweep partials with partially overlapping sources"
            );
        }
        for ((_, mine), (_, theirs)) in self.runs.iter_mut().zip(&other.runs) {
            for (addr, stats) in theirs {
                mine.entry(*addr).or_default().merge(stats);
            }
        }
        self.sources.extend(other.sources.iter().cloned());
    }
}

/// [`SweepResult`] encodes its family plus, per history length, the overall
/// statistics and the columnar per-branch miss map — everything needed to
/// persist a sweep partial and re-merge it exactly.
impl Wire for SweepResult {
    fn to_value(&self) -> Value {
        let runs = self
            .runs
            .iter()
            .map(|(history, per_branch)| {
                MapBuilder::new()
                    .field("history", *history)
                    .field("overall", column_sums(per_branch.values()).to_value())
                    .field("per_branch", miss_map_to_value(per_branch))
                    .build()
            })
            .collect::<Vec<Value>>();
        let mut map = MapBuilder::new()
            .field("family", self.family.to_value())
            .field("runs", Value::List(runs));
        if !self.sources.is_empty() {
            let sources = self
                .sources
                .iter()
                .map(|s| Value::Str(s.clone()))
                .collect::<Vec<Value>>();
            map = map.field("sources", Value::List(sources));
        }
        map.build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let family = PredictorFamily::from_value(value.get("family")?)?;
        let mut runs = Vec::new();
        for entry in value.get("runs")?.as_list()? {
            let history = u32::try_from(entry.get("history")?.as_u64()?)
                .map_err(|_| WireError::schema("history length exceeds u32"))?;
            // Each entry is a RunResult envelope plus the history field;
            // decoding through RunResult re-validates that the overall
            // statistics equal the per-branch sums.
            let result = RunResult::from_value(entry)?;
            runs.push((history, result.per_branch));
        }
        // The sources field is optional on the wire: absent (the pre-PR-7
        // encoding and every unlabeled result) decodes to the empty set.
        let mut sources = BTreeSet::new();
        if let Some(field) = value.get_opt("sources")? {
            for entry in field.as_list()? {
                sources.insert(entry.as_str()?.to_string());
            }
        }
        Ok(SweepResult {
            family,
            runs,
            sources,
        })
    }
}

/// Sweeps a predictor family over a set of history lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistorySweep {
    family: PredictorFamily,
    histories: Vec<u32>,
    warmup: u64,
}

impl HistorySweep {
    /// Creates a sweep over explicit history lengths.
    ///
    /// # Panics
    ///
    /// Panics if `histories` is empty or contains a length above the family's
    /// 32 KB-budget maximum.
    pub fn new(family: PredictorFamily, histories: Vec<u32>) -> Self {
        assert!(
            !histories.is_empty(),
            "sweep needs at least one history length"
        );
        assert!(
            histories.iter().all(|h| *h <= family.max_history()),
            "history length exceeds the 32 KB budget for {}",
            family.label()
        );
        HistorySweep {
            family,
            histories,
            warmup: 0,
        }
    }

    /// The paper's sweep: history lengths 0 through 16.
    pub fn paper(family: PredictorFamily) -> Self {
        HistorySweep::new(family, (0..=16).collect())
    }

    /// A reduced sweep for quick tests and benches.
    pub fn coarse(family: PredictorFamily) -> Self {
        HistorySweep::new(family, vec![0, 1, 2, 4, 8, 12, 16])
    }

    /// Sets a warm-up exclusion (see [`SimEngine::with_warmup`]).
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// The history lengths this sweep covers.
    pub fn histories(&self) -> &[u32] {
        &self.histories
    }

    /// The predictor family swept.
    pub fn family(&self) -> PredictorFamily {
        self.family
    }

    /// Runs the sweep over a set of traces.
    ///
    /// Each benchmark trace gets fresh predictor state per history length
    /// (matching `sim-bpred`, which simulates each benchmark independently);
    /// statistics are merged across traces per history length.
    ///
    /// All history lengths of one trace are simulated by a single fused pass
    /// ([`SimEngine::run_fused`]) instead of one trace walk per length —
    /// bit-identical, since each length's pattern tables are independent
    /// state driven by the same shared history register.
    pub fn run(&self, traces: &[&Trace]) -> SweepResult {
        let engine = SimEngine::new().with_warmup(self.warmup);
        let mut merged: Vec<(u32, RunResult)> = self
            .histories
            .iter()
            .map(|&history| (history, RunResult::default()))
            .collect();
        for (trace_idx, trace) in traces.iter().enumerate() {
            let interned = trace.intern();
            let mut fused = self.family.fused_paper(&self.histories);
            let results = engine.run_fused(&interned, &mut fused);
            for ((_, acc), result) in merged.iter_mut().zip(results) {
                // The first trace's results are moved into place wholesale;
                // later traces merge counter-wise.
                if trace_idx == 0 {
                    *acc = result;
                } else {
                    acc.merge(&result);
                }
            }
        }
        SweepResult::assemble(self.family, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_core::class::ClassId;
    use btr_trace::{BranchAddr, BranchRecord, Outcome, TraceBuilder};

    /// A trace with one strongly biased branch, one alternating branch and
    /// one coin-flip branch — tiny but covering three very different classes.
    fn mixed_trace() -> Trace {
        let mut b = TraceBuilder::new("mixed");
        let biased = BranchAddr::new(0x1000);
        let alternating = BranchAddr::new(0x2000);
        let noisy = BranchAddr::new(0x3000);
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..3000u32 {
            b.push(BranchRecord::conditional(
                biased,
                Outcome::from_bool(i % 50 != 0),
            ));
            b.push(BranchRecord::conditional(
                alternating,
                Outcome::from_bool(i % 2 == 0),
            ));
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.push(BranchRecord::conditional(
                noisy,
                Outcome::from_bool((state >> 40) & 1 == 1),
            ));
        }
        b.build()
    }

    #[test]
    fn sweep_produces_one_run_per_history() {
        let trace = mixed_trace();
        let sweep = HistorySweep::new(PredictorFamily::PAs, vec![0, 2, 4]);
        let result = sweep.run(&[&trace]);
        assert_eq!(result.history_lengths(), vec![0, 2, 4]);
        assert_eq!(result.family(), PredictorFamily::PAs);
        assert!(result.per_branch(2).is_some());
        assert!(result.per_branch(9).is_none());
        assert!(result.overall_miss_rate(0).expect("history 0 was swept") > 0.0);
        assert_eq!(result.runs().len(), 3);
    }

    #[test]
    fn alternating_class_prefers_short_history_with_pas() {
        let trace = mixed_trace();
        let profile = ProgramProfile::from_trace(&trace);
        let sweep = HistorySweep::new(PredictorFamily::PAs, vec![0, 1, 2, 4]);
        let result = sweep.run(&[&trace]);
        let matrix =
            result.class_history_matrix(&profile, Metric::TransitionRate, BinningScheme::Paper11);
        // Transition class 10 (the alternator): terrible with 0 history, great with >= 1.
        let at0 = matrix
            .miss_at(ClassId(10), 0)
            .expect("class 10 seen at history 0");
        let at2 = matrix
            .miss_at(ClassId(10), 2)
            .expect("class 10 seen at history 2");
        assert!(at0 > 0.4, "history 0 should fail on alternation, got {at0}");
        assert!(
            at2 < 0.05,
            "history 2 should capture alternation, got {at2}"
        );
        let (best, _) = matrix
            .optimal_history(ClassId(10))
            .expect("class 10 has an optimum");
        assert!(best >= 1);
        // Transition class 0 (the biased branch) is fine even with 0 history.
        assert!(
            matrix
                .miss_at(ClassId(0), 0)
                .expect("class 0 seen at history 0")
                < 0.1
        );
    }

    #[test]
    fn joint_matrix_identifies_the_noisy_branch_as_worst() {
        let trace = mixed_trace();
        let profile = ProgramProfile::from_trace(&trace);
        let sweep = HistorySweep::new(PredictorFamily::GAs, vec![0, 4, 8]);
        let result = sweep.run(&[&trace]);
        let joint = result.joint_miss_matrix(&profile, BinningScheme::Paper11);
        let (taken, transition, rate) = joint.worst_cell().expect("matrix has populated cells");
        // The coin-flip branch lives near the 5/5 centre and stays near 50%.
        assert!(
            (4..=6).contains(&taken.index()),
            "worst taken class {taken}"
        );
        assert!((4..=6).contains(&transition.index()));
        assert!(rate > 0.3);
    }

    #[test]
    fn merging_across_traces_accumulates_lookups() {
        let trace = mixed_trace();
        let sweep = HistorySweep::new(PredictorFamily::PAs, vec![2]);
        let single = sweep.run(&[&trace]);
        let double = sweep.run(&[&trace, &trace]);
        let single_lookups: u64 = single
            .per_branch(2)
            .expect("history 2 was swept")
            .values()
            .map(|s| s.lookups)
            .sum();
        let double_lookups: u64 = double
            .per_branch(2)
            .expect("history 2 was swept")
            .values()
            .map(|s| s.lookups)
            .sum();
        assert_eq!(double_lookups, single_lookups * 2);
    }

    #[test]
    fn paper_and_coarse_sweeps_have_expected_shapes() {
        assert_eq!(
            HistorySweep::paper(PredictorFamily::PAs).histories().len(),
            17
        );
        assert_eq!(
            HistorySweep::paper(PredictorFamily::GAs).histories()[16],
            16
        );
        assert!(HistorySweep::coarse(PredictorFamily::PAs).histories().len() < 17);
        assert_eq!(
            HistorySweep::coarse(PredictorFamily::GAs).family(),
            PredictorFamily::GAs
        );
    }

    #[test]
    fn sweep_results_roundtrip_on_the_wire() {
        let trace = mixed_trace();
        // Unsorted history order must survive the round-trip verbatim.
        let sweep = HistorySweep::new(PredictorFamily::GAs, vec![4, 0, 2]);
        let result = sweep.run(&[&trace]);
        let via_json = SweepResult::from_json(&result.to_json().expect("sweep encodes as JSON"))
            .expect("sweep JSON decodes");
        assert_eq!(via_json, result);
        assert_eq!(via_json.history_lengths(), vec![4, 0, 2]);
        assert_eq!(
            SweepResult::from_btrw(&result.to_btrw()).expect("sweep BTRW decodes"),
            result
        );
    }

    #[test]
    fn tampered_overall_statistics_are_rejected_on_decode() {
        let trace = mixed_trace();
        let result = HistorySweep::new(PredictorFamily::PAs, vec![0]).run(&[&trace]);
        let mut v = result.to_value();
        // Corrupt the overall lookup count of the first run.
        let Value::Map(entries) = &mut v else {
            panic!("sweep encodes as a map")
        };
        for (key, field) in entries.iter_mut() {
            if key == "runs" {
                let Value::List(runs) = field else {
                    panic!("runs is a list")
                };
                let Value::Map(run) = &mut runs[0] else {
                    panic!("run is a map")
                };
                for (k, f) in run.iter_mut() {
                    if k == "overall" {
                        *f = MapBuilder::new()
                            .field("lookups", 1u64)
                            .field("hits", 0u64)
                            .build();
                    }
                }
            }
        }
        let err = SweepResult::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("per-branch sums"), "{err}");
    }

    #[test]
    fn merging_sweep_partials_matches_a_joint_sweep() {
        let trace = mixed_trace();
        let sweep = HistorySweep::new(PredictorFamily::PAs, vec![0, 2]);
        let mut partial = sweep.run(&[&trace]);
        let other = sweep.run(&[&trace, &trace]);
        let joint = sweep.run(&[&trace, &trace, &trace]);
        partial.merge(&other);
        assert_eq!(partial, joint);
    }

    #[test]
    fn merging_the_same_labeled_partial_twice_is_idempotent() {
        let trace = mixed_trace();
        let sweep = HistorySweep::new(PredictorFamily::PAs, vec![0, 2]);
        let a = sweep.run(&[&trace]).with_source("unit-0");
        let b = sweep.run(&[&trace, &trace]).with_source("unit-1");
        let mut merged = a.clone();
        merged.merge(&b);
        let once = merged.clone();
        // A duplicate completion from a re-issued straggler arrives twice —
        // in either order — and must not double-count.
        merged.merge(&b);
        merged.merge(&a);
        merged.merge(&once.clone());
        assert_eq!(merged, once);
        assert_eq!(
            merged.sources().iter().collect::<Vec<_>>(),
            vec!["unit-0", "unit-1"]
        );
    }

    #[test]
    fn labeled_partial_survives_the_wire_and_stays_idempotent() {
        let trace = mixed_trace();
        let sweep = HistorySweep::new(PredictorFamily::GAs, vec![0, 1]);
        let labeled = sweep.run(&[&trace]).with_source("unit-7");
        let decoded =
            SweepResult::from_btrw(&labeled.to_btrw()).expect("labeled sweep BTRW decodes");
        assert_eq!(decoded, labeled);
        let mut merged = labeled.clone();
        merged.merge(&decoded);
        assert_eq!(
            merged, labeled,
            "re-merging the decoded duplicate must not change the result"
        );
    }

    #[test]
    fn parts_roundtrip_through_into_parts_and_from_parts() {
        let trace = mixed_trace();
        let sweep = HistorySweep::new(PredictorFamily::PAs, vec![0, 2, 4]);
        let result = sweep.run(&[&trace]);
        let (family, parts) = result.clone().into_parts();
        assert_eq!(SweepResult::from_parts(family, parts), result);
    }

    #[test]
    #[should_panic(expected = "partially overlapping sources")]
    fn merging_partially_overlapping_sources_rejected() {
        let trace = mixed_trace();
        let sweep = HistorySweep::new(PredictorFamily::PAs, vec![0]);
        let a = sweep.run(&[&trace]).with_source("unit-0");
        let b = sweep.run(&[&trace]).with_source("unit-1");
        let mut left = a.clone();
        left.merge(&b); // sources {unit-0, unit-1}
        let mut right = a;
        right.merge(&sweep.run(&[&trace]).with_source("unit-2"));
        left.merge(&right); // {unit-0, unit-2} overlaps {unit-0, unit-1} only partially
    }

    #[test]
    #[should_panic(expected = "different predictor families")]
    fn merging_mismatched_families_rejected() {
        let trace = mixed_trace();
        let mut pas = HistorySweep::new(PredictorFamily::PAs, vec![0]).run(&[&trace]);
        let gas = HistorySweep::new(PredictorFamily::GAs, vec![0]).run(&[&trace]);
        pas.merge(&gas);
    }

    #[test]
    #[should_panic(expected = "different history lengths")]
    fn merging_mismatched_histories_rejected() {
        let trace = mixed_trace();
        let mut a = HistorySweep::new(PredictorFamily::PAs, vec![0]).run(&[&trace]);
        let b = HistorySweep::new(PredictorFamily::PAs, vec![2]).run(&[&trace]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "at least one history")]
    fn empty_sweep_rejected() {
        let _ = HistorySweep::new(PredictorFamily::PAs, vec![]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32 KB budget")]
    fn overlong_history_rejected() {
        let _ = HistorySweep::new(PredictorFamily::PAs, vec![18]);
    }
}
