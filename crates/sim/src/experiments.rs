//! One function per table / figure of the paper.
//!
//! Every experiment takes the shared [`SuiteData`] (the suite's interned
//! columns, merged profile, PAs and GAs history sweeps) and returns
//! structured data plus a printable rendering, so the same code backs the
//! unit tests, the Criterion benches and the `reproduce` binary.

use crate::config::PredictorFamily;
use crate::engine::{column_sums, SimEngine};
use crate::runner::SuiteRunner;
use crate::sweep::SweepResult;
use btr_core::advisor::HybridAdvisor;
use btr_core::analysis::{ClassHistoryMatrix, ClassificationAnalysis, JointMissMatrix};
use btr_core::class::BinningScheme;
use btr_core::confidence::ClassConfidence;
use btr_core::distribution::{ClassDistribution, Metric};
use btr_core::hard::{DistanceHistogram, HardBranchCriteria, HardBranchSet};
use btr_core::joint::JointClassTable;
use btr_core::profile::ProgramProfile;
use btr_core::report;
use btr_predictors::confidence::{
    ConfidenceEstimator, ConfidenceStats, JacobsenOneLevel, JacobsenTwoLevel,
};
use btr_predictors::gshare::GsharePredictor;
use btr_predictors::hybrid::McFarlingHybrid;
use btr_predictors::predictor::BranchPredictor;
use btr_predictors::twolevel::TwoLevelPredictor;
use btr_trace::InternedTrace;
use btr_workloads::spec::{Benchmark, SuiteConfig};
use btr_workloads::table2::{
    PAPER_MISCLASSIFIED_GAS, PAPER_MISCLASSIFIED_PAS, PAPER_TAKEN_EASY_COVERAGE,
    PAPER_TRANSITION_EASY_COVERAGE_GAS, PAPER_TRANSITION_EASY_COVERAGE_PAS,
};
use stealpool::WorkStealingPool;

/// Configuration shared by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentContext {
    /// Workload generation configuration.
    pub suite: SuiteConfig,
    /// Benchmarks to include (defaults to all 34 Table 1 rows).
    pub benchmarks: Vec<Benchmark>,
    /// History lengths to sweep.
    pub histories: Vec<u32>,
    /// Binning scheme for all classifications.
    pub scheme: BinningScheme,
    /// Worker threads.
    pub threads: usize,
}

impl ExperimentContext {
    /// The full reproduction context: all 34 benchmarks, history lengths
    /// 0–16, default scale.
    pub fn paper() -> Self {
        ExperimentContext {
            suite: SuiteConfig::default(),
            benchmarks: Benchmark::suite(),
            histories: (0..=16).collect(),
            scheme: BinningScheme::Paper11,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }

    /// A reduced context for tests and benches: a few benchmarks at a tiny
    /// scale with a coarse history sweep.
    pub fn quick() -> Self {
        ExperimentContext {
            suite: SuiteConfig::default()
                .with_scale(5e-6)
                .with_seed(7)
                .with_min_executions_per_branch(150),
            benchmarks: vec![
                Benchmark::compress(),
                Benchmark::li(),
                Benchmark::vortex(),
                Benchmark::ijpeg("vigo.ppm", 1_627_642_253),
            ],
            histories: vec![0, 1, 2, 4, 8, 12, 16],
            scheme: BinningScheme::Paper11,
            threads: 2,
        }
    }

    /// Overrides the workload scale factor.
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.suite = self.suite.with_scale(scale);
        self
    }

    /// Generates the suite and runs both sweeps, producing the shared data
    /// every experiment consumes. Each benchmark is generated, interned and
    /// profiled in one pool task, and only its columns are kept
    /// ([`SuiteRunner::intern_suite`]). The columns are shared by the PAs
    /// and GAs sweeps, which run on the work-stealing grid as one *fused*
    /// multi-history task per benchmark — every history-curve figure
    /// (fig3/fig4, fig9–12, …) is backed by a single pass per benchmark per
    /// family, bit-identical to the per-history runs.
    pub fn prepare(&self) -> SuiteData {
        let runner = SuiteRunner::new(self.suite)
            .with_benchmarks(self.benchmarks.clone())
            .with_threads(self.threads);
        let (interned, profile) = runner.intern_suite();
        let pas = runner.run_sweep_interned(&interned, PredictorFamily::PAs, &self.histories);
        let gas = runner.run_sweep_interned(&interned, PredictorFamily::GAs, &self.histories);
        SuiteData {
            interned,
            profile,
            pas,
            gas,
        }
    }
}

/// Columns, profile and sweeps shared by all experiments.
#[derive(Debug, Clone)]
pub struct SuiteData {
    /// One interned trace (conditional columns with dense static-branch ids)
    /// per benchmark, in Table 1 order.
    pub interned: Vec<InternedTrace>,
    /// Merged per-branch profile of the whole suite.
    pub profile: ProgramProfile,
    /// PAs history sweep over the whole suite.
    pub pas: SweepResult,
    /// GAs history sweep over the whole suite.
    pub gas: SweepResult,
}

/// Table 1: the benchmark inventory (paper counts vs. generated counts).
pub fn table1(ctx: &ExperimentContext, data: &SuiteData) -> (Vec<(String, u64, u64)>, String) {
    let rows: Vec<(String, u64, u64)> = ctx
        .benchmarks
        .iter()
        .zip(&data.interned)
        .map(|(bench, trace)| {
            (
                bench.label(),
                bench.paper_dynamic_branches,
                trace.len() as u64,
            )
        })
        .collect();
    let rendered = report::ascii_table(
        &[
            "benchmark(input)".to_string(),
            "paper dynamic branches".to_string(),
            "generated dynamic branches".to_string(),
        ],
        &rows
            .iter()
            .map(|(label, paper, generated)| {
                vec![label.clone(), paper.to_string(), generated.to_string()]
            })
            .collect::<Vec<_>>(),
    );
    (
        rows,
        format!(
            "Table 1 — benchmark inventory (scale {})\n{rendered}",
            ctx.suite.scale
        ),
    )
}

/// Table 2: the joint class distribution plus the §4.2 coverage analysis.
pub fn table2(
    ctx: &ExperimentContext,
    data: &SuiteData,
) -> (JointClassTable, ClassificationAnalysis, String) {
    let table = JointClassTable::from_profile(&data.profile, ctx.scheme);
    let analysis = ClassificationAnalysis::from_table(&table);
    let mut out = report::render_joint_table(
        "Table 2 — percent of dynamic branches per joint (taken, transition) class",
        &table,
    );
    out.push_str(&format!(
        "\nEasy coverage by taken rate (classes 0,10):        {:6.2}%  (paper: {:.2}%)\n\
         Easy coverage by transition rate, GAs (0,1):        {:6.2}%  (paper: {:.2}%)\n\
         Easy coverage by transition rate, PAs (0,1,9,10):   {:6.2}%  (paper: {:.2}%)\n\
         Misclassified as hard by taken rate (GAs view):     {:6.2}%  (paper: {:.2}%)\n\
         Misclassified as hard by taken rate (PAs view):     {:6.2}%  (paper: {:.2}%)\n",
        analysis.taken_easy_coverage,
        PAPER_TAKEN_EASY_COVERAGE,
        analysis.transition_easy_coverage_gas,
        PAPER_TRANSITION_EASY_COVERAGE_GAS,
        analysis.transition_easy_coverage_pas,
        PAPER_TRANSITION_EASY_COVERAGE_PAS,
        analysis.misclassified_gas,
        PAPER_MISCLASSIFIED_GAS,
        analysis.misclassified_pas,
        PAPER_MISCLASSIFIED_PAS,
    ));
    (table, analysis, out)
}

/// Figure 1: percent of dynamic branches per taken-rate class.
pub fn fig1(ctx: &ExperimentContext, data: &SuiteData) -> (ClassDistribution, String) {
    let dist = ClassDistribution::from_profile(&data.profile, Metric::TakenRate, ctx.scheme);
    let rendered = report::render_distribution(
        "Figure 1 — percent of dynamic branches per taken rate class",
        &dist,
    );
    (dist, rendered)
}

/// Figure 2: percent of dynamic branches per transition-rate class.
pub fn fig2(ctx: &ExperimentContext, data: &SuiteData) -> (ClassDistribution, String) {
    let dist = ClassDistribution::from_profile(&data.profile, Metric::TransitionRate, ctx.scheme);
    let rendered = report::render_distribution(
        "Figure 2 — percent of dynamic branches per transition rate class",
        &dist,
    );
    (dist, rendered)
}

fn optimal_rate_rows(
    scheme: BinningScheme,
    pas: &ClassHistoryMatrix,
    gas: &ClassHistoryMatrix,
) -> Vec<Vec<String>> {
    scheme
        .classes()
        .map(|class| {
            let fmt = |matrix: &ClassHistoryMatrix| match matrix.optimal_history(class) {
                Some((h, rate)) => format!("{rate:.3} (h={h})"),
                None => "-".to_string(),
            };
            vec![class.index().to_string(), fmt(pas), fmt(gas)]
        })
        .collect()
}

/// Figure 3: PAs and GAs miss rates per taken-rate class at the per-class
/// optimal history length.
pub fn fig3(
    ctx: &ExperimentContext,
    data: &SuiteData,
) -> (ClassHistoryMatrix, ClassHistoryMatrix, String) {
    let pas = data
        .pas
        .class_history_matrix(&data.profile, Metric::TakenRate, ctx.scheme);
    let gas = data
        .gas
        .class_history_matrix(&data.profile, Metric::TakenRate, ctx.scheme);
    let rendered = format!(
        "Figure 3 — miss rates by taken rate class (optimal history per class)\n{}",
        report::ascii_table(
            &[
                "taken class".to_string(),
                "PAs".to_string(),
                "GAs".to_string()
            ],
            &optimal_rate_rows(ctx.scheme, &pas, &gas),
        )
    );
    (pas, gas, rendered)
}

/// Figure 4: the same comparison for transition-rate classes.
pub fn fig4(
    ctx: &ExperimentContext,
    data: &SuiteData,
) -> (ClassHistoryMatrix, ClassHistoryMatrix, String) {
    let pas = data
        .pas
        .class_history_matrix(&data.profile, Metric::TransitionRate, ctx.scheme);
    let gas = data
        .gas
        .class_history_matrix(&data.profile, Metric::TransitionRate, ctx.scheme);
    let rendered = format!(
        "Figure 4 — miss rates by transition rate class (optimal history per class)\n{}",
        report::ascii_table(
            &[
                "transition class".to_string(),
                "PAs".to_string(),
                "GAs".to_string(),
            ],
            &optimal_rate_rows(ctx.scheme, &pas, &gas),
        )
    );
    (pas, gas, rendered)
}

/// Figures 5–8: miss-rate colormaps over class × history length.
///
/// `family` selects PAs (Figures 5–6) or GAs (Figures 7–8); `metric` selects
/// taken-rate (Figures 5, 7) or transition-rate (Figures 6, 8) classes.
pub fn fig5_to_8(
    ctx: &ExperimentContext,
    data: &SuiteData,
    family: PredictorFamily,
    metric: Metric,
) -> (ClassHistoryMatrix, String) {
    let sweep = match family {
        PredictorFamily::PAs => &data.pas,
        PredictorFamily::GAs => &data.gas,
    };
    let matrix = sweep.class_history_matrix(&data.profile, metric, ctx.scheme);
    let figure = match (family, metric) {
        (PredictorFamily::PAs, Metric::TakenRate) => "Figure 5",
        (PredictorFamily::PAs, Metric::TransitionRate) => "Figure 6",
        (PredictorFamily::GAs, Metric::TakenRate) => "Figure 7",
        (PredictorFamily::GAs, Metric::TransitionRate) => "Figure 8",
    };
    let title = format!(
        "{figure} — {} miss rates by {} class and branch history length",
        family.label(),
        metric.label()
    );
    let rendered = report::render_class_history_matrix(&title, &matrix);
    (matrix, rendered)
}

/// Figures 9–12: miss rate vs. history length curves for classes 0, 1, 9, 10.
pub fn fig9_to_12(
    ctx: &ExperimentContext,
    data: &SuiteData,
    family: PredictorFamily,
    metric: Metric,
) -> (ClassHistoryMatrix, String) {
    let (matrix, _) = fig5_to_8(ctx, data, family, metric);
    let figure = match (family, metric) {
        (PredictorFamily::PAs, Metric::TakenRate) => "Figure 9",
        (PredictorFamily::PAs, Metric::TransitionRate) => "Figure 10",
        (PredictorFamily::GAs, Metric::TakenRate) => "Figure 11",
        (PredictorFamily::GAs, Metric::TransitionRate) => "Figure 12",
    };
    let last = ctx.scheme.class_count() - 1;
    let classes = [0, 1, last - 1, last];
    let title = format!(
        "{figure} — {} miss rates by history length for {} classes 0, 1, {}, {}",
        family.label(),
        metric.label(),
        last - 1,
        last
    );
    let rendered = report::render_history_curves(&title, &matrix, &classes);
    (matrix, rendered)
}

/// Figures 13–14: joint-class miss-rate colormaps at per-cell optimal history.
pub fn fig13_14(
    ctx: &ExperimentContext,
    data: &SuiteData,
    family: PredictorFamily,
) -> (JointMissMatrix, String) {
    let sweep = match family {
        PredictorFamily::PAs => &data.pas,
        PredictorFamily::GAs => &data.gas,
    };
    let matrix = sweep.joint_miss_matrix(&data.profile, ctx.scheme);
    let figure = match family {
        PredictorFamily::PAs => "Figure 13",
        PredictorFamily::GAs => "Figure 14",
    };
    let title = format!(
        "{figure} — {} miss rates for each joint class (optimal history per class)",
        family.label()
    );
    let rendered = report::render_joint_miss_matrix(&title, &matrix);
    (matrix, rendered)
}

/// Figure 15: relative distribution of the dynamic distance between
/// consecutive hard-to-predict (5/5 class) branches, per benchmark.
pub fn fig15(
    ctx: &ExperimentContext,
    data: &SuiteData,
) -> (Vec<(String, DistanceHistogram)>, String) {
    let mut rows = Vec::new();
    let mut table_rows = Vec::new();
    for (bench, trace) in ctx.benchmarks.iter().zip(&data.interned) {
        let profile = ProgramProfile::from_interned(trace);
        let hard =
            HardBranchSet::from_profile(&profile, ctx.scheme, HardBranchCriteria::paper_5_5());
        let hist = DistanceHistogram::paper_buckets(trace.records().addrs(), &hard);
        let label = bench.label();
        let mut row = vec![label.clone()];
        row.extend(hist.percentages().iter().map(|p| format!("{p:.1}")));
        table_rows.push(row);
        rows.push((label, hist));
    }
    let mut headers = vec!["benchmark".to_string()];
    headers.extend((1..=7).map(|d| format!("d={d}")));
    headers.push("d=8+".to_string());
    let rendered = format!(
        "Figure 15 — relative distribution of class 5/5 branch distances (percent of pairs)\n{}",
        report::ascii_table(&headers, &table_rows)
    );
    (rows, rendered)
}

/// Ablation A1: how the choice of binning scheme changes the headline
/// misclassification numbers.
pub fn ablation_binning(data: &SuiteData) -> (Vec<(String, ClassificationAnalysis)>, String) {
    let schemes = [
        BinningScheme::Paper11,
        BinningScheme::Uniform(11),
        BinningScheme::Chang6,
    ];
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for scheme in schemes {
        let table = JointClassTable::from_profile(&data.profile, scheme);
        let analysis = ClassificationAnalysis::from_table(&table);
        rows.push(vec![
            scheme.to_string(),
            format!("{:.2}", analysis.taken_easy_coverage),
            format!("{:.2}", analysis.transition_easy_coverage_pas),
            format!("{:.2}", analysis.misclassified_pas),
        ]);
        results.push((scheme.to_string(), analysis));
    }
    let rendered = format!(
        "Ablation A1 — binning scheme sensitivity\n{}",
        report::ascii_table(
            &[
                "scheme".to_string(),
                "taken-easy %".to_string(),
                "transition-easy (PAs) %".to_string(),
                "misclassified %".to_string(),
            ],
            &rows,
        )
    );
    (results, rendered)
}

/// One A2 row: `label` and the suite miss rate of a fresh predictor from
/// `make` per interned trace, one [`WorkStealingPool`] task per trace on
/// `ctx.threads` workers, the overall statistics merged in trace order.
fn suite_miss_row<P, F>(
    ctx: &ExperimentContext,
    data: &SuiteData,
    label: &str,
    make: F,
) -> (String, f64)
where
    P: BranchPredictor,
    F: Fn() -> P + Sync,
{
    let engine = SimEngine::new();
    let pool = WorkStealingPool::new(ctx.threads);
    let partials = pool.run(data.interned.iter().collect(), |_, trace| {
        engine.run(trace, &mut make()).overall
    });
    (
        label.to_string(),
        column_sums(&partials).miss_rate().unwrap_or(0.0),
    )
}

/// Ablation A2: the classification-guided hybrid of §5.4 against same-budget
/// baselines.
pub fn ablation_hybrid(ctx: &ExperimentContext, data: &SuiteData) -> (Vec<(String, f64)>, String) {
    let advisor = HybridAdvisor::new(ctx.scheme);
    // PAs(h=8) and GAs(h=12) run here too rather than being read from
    // `data.pas` / `data.gas`: a context's sweep need not include those
    // history lengths, and one driver keeps every row on the same path.
    let results = vec![
        suite_miss_row(ctx, data, "classified hybrid (§5.4)", || {
            advisor.build_hybrid(&data.profile)
        }),
        suite_miss_row(ctx, data, "gshare(h=12)", || {
            GsharePredictor::paper_sized(12)
        }),
        suite_miss_row(ctx, data, "mcfarling(PAs8,GAs12)", || {
            McFarlingHybrid::new(
                TwoLevelPredictor::pas_paper(8),
                TwoLevelPredictor::gas_paper(12),
                14,
            )
        }),
        suite_miss_row(ctx, data, "PAs(h=8)", || TwoLevelPredictor::pas_paper(8)),
        suite_miss_row(ctx, data, "GAs(h=12)", || TwoLevelPredictor::gas_paper(12)),
    ];

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, rate)| vec![name.clone(), format!("{rate:.4}")])
        .collect();
    let rendered = format!(
        "Ablation A2 — classification-guided hybrid vs baselines (suite miss rate)\n{}",
        report::ascii_table(&["predictor".to_string(), "miss rate".to_string()], &rows)
    );
    (results, rendered)
}

/// Ablation A3: class-based confidence (§5.3) against Jacobsen's dynamic
/// estimators, driving a GAs(h=8) predictor.
pub fn ablation_confidence(
    ctx: &ExperimentContext,
    data: &SuiteData,
) -> (Vec<(String, ConfidenceStats)>, String) {
    let mut class_based = ClassConfidence::from_profile(&data.profile, ctx.scheme, 0.25);
    let mut one_level = JacobsenOneLevel::new(12, 4);
    let mut two_level = JacobsenTwoLevel::new(12, 4, 4);
    let mut stats = vec![
        ("class-based (§5.3)".to_string(), ConfidenceStats::new()),
        ("jacobsen one-level".to_string(), ConfidenceStats::new()),
        ("jacobsen two-level".to_string(), ConfidenceStats::new()),
    ];
    for trace in &data.interned {
        let mut predictor = TwoLevelPredictor::gas_paper(8);
        // Re-run the columns record by record so each estimator sees the
        // same correctness stream the predictor produces (`access` is
        // predict-then-update). The estimators carry their tables from one
        // trace to the next, so this stays sequential.
        for (addr, _, outcome) in trace.records().iter() {
            let correct = predictor.access(addr, outcome);
            stats[0].1.record(class_based.estimate(addr), correct);
            class_based.update(addr, correct);
            stats[1].1.record(one_level.estimate(addr), correct);
            one_level.update(addr, correct);
            stats[2].1.record(two_level.estimate(addr), correct);
            two_level.update(addr, correct);
        }
    }
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|(name, s)| {
            vec![
                name.clone(),
                format!("{:.3}", s.misprediction_coverage().unwrap_or(0.0)),
                format!("{:.3}", s.low_confidence_accuracy().unwrap_or(0.0)),
                format!("{:.3}", s.low_fraction().unwrap_or(0.0)),
            ]
        })
        .collect();
    let rendered = format!(
        "Ablation A3 — confidence estimation quality (GAs h=8 predictions)\n{}",
        report::ascii_table(
            &[
                "estimator".to_string(),
                "misprediction coverage".to_string(),
                "low-confidence accuracy".to_string(),
                "fraction flagged low".to_string(),
            ],
            &rows,
        )
    );
    (stats, rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_core::class::ClassId;

    /// Preparing the quick suite involves generating four traces and running
    /// two history sweeps; share it across the tests in this module.
    fn quick_data() -> (ExperimentContext, SuiteData) {
        use std::sync::OnceLock;
        static DATA: OnceLock<(ExperimentContext, SuiteData)> = OnceLock::new();
        DATA.get_or_init(|| {
            let ctx = ExperimentContext::quick();
            let data = ctx.prepare();
            (ctx, data)
        })
        .clone()
    }

    #[test]
    fn quick_context_prepares_consistent_data() {
        let (ctx, data) = quick_data();
        assert_eq!(data.interned.len(), ctx.benchmarks.len());
        assert!(data.profile.total_dynamic() > 0);
        assert_eq!(data.pas.history_lengths(), ctx.histories);
        assert_eq!(data.gas.history_lengths(), ctx.histories);
    }

    #[test]
    fn table1_reports_generated_counts() {
        let (ctx, data) = quick_data();
        let (rows, rendered) = table1(&ctx, &data);
        assert_eq!(rows.len(), ctx.benchmarks.len());
        assert!(rows
            .iter()
            .all(|(_, paper, generated)| *paper > 0 && *generated > 0));
        assert!(rendered.contains("Table 1"));
        assert!(rendered.contains("compress(bigtest.in)"));
    }

    #[test]
    fn table2_reproduces_the_papers_coverage_ordering() {
        let (ctx, data) = quick_data();
        let (table, analysis, rendered) = table2(&ctx, &data);
        assert!((table.total_percentage() - 100.0).abs() < 1e-6);
        // The paper's qualitative claims: transition-rate classification
        // certifies more of the dynamic stream as easy than taken rate does.
        assert!(analysis.transition_easy_coverage_gas > analysis.taken_easy_coverage);
        assert!(analysis.transition_easy_coverage_pas >= analysis.transition_easy_coverage_gas);
        assert!(analysis.misclassified_pas > 0.0);
        // And within shouting distance of the published numbers even at tiny scale.
        assert!((analysis.taken_easy_coverage - 62.90).abs() < 12.0);
        assert!((analysis.transition_easy_coverage_pas - 72.19).abs() < 12.0);
        assert!(rendered.contains("Table 2"));
    }

    #[test]
    fn fig1_and_fig2_have_the_papers_shape() {
        let (ctx, data) = quick_data();
        let (taken, r1) = fig1(&ctx, &data);
        let (transition, r2) = fig2(&ctx, &data);
        // Taken-rate distribution is bimodal: classes 0 and 10 dominate.
        let taken_pct = taken.percentages();
        assert!(taken_pct[0] + taken_pct[10] > 45.0);
        // Transition-rate distribution is heavily skewed to class 0.
        let transition_pct = transition.percentages();
        assert!(transition_pct[0] > 45.0);
        assert!(transition_pct[0] > taken_pct[0]);
        assert!(r1.contains("Figure 1") && r2.contains("Figure 2"));
    }

    #[test]
    fn fig3_fig4_show_easy_classes_predicted_well() {
        let (ctx, data) = quick_data();
        let (pas_taken, _gas_taken, r3) = fig3(&ctx, &data);
        let (pas_transition, _gas_transition, r4) = fig4(&ctx, &data);
        // Taken classes 0 and 10 are easy.
        let easy0 = pas_taken.optimal_history(ClassId(0)).unwrap().1;
        let easy10 = pas_taken.optimal_history(ClassId(10)).unwrap().1;
        assert!(easy0 < 0.12, "taken class 0 optimal miss {easy0}");
        assert!(easy10 < 0.12, "taken class 10 optimal miss {easy10}");
        // Transition class 10 is easy for PAs with some history.
        if let Some((h, rate)) = pas_transition.optimal_history(ClassId(10)) {
            assert!(h >= 1);
            assert!(rate < 0.15, "transition class 10 optimal miss {rate}");
        }
        assert!(r3.contains("Figure 3") && r4.contains("Figure 4"));
    }

    #[test]
    fn fig5_to_12_render_for_both_families_and_metrics() {
        let (ctx, data) = quick_data();
        for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
            for metric in [Metric::TakenRate, Metric::TransitionRate] {
                let (matrix, rendered) = fig5_to_8(&ctx, &data, family, metric);
                assert_eq!(matrix.history_lengths(), ctx.histories);
                assert!(rendered.contains("Figure"));
                let (_, curves) = fig9_to_12(&ctx, &data, family, metric);
                assert!(curves.contains("class 10"));
            }
        }
    }

    #[test]
    fn fig6_shows_zero_history_failing_on_high_transition_classes() {
        let (ctx, data) = quick_data();
        let (matrix, _) = fig5_to_8(&ctx, &data, PredictorFamily::PAs, Metric::TransitionRate);
        // With zero history, high-transition branches defeat the per-address
        // 2-bit counters (the §4.2 observation). On an alternating stream a
        // 2-bit counter has two phase-dependent attractors: the weak-weak
        // ping-pong misses 100%, while the strong/weak cycle misses 50% —
        // and class 10 spans transition rates 95-100%, where the occasional
        // repeated outcome re-syncs the counter into a strong state and the
        // 50%-miss cycle. The suite therefore measures just under 0.5 here,
        // so the bound certifies "counters are defeated" (~0.5), not the
        // 1-bit last-direction model's near-100%.
        if let Some(rate0) = matrix.miss_at(ClassId(10), 0) {
            let rate2 = matrix.miss_at(ClassId(10), 2).unwrap();
            assert!(rate0 > 0.4, "zero-history miss on class 10 was {rate0}");
            assert!(rate2 < rate0, "history should help class 10");
        }
    }

    #[test]
    fn fig13_14_locate_the_hard_centre() {
        let (ctx, data) = quick_data();
        for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
            let (matrix, rendered) = fig13_14(&ctx, &data, family);
            // The hard centre (5/5) must be among the worst-predicted cells,
            // and the worst cell must not be one of the easy corners. (At the
            // tiny test scale thinly populated mid cells can edge out 5/5, so
            // the assertion is on the region, not the exact cell.)
            let centre = matrix.miss_at(ClassId(5), ClassId(5)).unwrap();
            assert!(centre > 0.3, "{} 5/5 miss rate {centre}", family.label());
            let (taken, transition, rate) =
                crate::sweep::test_support::worst_cell(&matrix).unwrap();
            assert!(
                (2..=8).contains(&taken.index()) && (2..=8).contains(&transition.index()),
                "{} worst cell at ({taken}, {transition})",
                family.label()
            );
            assert!(rate > 0.25);
            // The biased corner is well predicted.
            if let Some(corner) = matrix.miss_at(ClassId(10), ClassId(0)) {
                assert!(corner < 0.1);
            }
            assert!(rendered.contains("legend"));
        }
    }

    #[test]
    fn fig15_shows_ijpeg_clustering() {
        let (ctx, data) = quick_data();
        let (rows, rendered) = fig15(&ctx, &data);
        assert_eq!(rows.len(), ctx.benchmarks.len());
        assert!(rendered.contains("Figure 15"));
        let close_share = |label_prefix: &str| {
            rows.iter()
                .find(|(label, _)| label.starts_with(label_prefix))
                .map(|(_, hist)| hist.percent_closer_than(4))
                .unwrap_or(0.0)
        };
        // ijpeg's hard branches cluster; compress's do not (paper Figure 15).
        let ijpeg = close_share("ijpeg");
        let compress = close_share("compress");
        assert!(
            ijpeg > compress,
            "ijpeg close-pair share {ijpeg} should exceed compress {compress}"
        );
    }

    #[test]
    fn ablations_produce_comparable_results() {
        let (ctx, data) = quick_data();
        let (binning, r1) = ablation_binning(&data);
        assert_eq!(binning.len(), 3);
        assert!(r1.contains("Ablation A1"));

        let (hybrid, r2) = ablation_hybrid(&ctx, &data);
        assert_eq!(hybrid.len(), 5);
        assert!(hybrid.iter().all(|(_, rate)| (0.0..=1.0).contains(rate)));
        // The classified hybrid must be competitive with the plain two-level
        // baselines (it routes easy branches to cheap components).
        let classified = hybrid[0].1;
        let gas = hybrid[4].1;
        assert!(
            classified < gas + 0.05,
            "classified {classified} vs GAs {gas}"
        );
        assert!(r2.contains("Ablation A2"));
        // The per-trace tasks merge in trace order: one worker gives the same
        // rows as the pool.
        let sequential = ExperimentContext {
            threads: 1,
            ..ctx.clone()
        };
        assert_eq!(ablation_hybrid(&sequential, &data).0, hybrid);

        let (confidence, r3) = ablation_confidence(&ctx, &data);
        assert_eq!(confidence.len(), 3);
        for (_, stats) in &confidence {
            assert!(stats.total() > 0);
        }
        // Class-based confidence must flag a meaningful share of the
        // mispredictions (the paper's claim that rates predict accuracy),
        // while leaving most of the stream high-confidence.
        let class_stats = &confidence[0].1;
        let class_cov = class_stats.misprediction_coverage().unwrap_or(0.0);
        let class_low = class_stats.low_fraction().unwrap_or(1.0);
        let overall_miss = (class_stats.low_and_wrong + class_stats.high_but_wrong) as f64
            / class_stats.total() as f64;
        let class_acc = class_stats.low_confidence_accuracy().unwrap_or(0.0);
        assert!(class_cov > 0.12, "class-based coverage {class_cov}");
        assert!(class_low < 0.6, "class-based low fraction {class_low}");
        // The real §5.3 claim: low-confidence flags are strongly enriched in
        // mispredictions relative to the overall miss rate.
        assert!(
            class_acc > overall_miss * 1.5,
            "class-based low-confidence accuracy {class_acc} vs overall miss {overall_miss}"
        );
        assert!(r3.contains("Ablation A3"));
    }
}
