//! Calibration tests: the synthetic suite must reproduce the paper's
//! published distribution numbers (Table 2 and its derived coverages) within
//! a modest tolerance once enough dynamic branches are generated.

use btr::prelude::*;
use btr_workloads::table2;

/// Generate a moderately sized subset of the suite (the four largest
/// benchmarks) and merge the profiles.
fn calibrated_profile() -> ProgramProfile {
    let config = SuiteConfig::default()
        .with_scale(4e-6)
        .with_seed(7)
        .with_min_executions_per_branch(300);
    let mut profile = ProgramProfile::new();
    for bench in [
        Benchmark::compress(),
        Benchmark::li(),
        Benchmark::m88ksim(),
        Benchmark::vortex(),
    ] {
        profile.merge(&ProgramProfile::from_interned(
            &bench.generate(&config).intern(),
        ));
    }
    profile
}

#[test]
fn joint_distribution_tracks_table2() {
    let profile = calibrated_profile();
    let table = JointClassTable::from_profile(&profile, BinningScheme::Paper11);
    assert!((table.total_percentage() - 100.0).abs() < 1e-6);

    // The two dominant corners of Table 2 (always-taken and never-taken
    // branches) must dominate here too.
    let class = |t: usize, x: usize| {
        table.percent(btr_core::class::ClassId(t), btr_core::class::ClassId(x))
    };
    assert!(
        (class(10, 0) - table2::cell_percent(10, 0)).abs() < 6.0,
        "cell (10,0): generated {:.2}%, paper {:.2}%",
        class(10, 0),
        table2::cell_percent(10, 0)
    );
    assert!(
        (class(0, 0) - table2::cell_percent(0, 0)).abs() < 6.0,
        "cell (0,0): generated {:.2}%, paper {:.2}%",
        class(0, 0),
        table2::cell_percent(0, 0)
    );
    // The hard centre is a small but non-empty share, as in the paper (1.34%).
    assert!(
        class(5, 5) > 0.2 && class(5, 5) < 5.0,
        "cell (5,5) = {:.2}%",
        class(5, 5)
    );
}

#[test]
fn headline_coverage_numbers_are_close_to_the_paper() {
    let profile = calibrated_profile();
    let table = JointClassTable::from_profile(&profile, BinningScheme::Paper11);
    let analysis = ClassificationAnalysis::from_table(&table);
    // Paper: 62.90% / 71.62% / 72.19% / 8.72% / 9.29%. The synthetic suite is
    // calibrated to Table 2, so these land close (within a few points — the
    // tolerance absorbs sampling noise at reduced scale and per-benchmark
    // perturbations).
    assert!(
        (analysis.taken_easy_coverage - table2::PAPER_TAKEN_EASY_COVERAGE).abs() < 8.0,
        "taken-easy coverage {:.2}%",
        analysis.taken_easy_coverage
    );
    assert!(
        (analysis.transition_easy_coverage_gas - table2::PAPER_TRANSITION_EASY_COVERAGE_GAS).abs()
            < 8.0,
        "transition-easy (GAs) coverage {:.2}%",
        analysis.transition_easy_coverage_gas
    );
    assert!(
        (analysis.transition_easy_coverage_pas - table2::PAPER_TRANSITION_EASY_COVERAGE_PAS).abs()
            < 8.0,
        "transition-easy (PAs) coverage {:.2}%",
        analysis.transition_easy_coverage_pas
    );
    assert!(
        analysis.misclassified_pas > 3.0 && analysis.misclassified_pas < 16.0,
        "misclassified (PAs view) {:.2}%",
        analysis.misclassified_pas
    );
}

#[test]
fn marginal_distributions_match_figures_1_and_2_shape() {
    use btr_core::distribution::{ClassDistribution, Metric};
    let profile = calibrated_profile();
    let scheme = BinningScheme::Paper11;
    let taken = ClassDistribution::from_profile(&profile, Metric::TakenRate, scheme);
    let transition = ClassDistribution::from_profile(&profile, Metric::TransitionRate, scheme);
    let taken_pct = taken.percentages();
    let transition_pct = transition.percentages();
    // Figure 1: bimodal, extremes dominate.
    assert!(
        taken_pct[0] > 15.0,
        "taken class 0 share {:.2}",
        taken_pct[0]
    );
    assert!(
        taken_pct[10] > 25.0,
        "taken class 10 share {:.2}",
        taken_pct[10]
    );
    // Figure 2: transition class 0 alone holds the majority.
    assert!(
        transition_pct[0] > 45.0,
        "transition class 0 share {:.2}",
        transition_pct[0]
    );
    // Middle classes are small in both, as in the paper.
    assert!(taken_pct[5] < 12.0);
    assert!(transition_pct[5] < 12.0);
}

#[test]
fn table1_counts_are_reproduced_exactly_in_the_descriptors() {
    let suite = Benchmark::suite();
    let total: u64 = suite.iter().map(|b| b.paper_dynamic_branches).sum();
    // Spot checks against the paper's Table 1.
    assert_eq!(suite.len(), 34);
    assert_eq!(
        suite
            .iter()
            .find(|b| b.input_set == "bigtest.in")
            .unwrap()
            .paper_dynamic_branches,
        5_641_834_221
    );
    assert_eq!(
        suite
            .iter()
            .find(|b| b.input_set == "9stone21.in")
            .unwrap()
            .paper_dynamic_branches,
        3_838_574_925
    );
    assert_eq!(
        suite
            .iter()
            .find(|b| b.input_set == "scrabbl.pl")
            .unwrap()
            .paper_dynamic_branches,
        3_150_939_854
    );
    // And the scaled counts follow the scale factor.
    let config = SuiteConfig::default().with_scale(1e-6);
    let scaled = suite[0].scaled_dynamic_branches(&config);
    assert!((scaled as f64 - suite[0].paper_dynamic_branches as f64 * 1e-6).abs() < 1.0);
    assert!(total > 45_000_000_000);
}
