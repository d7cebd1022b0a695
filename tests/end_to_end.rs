//! End-to-end integration test: workload generation → simulation → the
//! paper's qualitative claims, exercised through the public facade crate.

use btr::prelude::*;
use btr::sim::config::PredictorFamily;
use btr::sim::sweep::HistorySweep;
use btr_core::class::ClassId;
use btr_core::distribution::Metric;

fn mini_suite() -> (Vec<btr_trace::Trace>, ProgramProfile) {
    let config = SuiteConfig::default()
        .with_scale(2e-6)
        .with_seed(2024)
        .with_min_executions_per_branch(200);
    let traces: Vec<_> = [Benchmark::compress(), Benchmark::li(), Benchmark::m88ksim()]
        .iter()
        .map(|b| b.generate(&config))
        .collect();
    let mut profile = ProgramProfile::new();
    for t in &traces {
        profile.merge(&ProgramProfile::from_interned(&t.intern()));
    }
    (traces, profile)
}

#[test]
fn transition_rate_certifies_more_easy_branches_than_taken_rate() {
    let (_, profile) = mini_suite();
    let table = JointClassTable::from_profile(&profile, BinningScheme::Paper11);
    let analysis = ClassificationAnalysis::from_table(&table);
    // The paper's headline comparison (Section 4.2).
    assert!(
        analysis.transition_easy_coverage_gas > analysis.taken_easy_coverage,
        "GAs-view transition coverage {} should exceed taken coverage {}",
        analysis.transition_easy_coverage_gas,
        analysis.taken_easy_coverage
    );
    assert!(analysis.transition_easy_coverage_pas >= analysis.transition_easy_coverage_gas);
    assert!(analysis.misclassified_pas > 0.0);
}

#[test]
fn pas_handles_high_transition_classes_with_one_or_two_history_bits() {
    let (traces, profile) = mini_suite();
    let refs: Vec<&btr_trace::Trace> = traces.iter().collect();
    let sweep = HistorySweep::new(PredictorFamily::PAs, vec![0, 1, 2, 4]).run(&refs);
    let matrix =
        sweep.class_history_matrix(&profile, Metric::TransitionRate, BinningScheme::Paper11);
    // Transition class 10 exists in the calibrated workload and flips from
    // terrible (zero history) to excellent (>= 1 bit) — the §4.2 observation.
    let at0 = matrix.miss_at(ClassId(10), 0).expect("class 10 populated");
    let at2 = matrix.miss_at(ClassId(10), 2).expect("class 10 populated");
    assert!(at0 >= 0.4, "zero-history miss rate on class 10 was {at0}");
    assert!(
        at2 < 0.15,
        "two-bit-history miss rate on class 10 was {at2}"
    );
    assert!(
        at2 < at0 / 2.0,
        "history should at least halve the class-10 miss rate"
    );
    // Low-transition classes are easy at every history length.
    for h in [0, 2, 4] {
        let rate = matrix.miss_at(ClassId(0), h).expect("class 0 populated");
        assert!(
            rate < 0.12,
            "transition class 0 at history {h} missed {rate}"
        );
    }
}

#[test]
fn joint_5_5_class_is_the_hardest_region_for_both_predictors() {
    let (traces, profile) = mini_suite();
    let refs: Vec<&btr_trace::Trace> = traces.iter().collect();
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        let sweep = HistorySweep::new(family, vec![0, 2, 4, 8]).run(&refs);
        let joint = sweep.joint_miss_matrix(&profile, BinningScheme::Paper11);
        let centre = joint
            .miss_at(ClassId(5), ClassId(5))
            .expect("5/5 class populated");
        assert!(
            centre > 0.3,
            "{} 5/5 miss rate {centre} should stay near 50%",
            family.label()
        );
        // Easy corner: strongly taken, rarely transitioning branches.
        let corner = joint
            .miss_at(ClassId(10), ClassId(0))
            .expect("(10,0) class populated");
        assert!(corner < 0.1, "{} (10,0) miss rate {corner}", family.label());
        assert!(centre > corner * 3.0);
    }
}

#[test]
fn classified_hybrid_is_competitive_with_monolithic_baselines() {
    use btr_core::advisor::HybridAdvisor;
    let (traces, profile) = mini_suite();
    let advisor = HybridAdvisor::new(BinningScheme::Paper11);
    let engine = SimEngine::new();
    let mut hybrid_misses = 0.0;
    let mut gas_misses = 0.0;
    let mut total = 0.0;
    for trace in &traces {
        let trace = trace.intern();
        let mut hybrid = advisor.build_hybrid(&profile);
        let mut gas = TwoLevelPredictor::new(TwoLevelConfig::gas_paper(12));
        let h = engine.run(&trace, &mut hybrid);
        let g = engine.run(&trace, &mut gas);
        hybrid_misses += h.overall.misses() as f64;
        gas_misses += g.overall.misses() as f64;
        total += h.overall.lookups as f64;
    }
    let hybrid_rate = hybrid_misses / total;
    let gas_rate = gas_misses / total;
    assert!(
        hybrid_rate < gas_rate + 0.03,
        "classified hybrid ({hybrid_rate:.3}) should not lose badly to GAs ({gas_rate:.3})"
    );
}
