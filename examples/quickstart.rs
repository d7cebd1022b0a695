//! Quickstart: generate one synthetic benchmark, classify its branches by
//! taken and transition rate, and see how PAs / GAs predictors fare on the
//! classes the paper highlights.
//!
//! Run with: `cargo run --release --example quickstart`

use btr::prelude::*;
use btr_core::distribution::Metric;
use btr_core::report;

fn main() {
    // 1. Generate a scaled-down synthetic "compress" run (the paper's Table 1
    //    row, shrunk by the scale factor).
    let config = SuiteConfig::default().with_scale(2e-6).with_seed(42);
    let trace = Benchmark::compress().generate(&config);
    println!("generated {trace}");

    // 2. Profile it: per-branch taken and transition rates.
    let profile = ProgramProfile::from_interned(&trace.intern());
    println!(
        "profiled {} static branches, {} dynamic executions\n",
        profile.static_count(),
        profile.total_dynamic()
    );

    // 3. The paper's two classifications and the joint table.
    let scheme = BinningScheme::Paper11;
    let taken = ClassDistribution::from_profile(&profile, Metric::TakenRate, scheme);
    let transition = ClassDistribution::from_profile(&profile, Metric::TransitionRate, scheme);
    println!(
        "{}",
        report::render_distribution("Taken rate classes (cf. Figure 1)", &taken)
    );
    println!(
        "{}",
        report::render_distribution("Transition rate classes (cf. Figure 2)", &transition)
    );
    let table = JointClassTable::from_profile(&profile, scheme);
    let analysis = ClassificationAnalysis::from_table(&table);
    println!(
        "easy by taken rate: {:.2}%   easy by transition rate (PAs view): {:.2}%   misclassified: {:.2}%\n",
        analysis.taken_easy_coverage,
        analysis.transition_easy_coverage_pas,
        analysis.misclassified_pas
    );

    // 4. Simulate the paper's PAs and GAs predictors at a few history lengths
    //    over the interned trace (dense per-branch ids).
    let interned = trace.intern();
    let engine = SimEngine::new();
    for history in [0u32, 2, 8] {
        let mut pas = TwoLevelPredictor::new(TwoLevelConfig::pas_paper(history));
        let mut gas = TwoLevelPredictor::new(TwoLevelConfig::gas_paper(history));
        let pas_result = engine.run(&interned, &mut pas);
        let gas_result = engine.run(&interned, &mut gas);
        println!(
            "history {history:>2}:  PAs miss rate {:>6.3}   GAs miss rate {:>6.3}",
            pas_result.miss_rate().unwrap_or(0.0),
            gas_result.miss_rate().unwrap_or(0.0)
        );
    }
    println!("\nNext: `cargo run --release -p btr-bench --bin reproduce -- all` regenerates every paper artefact.");
}
