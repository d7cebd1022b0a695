//! Hybrid designer: use taken/transition classification to design a hybrid
//! predictor (the paper's §5.4) and compare it against monolithic baselines.
//!
//! Run with: `cargo run --release --example hybrid_designer`

use btr::prelude::*;
use btr::sim::engine::RunResult;
use btr::trace::InternedTrace;
use btr_core::advisor::HybridAdvisor;
use btr_core::report;
use btr_predictors::gshare::GsharePredictor;
use btr_workloads::spec::Benchmark;

/// The suite miss rate of one predictor configuration: a fresh predictor
/// from `make` per trace, statistics merged over the suite. The engine's
/// record loop is monomorphized for each predictor type.
fn suite_miss_rate<P: BranchPredictor>(traces: &[InternedTrace], make: impl Fn() -> P) -> f64 {
    let engine = SimEngine::new();
    let mut merged = RunResult::default();
    for trace in traces {
        merged.merge(&engine.run(trace, &mut make()));
    }
    merged.miss_rate().unwrap_or(0.0)
}

fn main() {
    let config = SuiteConfig::default().with_scale(2e-6).with_seed(9);
    let benchmarks = [Benchmark::vortex(), Benchmark::li(), Benchmark::go()];
    let traces: Vec<_> = benchmarks.iter().map(|b| b.generate(&config)).collect();

    // Profile the whole mini-suite.
    let mut profile = ProgramProfile::new();
    for trace in &traces {
        profile.merge(&ProgramProfile::from_trace(trace));
    }
    let scheme = BinningScheme::Paper11;
    let table = JointClassTable::from_profile(&profile, scheme);

    // Ask the advisor for per-class recommendations.
    let advisor = HybridAdvisor::new(scheme);
    let recommendations = advisor.recommend(&table);
    let rows: Vec<Vec<String>> = recommendations
        .iter()
        .filter(|r| r.dynamic_percent >= 0.5)
        .map(|r| {
            vec![
                format!("({}, {})", r.taken_class, r.transition_class),
                format!("{:?}", r.style),
                r.history_bits.to_string(),
                format!("{:.2}%", r.dynamic_percent),
            ]
        })
        .collect();
    println!(
        "{}",
        report::ascii_table(
            &[
                "joint class (taken, transition)".to_string(),
                "component style".to_string(),
                "history bits".to_string(),
                "dynamic share".to_string(),
            ],
            &rows,
        )
    );

    // Materialise the hybrid and race it against baselines.
    let interned: Vec<InternedTrace> = traces.iter().map(|t| t.intern()).collect();
    let classified = suite_miss_rate(&interned, || advisor.build_hybrid(&profile));
    let gshare = suite_miss_rate(&interned, || GsharePredictor::paper_sized(12));
    let pas = suite_miss_rate(&interned, || {
        TwoLevelPredictor::new(TwoLevelConfig::pas_paper(8))
    });
    let gas = suite_miss_rate(&interned, || {
        TwoLevelPredictor::new(TwoLevelConfig::gas_paper(12))
    });

    println!("\nsuite miss rates:");
    println!("  classification-guided hybrid : {classified:.4}");
    println!("  gshare(h=12)                  : {gshare:.4}");
    println!("  PAs(h=8)                      : {pas:.4}");
    println!("  GAs(h=12)                     : {gas:.4}");
}
