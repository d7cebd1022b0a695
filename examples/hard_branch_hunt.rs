//! Hard branch hunt: identify the 5/5-class branches the paper singles out,
//! measure how close together they occur (Figure 15), and score them as
//! predication / dual-path candidates (§5.2).
//!
//! Run with: `cargo run --release --example hard_branch_hunt`

use btr::prelude::*;
use btr_core::hard::{DistanceHistogram, HardBranchCriteria, HardBranchSet};
use btr_core::predication::{
    select_candidates, PredicationPolicy, PredicationSummary, PredicationVerdict,
};
use btr_workloads::spec::Benchmark;

fn main() {
    let config = SuiteConfig::default().with_scale(2e-6).with_seed(5);
    let scheme = BinningScheme::Paper11;

    for bench in [
        Benchmark::compress(),
        Benchmark::go(),
        Benchmark::ijpeg("vigo.ppm", 1_627_642_253),
    ] {
        let trace = bench.generate(&config).intern();
        let profile = ProgramProfile::from_interned(&trace);
        let hard = HardBranchSet::from_profile(&profile, scheme, HardBranchCriteria::paper_5_5());
        let histogram = DistanceHistogram::paper_buckets(trace.records().addrs(), &hard);

        println!("== {} ==", bench.label());
        println!(
            "hard (5/5) branches: {} static, {:.2}% of dynamic executions",
            hard.static_count(),
            hard.dynamic_percent()
        );
        let pct = histogram.percentages();
        let labels: Vec<String> = (1..=7)
            .map(|d| format!("d={d}"))
            .chain(["d=8+".to_string()])
            .collect();
        for (label, p) in labels.iter().zip(&pct) {
            println!("  {label:>5}: {p:5.1}%");
        }
        println!(
            "  pairs closer than 4 branches apart: {:.1}% (dual-path pressure)",
            histogram.percent_closer_than(4)
        );

        let candidates = select_candidates(&profile, scheme, PredicationPolicy::default());
        let summary = PredicationSummary::from_candidates(&candidates);
        let recommended = candidates
            .iter()
            .filter(|c| c.verdict == PredicationVerdict::Recommend)
            .take(3)
            .collect::<Vec<_>>();
        println!(
            "  predication: {} branches recommended ({:.2}% of dynamic stream, ~{:.2} avoided misses / 100 branches)",
            summary.recommended, summary.recommended_dynamic_percent, summary.avoided_misses_per_100
        );
        for c in recommended {
            println!(
                "    candidate {} — benefit {:.2}, dynamic weight {:.3}%",
                c.addr,
                c.benefit,
                c.dynamic_weight * 100.0
            );
        }
        println!();
    }
}
