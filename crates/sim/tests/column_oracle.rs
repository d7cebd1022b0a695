//! The interned-column path `reproduce` runs on, pinned to the row path it
//! replaced.
//!
//! [`ExperimentContext::prepare`] generates each benchmark, interns it, drops
//! the rows and folds the profile from the columns. For every suite
//! benchmark at two scales this suite regenerates the rows and checks, per
//! benchmark, that the prepared columns, ids and static count equal
//! `generate().intern()` and that the column profile equals the per-record
//! row fold of `btr-trace`'s test support; then that the suite profile is
//! those oracle profiles merged in benchmark order, Table 1 counts the rows'
//! conditional records, and Figure 15's histograms and labels equal a walk
//! over the rows, the way Figure 15 was measured before the columns.

#[path = "../../trace/tests/support/stats_reference.rs"]
mod stats_reference;

use btr_core::class::BinningScheme;
use btr_core::hard::{HardBranchCriteria, HardBranchSet};
use btr_core::profile::{BranchProfile, ProgramProfile};
use btr_sim::experiments::{self, ExperimentContext};
use btr_trace::Trace;
use btr_workloads::spec::{Benchmark, SuiteConfig};
use stats_reference::ReferenceStats;

/// The profile of `trace`'s rows, folded one record at a time.
fn row_profile(trace: &Trace) -> ProgramProfile {
    ReferenceStats::of_trace(trace)
        .per_addr
        .iter()
        .map(|(&addr, c)| BranchProfile::new(addr, c.executions, c.taken, c.transitions))
        .collect()
}

/// Figure 15's bucket percentages measured over `trace`'s rows: the
/// distance, in conditional records, from each hard branch to the previous
/// one, the last bucket pooling every distance of 8 or more.
fn row_distance_percentages(trace: &Trace, hard: &HardBranchSet) -> (u64, Vec<f64>) {
    let mut counts = [0u64; 8];
    let mut total = 0u64;
    let mut since_last: Option<usize> = None;
    for record in trace.iter().filter(|r| r.kind().is_conditional()) {
        if let Some(d) = since_last.as_mut() {
            *d += 1;
        }
        if hard.contains(record.addr()) {
            if let Some(distance) = since_last {
                counts[distance.min(8) - 1] += 1;
                total += 1;
            }
            since_last = Some(0);
        }
    }
    let percentages = counts
        .iter()
        .map(|&c| {
            if total == 0 {
                0.0
            } else {
                c as f64 / total as f64 * 100.0
            }
        })
        .collect();
    (total, percentages)
}

fn check_scale(scale: f64) {
    let ctx = ExperimentContext {
        suite: SuiteConfig::default().with_scale(scale).with_seed(29),
        benchmarks: Benchmark::suite(),
        histories: vec![0, 4],
        scheme: BinningScheme::Paper11,
        threads: 2,
    };
    let data = ctx.prepare();
    assert_eq!(data.interned.len(), ctx.benchmarks.len());
    let (table1, _) = experiments::table1(&ctx, &data);
    let (fig15, _) = experiments::fig15(&ctx, &data);

    let mut merged = ProgramProfile::new();
    let mut hard_pairs = 0;
    for (i, bench) in ctx.benchmarks.iter().enumerate() {
        let label = bench.label();
        let trace = bench.generate(&ctx.suite);
        let columns = &data.interned[i];
        assert_eq!(
            *columns,
            trace.intern(),
            "{label} at {scale}: columns or ids"
        );
        assert_eq!(
            columns.static_count(),
            trace.static_conditional_count(),
            "{label} at {scale}: static count"
        );

        let oracle = row_profile(&trace);
        assert_eq!(
            ProgramProfile::from_interned(columns),
            oracle,
            "{label} at {scale}: profile"
        );
        merged.merge(&oracle);

        assert_eq!(table1[i].0, label);
        assert_eq!(table1[i].2, trace.conditional_count(), "{label}: Table 1");

        let hard =
            HardBranchSet::from_profile(&oracle, ctx.scheme, HardBranchCriteria::paper_5_5());
        let (total, percentages) = row_distance_percentages(&trace, &hard);
        let (fig_label, hist) = &fig15[i];
        assert_eq!(*fig_label, trace.metadata().label(), "Figure 15 label");
        assert_eq!(hist.total(), total, "{label} at {scale}: Figure 15 pairs");
        hard_pairs += total;
        assert_eq!(
            hist.percentages(),
            percentages,
            "{label} at {scale}: Figure 15"
        );
    }
    assert_eq!(data.profile, merged, "suite profile at {scale}");
    eprintln!(
        "scale {scale}: {} records, {} static branches, {hard_pairs} hard pairs",
        data.profile.total_dynamic(),
        data.profile.static_count()
    );
    assert!(hard_pairs > 0, "Figure 15 measured nothing at {scale}");
}

#[test]
fn prepared_columns_match_the_row_path_at_two_scales() {
    for scale in [1e-6, 4e-6] {
        check_scale(scale);
    }
}
