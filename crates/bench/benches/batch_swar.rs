//! Per-history-point cost of the bit-sliced SWAR tier versus the scalar
//! fused sweep it is pinned against.
//!
//! Throughput is declared as `records × history points`, so
//! `per_sec` is directly the history-point throughput and rate ratios are
//! cost-per-point ratios — the same accounting as `fused_sweep`, which makes
//! the `fused/…` rows here directly comparable to the `fused_sweep`
//! baselines recorded in `BENCH_pr5.json`. Two tiers per family:
//!
//! * `fused/…` — the scalar fused single-pass sweep (`run_fused`), re-run in
//!   this group as the in-run reference the gate's ratio floors compare
//!   against (so the check is machine-independent).
//! * `swar/…` — one lane through `run_batch`: the bit-sliced replay, 32
//!   two-bit counters trained per word operation.
//!
//! The SWAR tier's floors over the fused rows are declared ratio pairs: the
//! stand-in interleaves each pair's samples and appends a `min_ratio` row to
//! `$CRITERION_JSON`, which `scripts/bench_gate.py` enforces on the median
//! per-pair ratio within the *current* run.

use btr_predictors::fused::FusedSweepPredictor;
use btr_sim::engine::{BatchLane, SimEngine};
use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceBuilder};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// A trace shaped like the generated suite: a few thousand static branches
/// with mixed biased/alternating/noisy behaviours (same generator as the
/// `fused_sweep` bench, so per-point rates are comparable across groups).
fn synthetic_trace(n: usize) -> Trace {
    let mut b = TraceBuilder::new("batch-swar");
    b.reserve(n);
    let mut state = 0x0f0f_1234_cafe_f00du64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((state >> 21) & 0xfff) * 4);
        let taken = match (state >> 18) & 3 {
            0 => i % 2 == 0,
            1 => true,
            _ => (state >> 41) & 1 == 1,
        };
        b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
    }
    b.build()
}

fn bench_batch_swar(c: &mut Criterion) {
    let trace = synthetic_trace(200_000);
    let interned = trace.intern();
    let histories: Vec<u32> = (0..=16).collect();
    let points = histories.len() as u64;
    let records = interned.len() as u64;
    let engine = SimEngine::new();

    // Regression floors for the SWAR tier's win over the scalar fused path,
    // measured in-run (same box, interleaved samples) so shared-runner
    // wall-clock noise mostly cancels. Observed in-run ratios on the
    // reference box: GAs 1.7–2.15×, gshare 1.6–1.87×, PAs 1.6–2.5×; the
    // floors sit well below the worst observed run so an innocent PR does
    // not flake, while still failing loudly if the tier loses a meaningful
    // slice of its advantage.
    type FusedFactory = fn(&[u32]) -> FusedSweepPredictor;
    let families: Vec<(&str, FusedFactory, f64)> = vec![
        ("PAs", FusedSweepPredictor::pas_paper, 1.4),
        ("GAs", FusedSweepPredictor::gas_paper, 1.5),
        ("gshare", FusedSweepPredictor::gshare_paper, 1.5),
    ];

    let mut group = c.benchmark_group("batch_swar");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records * points));
    for (label, factory, floor) in &families {
        // The SWAR tier: one `run_batch` lane, planned onto SWAR by the same
        // driver that runs every streamed `/sweep`, against the scalar fused
        // reference: identical work and accounting to
        // `fused_sweep/fused/{label}`, re-measured here as the pair's
        // reference.
        group.bench_ratio_pair(
            format!("swar/{label}"),
            || engine.run_batch(&[&interned], vec![BatchLane::new(0, factory(&histories))]),
            format!("fused/{label}"),
            || engine.run_fused(&interned, &mut factory(&histories)),
            *floor,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_swar);
criterion_main!(benches);
