//! Wire-format throughput: encode/decode records-per-second for a large
//! `ProgramProfile` (one record = one static branch) through both codecs,
//! plus the JSON encoding of a `SweepResult` shaped like a `/sweep` reply
//! (one record = one branch at one history length). These are the payloads
//! `btrd` ships per request, so the gate in CI (`scripts/bench_gate.py`)
//! watches them alongside the simulation hot paths.

use btr_core::analysis::BranchMissMap;
use btr_core::profile::{BranchProfile, ProgramProfile};
use btr_predictors::predictor::PredictionStats;
use btr_sim::config::PredictorFamily;
use btr_sim::engine::RunResult;
use btr_sim::sweep::SweepResult;
use btr_trace::BranchAddr;
use btr_wire::{json, Wire};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// A profile shaped like a large merged suite: dense-ish sorted addresses
/// and mixed count magnitudes.
fn synthetic_profile(branches: usize) -> ProgramProfile {
    let mut state = 0x0f0f_1234_cafe_f00du64;
    (0..branches as u64)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let executions = 1 + (state >> 40);
            let taken = state % (executions + 1);
            let transitions = (state >> 17) % executions;
            BranchProfile::new(
                BranchAddr::new(0x0040_0000 + i * 4 + ((state >> 33) & 0x3f) * 4096),
                executions,
                taken,
                transitions,
            )
        })
        .collect()
}

/// Static branches in the synthetic sweep: about the e2ebench go upload's.
const SWEEP_BRANCHES: u64 = 3_700;

/// A PAs h0–16 sweep over [`SWEEP_BRANCHES`] static branches: per history
/// one `addrs`, `lookups` and `hits` column, so the reply is mostly integers.
fn synthetic_sweep() -> SweepResult {
    let mut state = 0x005e_ed0f_5eeb_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 20
    };
    let addrs: Vec<BranchAddr> = (0..SWEEP_BRANCHES)
        .map(|i| BranchAddr::new(0x0040_0000 + i * 16 + (next() & 0x3) * 4))
        .collect();
    let lookups: Vec<u64> = addrs.iter().map(|_| 1 + next() % 4096).collect();
    let parts = (0..=16u32)
        .map(|history| {
            let per_branch: BranchMissMap = addrs
                .iter()
                .zip(&lookups)
                .map(|(&addr, &lookups)| {
                    let hits = lookups - next() % (lookups / 4 + 1);
                    (addr, PredictionStats { lookups, hits })
                })
                .collect();
            let overall = per_branch
                .values()
                .fold(PredictionStats::new(), |mut sum, s| {
                    sum.merge(s);
                    sum
                });
            (
                history,
                RunResult {
                    overall,
                    per_branch,
                },
            )
        })
        .collect();
    SweepResult::from_parts(PredictorFamily::PAs, parts)
}

fn bench_wire_roundtrip(c: &mut Criterion) {
    let profile = synthetic_profile(100_000);
    let branches = profile.static_count();
    let json = profile.to_json().unwrap();
    let btrw = profile.to_btrw();
    eprintln!(
        "profile wire sizes: {} branches, {} JSON bytes, {} BTRW bytes",
        profile.static_count(),
        json.len(),
        btrw.len()
    );

    let mut group = c.benchmark_group("wire_roundtrip");
    group.sample_size(10);
    group.throughput(Throughput::Elements(branches as u64));
    group.bench_function("json_encode/program_profile", |b| {
        b.iter(|| black_box(&profile).to_json().unwrap().len())
    });
    group.bench_function("json_decode/program_profile", |b| {
        b.iter(|| {
            ProgramProfile::from_json(black_box(&json))
                .unwrap()
                .static_count()
        })
    });
    group.bench_function("btrw_encode/program_profile", |b| {
        b.iter(|| black_box(&profile).to_btrw().len())
    });
    group.bench_function("btrw_decode/program_profile", |b| {
        b.iter(|| {
            ProgramProfile::from_btrw(black_box(&btrw))
                .unwrap()
                .static_count()
        })
    });

    // The sweep is lowered to its value tree once, outside the timing:
    // the row times the JSON writer alone, as `btrd`'s encode stage runs it.
    let sweep = synthetic_sweep().to_value();
    let records = 17 * SWEEP_BRANCHES;
    eprintln!(
        "sweep reply: {records} branch-histories, {} JSON bytes",
        json::to_string(&sweep).unwrap().len()
    );
    group.throughput(Throughput::Elements(records));
    group.bench_function("json_encode/sweep_result", |b| {
        b.iter(|| json::to_string(black_box(&sweep)).unwrap().len())
    });
    group.finish();
}

criterion_group!(benches, bench_wire_roundtrip);
criterion_main!(benches);
