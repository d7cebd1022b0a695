//! Equivalence suite for [`SimEngine::run_batch`] and its bit-sliced SWAR
//! tier.
//!
//! Pins the guarantee `run_batch` rests on: running any mix of lanes —
//! families, history sets, lane counts 1..=64, ragged tail lengths,
//! mixed-length traces, warmup boundaries, and lanes that fall back to the
//! scalar path — is **bit-identical**, lane for lane, to a standalone
//! [`SimEngine::run_fused`] of each lane over its trace. The SWAR tier's
//! column blocks, derived counter table and hit-lane staging are
//! performance decisions only; this suite is what keeps them honest.

use btr_predictors::fused::FusedSweepPredictor;
use btr_predictors::swar::MAX_SWAR_IDS;
use btr_sim::engine::{BatchLane, RunResult, SimEngine};
use btr_trace::{BranchAddr, BranchRecord, InternedTrace, Outcome, Trace, TraceBuilder};
use proptest::prelude::*;

/// A synthetic trace mixing biased, alternating and pseudo-random branches
/// over many addresses, parameterised by seed. Lengths are chosen by callers
/// to be ragged: not multiples of the replay block (2048) or the SWAR
/// pipeline chunk (8), so tail lanes are exercised.
fn mixed_trace(n: u64, seed: u64) -> Trace {
    let mut b = TraceBuilder::new("mixed").with_seed(seed);
    let mut state = seed | 1;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((state >> 45) & 0xff) * 4);
        let taken = match i % 3 {
            0 => i % 2 == 0,
            1 => true,
            _ => (state >> 33) & 1 == 1,
        };
        b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
    }
    b.build()
}

/// A trace whose static-branch count exceeds [`MAX_SWAR_IDS`], forcing every
/// lane bound to it down the scalar fallback inside `run_batch`.
fn oversized_static_trace() -> Trace {
    let statics = MAX_SWAR_IDS + 50;
    let mut b = TraceBuilder::new("oversized").with_seed(9);
    for pass in 0..2u64 {
        for i in 0..statics as u64 {
            let addr = BranchAddr::new(0x10_0000 + i * 4);
            let taken = (i ^ pass) & 1 == 0;
            b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
        }
    }
    b.build()
}

/// The lane configurations the suite cycles through: every family, with
/// dense, sparse, singleton and unsorted history sets.
fn lane_config(slot: usize) -> FusedSweepPredictor {
    let histories: Vec<u32> = match slot % 4 {
        0 => (0..=16).collect(),
        1 => vec![0, 3, 16],
        2 => vec![5],
        _ => vec![12, 0, 7],
    };
    match (slot / 4) % 3 {
        0 => FusedSweepPredictor::pas_paper(&histories),
        1 => FusedSweepPredictor::gas_paper(&histories),
        _ => FusedSweepPredictor::gshare_paper(&histories),
    }
}

/// The scalar reference for one lane: a standalone `run_fused` over its
/// trace with a fresh predictor of the same configuration.
fn scalar_reference(
    engine: &SimEngine,
    traces: &[&InternedTrace],
    lanes: &[(usize, usize)],
) -> Vec<Vec<RunResult>> {
    lanes
        .iter()
        .map(|&(trace_index, config)| {
            engine.run_fused(traces[trace_index], &mut lane_config(config))
        })
        .collect()
}

/// Runs `run_batch` over `(trace_index, config)` lane descriptors.
fn batch_results(
    engine: &SimEngine,
    traces: &[&InternedTrace],
    lanes: &[(usize, usize)],
) -> Vec<Vec<RunResult>> {
    let batch: Vec<BatchLane> = lanes
        .iter()
        .map(|&(trace_index, config)| BatchLane::new(trace_index, lane_config(config)))
        .collect();
    engine.run_batch(traces, batch)
}

#[test]
fn single_lane_batch_is_bit_identical_to_run_fused() {
    let engine = SimEngine::new();
    // 2055 crosses a 2048-record replay block with a ragged 7-record tail;
    // 193 never fills a block at all.
    for trace in [mixed_trace(2055, 0xfade), mixed_trace(193, 0xbeef)] {
        let interned = trace.intern();
        for config in 0..12 {
            let reference = engine.run_fused(&interned, &mut lane_config(config));
            let results =
                engine.run_batch(&[&interned], vec![BatchLane::new(0, lane_config(config))]);
            assert_eq!(results.len(), 1);
            assert_eq!(results[0], reference, "lane config {config} diverged");
        }
    }
}

/// Every lane count from 1 to 64, over two mixed-length traces, must match
/// the per-lane scalar runs lane for lane. The 64-lane end of the range also
/// exercises the L2 sub-group partitioning (paper-budget lanes overflow the
/// batch state budget long before 64 lanes).
#[test]
fn every_lane_count_up_to_sixty_four_matches_per_lane_runs() {
    let engine = SimEngine::new();
    let a = mixed_trace(1401, 0xace).intern();
    let b = mixed_trace(603, 0xbed).intern();
    let traces = [&a, &b];
    // Interleave traces and configurations so every prefix mixes both.
    let lanes: Vec<(usize, usize)> = (0..64).map(|i| (i % 2, i)).collect();
    let reference = scalar_reference(&engine, &traces, &lanes);
    for count in 1..=64 {
        let results = batch_results(&engine, &traces, &lanes[..count]);
        assert_eq!(
            results,
            reference[..count],
            "batch of {count} lanes diverged from per-lane scalar runs"
        );
    }
}

#[test]
fn batch_warmup_applies_per_trace_exactly_as_run_fused() {
    let a = mixed_trace(2100, 0xabba).intern();
    let b = mixed_trace(511, 0x0ddba11).intern();
    let traces = [&a, &b];
    let lanes: Vec<(usize, usize)> = (0..6).map(|i| (i % 2, i)).collect();
    // Warmups at zero, mid-block, exactly one block, trace boundaries and
    // beyond either trace.
    for warmup in [0u64, 1, 137, 511, 2048, 2100, 9999] {
        let engine = SimEngine::new().with_warmup(warmup);
        let reference = scalar_reference(&engine, &traces, &lanes);
        let results = batch_results(&engine, &traces, &lanes);
        assert_eq!(results, reference, "diverged at warmup {warmup}");
    }
}

/// Lanes bound to a trace with more static branches than the SWAR id field
/// can address must take the scalar fallback — and stay bit-identical —
/// while lanes on in-range traces in the same batch still use the SWAR tier.
#[test]
fn oversized_static_counts_fall_back_without_diverging() {
    let engine = SimEngine::new();
    let big = oversized_static_trace().intern();
    let small = mixed_trace(777, 0xcafe).intern();
    assert!(
        !lane_config(0).swar_ready(big.static_count()),
        "the oversized trace must actually be outside the SWAR tier"
    );
    assert!(lane_config(0).swar_ready(small.static_count()));
    let traces = [&big, &small];
    let lanes: Vec<(usize, usize)> = vec![(0, 0), (1, 1), (0, 5), (1, 6)];
    let reference = scalar_reference(&engine, &traces, &lanes);
    let results = batch_results(&engine, &traces, &lanes);
    assert_eq!(results, reference);
}

/// A prefix run borrows the trace in place; it must equal a batch lane over
/// the trace truncated at the same point, on both tiers, at every warmup.
#[test]
fn prefix_runs_match_lanes_over_the_truncated_trace() {
    let traces = [
        mixed_trace(2055, 0xf00d).intern(),
        oversized_static_trace().intern(),
    ];
    for trace in &traces {
        for end in [0, 1, 137, 1029, 2048, trace.len(), usize::MAX] {
            let mut truncated = trace.clone();
            truncated.truncate(end);
            for warmup in [0u64, 100, 1029] {
                let engine = SimEngine::new().with_warmup(warmup);
                for config in [0, 5, 10] {
                    let lane = vec![BatchLane::new(0, lane_config(config))];
                    let reference = engine.run_batch(&[&truncated], lane).remove(0);
                    let prefix = engine.run_prefix(trace, end, &mut lane_config(config));
                    assert_eq!(
                        prefix, reference,
                        "end {end} warmup {warmup} config {config}"
                    );
                }
            }
        }
    }
}

#[test]
fn empty_traces_produce_empty_results_per_lane() {
    let engine = SimEngine::new();
    let empty = TraceBuilder::new("empty").build().intern();
    let lanes: Vec<(usize, usize)> = vec![(0, 0), (0, 4), (0, 8)];
    let results = batch_results(&engine, &[&empty], &lanes);
    assert_eq!(results, scalar_reference(&engine, &[&empty], &lanes));
    for (lane, &(_, config)) in results.iter().zip(&lanes) {
        assert_eq!(lane.len(), lane_config(config).slot_count());
        assert!(lane.iter().all(|r| r.overall.lookups == 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary lane mixes over arbitrary ragged-length traces, with
    /// arbitrary warmup, stay bit-identical to the per-lane scalar runs.
    #[test]
    fn batch_identity_holds_for_arbitrary_lane_mixes(
        seed in any::<u64>(),
        len_a in 0u64..1500,
        len_b in 0u64..900,
        picks in proptest::collection::vec((0usize..2, 0usize..12), 1..8),
        warmup in 0u64..300,
    ) {
        let engine = SimEngine::new().with_warmup(warmup);
        let a = mixed_trace(len_a, seed).intern();
        let b = mixed_trace(len_b, seed ^ 0x5bd1e995).intern();
        let traces = [&a, &b];
        let reference = scalar_reference(&engine, &traces, &picks);
        let results = batch_results(&engine, &traces, &picks);
        prop_assert_eq!(results, reference);
    }
}
