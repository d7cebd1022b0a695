//! Equivalence suite for the fused multi-history sweep engine.
//!
//! Pins the guarantee the whole fused subsystem rests on: simulating every
//! history length of a family from **one** trace pass
//! ([`SimEngine::run_fused`], [`SimEngine::run_fused_streamed`]) is
//! **bit-identical** to one full-range [`SimEngine::run_window_dispatch`]
//! pass per history length with the standalone paper predictor — across families (PAs, GAs,
//! gshare), history sets (dense 0..=16, sparse, singleton, unsorted),
//! warmup settings, and arbitrary chunkings of the streamed path.

use btr_predictors::fused::FusedSweepPredictor;
use btr_predictors::swar::MAX_SWAR_IDS;
use btr_sim::config::{PredictorFamily, PredictorKind, WarmupWindow};
use btr_sim::engine::{result_from_dense, RunResult, SimEngine};
use btr_sim::runner::SuiteRunner;
use btr_sim::sweep::HistorySweep;
use btr_trace::io::binary;
use btr_trace::{BranchAddr, BranchRecord, FastBtrtReader, Outcome, Trace, TraceBuilder};
use btr_workloads::spec::{Benchmark, SuiteConfig};
use proptest::prelude::*;

/// A synthetic trace mixing biased, alternating and pseudo-random branches
/// over many addresses, parameterised by seed.
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

/// Records before the wide trace's first new site beyond its first 12 000.
const WIDE_PHASE_ONE: u64 = 25_001;

/// Where [`wide_trace`]'s static-branch count crosses [`MAX_SWAR_IDS`]: the
/// record that introduces its `MAX_SWAR_IDS + 1`-th site.
const WIDE_CROSSING: u64 = WIDE_PHASE_ONE + 2 * (MAX_SWAR_IDS as u64 - 12_000);

/// A trace over 20 000 static branches whose first [`WIDE_PHASE_ONE`]
/// records touch only 12 000 of them, so a planned streamed sweep starts on
/// the SWAR tier and must switch to the scalar tier mid-stream, at
/// [`WIDE_CROSSING`] (inside a chunk for every chunk size the tests use but
/// 1 and whole-trace).
fn wide_trace() -> Trace {
    let mut b = TraceBuilder::new("wide");
    let mut state = 0x5eed_u64;
    for i in 0..WIDE_PHASE_ONE + 16_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let site = if i < WIDE_PHASE_ONE {
            (i * 7919) % 12_000
        } else if i % 2 == WIDE_PHASE_ONE % 2 {
            12_000 + (i - WIDE_PHASE_ONE) / 2
        } else {
            (state >> 40) % 12_000
        };
        let taken = match site % 3 {
            0 => i % 2 == 0,
            1 => true,
            _ => (state >> 33) & 1 == 1,
        };
        b.push(BranchRecord::conditional(
            BranchAddr::new(0x40_0000 + site * 4),
            Outcome::from_bool(taken),
        ));
    }
    let trace = b.build();
    // Ids follow first appearance, so the crossing record carries the first
    // id past the SWAR bound.
    let interned = trace.intern();
    assert_eq!(interned.static_count(), 20_000);
    let crossing_id = interned.records().ids()[WIDE_CROSSING as usize];
    assert_eq!(crossing_id as usize, MAX_SWAR_IDS);
    for chunk_records in [7, 256, 4096] {
        assert_ne!(WIDE_CROSSING % chunk_records, 0, "chunk {chunk_records}");
    }
    trace
}

/// A small but realistic generated benchmark trace.
fn generated_trace() -> Trace {
    Benchmark::compress().generate(
        &SuiteConfig::default()
            .with_scale(5e-8)
            .with_seed(13)
            .with_min_executions_per_branch(50),
    )
}

/// The three fused families, with their per-history standalone counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    PAs,
    GAs,
    Gshare,
}

impl Family {
    fn all() -> [Family; 3] {
        [Family::PAs, Family::GAs, Family::Gshare]
    }

    fn label(self) -> &'static str {
        match self {
            Family::PAs => "PAs",
            Family::GAs => "GAs",
            Family::Gshare => "gshare",
        }
    }

    fn fused(self, histories: &[u32]) -> FusedSweepPredictor {
        match self {
            Family::PAs => FusedSweepPredictor::pas_paper(histories),
            Family::GAs => FusedSweepPredictor::gas_paper(histories),
            Family::Gshare => FusedSweepPredictor::gshare_paper(histories),
        }
    }

    fn kind(self, history: u32) -> PredictorKind {
        match self {
            Family::PAs => PredictorKind::PAsPaper { history },
            Family::GAs => PredictorKind::GAsPaper { history },
            Family::Gshare => PredictorKind::Gshare { history },
        }
    }
}

/// One standalone full-range `run_window_dispatch` pass per history length —
/// the reference the fused single-pass results must match bit for bit.
fn per_history_reference(
    engine: &SimEngine,
    trace: &Trace,
    family: Family,
    histories: &[u32],
) -> Vec<RunResult> {
    let interned = trace.intern();
    histories
        .iter()
        .map(|&h| {
            let mut predictor = family.kind(h).build_dispatch();
            let (len, full) = (interned.len(), WarmupWindow::FullPrefix);
            let dense = engine.run_window_dispatch(&interned, &mut predictor, 0, len, full);
            result_from_dense(dense, interned.addrs())
        })
        .collect()
}

fn history_sets() -> Vec<Vec<u32>> {
    vec![
        (0..=16).collect(), // the paper's dense sweep
        vec![0, 3, 16],     // sparse
        vec![5],            // singleton
        vec![12, 0, 7],     // unsorted: slot order must be preserved
    ]
}

#[test]
fn fused_is_bit_identical_to_per_history_dispatch() {
    let engine = SimEngine::new();
    for trace in [mixed_trace(6000, 0xfade), generated_trace()] {
        let interned = trace.intern();
        for family in Family::all() {
            for histories in history_sets() {
                let reference = per_history_reference(&engine, &trace, family, &histories);
                let mut fused = family.fused(&histories);
                let results = engine.run_fused(&interned, &mut fused);
                assert_eq!(
                    results,
                    reference,
                    "{} diverged on histories {histories:?}",
                    family.label()
                );
            }
        }
    }
}

#[test]
fn fused_honours_warmup_identically() {
    let trace = mixed_trace(3000, 0xabba);
    let interned = trace.intern();
    let histories = vec![0u32, 2, 8, 16];
    for warmup in [0u64, 1, 137, 2999, 3000, 9999] {
        let engine = SimEngine::new().with_warmup(warmup);
        for family in Family::all() {
            let reference = per_history_reference(&engine, &trace, family, &histories);
            let mut fused = family.fused(&histories);
            let results = engine.run_fused(&interned, &mut fused);
            assert_eq!(
                results,
                reference,
                "{} diverged at warmup {warmup}",
                family.label()
            );
        }
    }
}

#[test]
fn streamed_fused_is_bit_identical_to_eager_fused() {
    for trace in [mixed_trace(6000, 0xd00d), generated_trace(), wide_trace()] {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let interned = trace.intern();
        let engine = SimEngine::new();
        let histories: Vec<u32> = (0..=16).collect();
        for family in Family::all() {
            let eager = engine.run_fused(&interned, &mut family.fused(&histories));
            for chunk_records in [1usize, 7, 4096, 10_000_000] {
                let chunks = FastBtrtReader::new(buf.as_slice(), chunk_records).unwrap();
                let streamed = engine
                    .run_fused_streamed(chunks, &mut family.fused(&histories))
                    .unwrap();
                assert_eq!(
                    eager,
                    streamed,
                    "{} diverged at chunk size {chunk_records}",
                    family.label()
                );
            }
        }
    }
}

#[test]
fn streamed_fused_honours_warmup_and_matches_per_history() {
    let cases = [
        (mixed_trace(2500, 0x0ddba11), vec![0u64, 100, 2499, 5000]),
        // Warmups ending before the SWAR → scalar switch, inside the
        // switching chunk, and after it.
        (
            wide_trace(),
            vec![1000, WIDE_CROSSING - 3, WIDE_CROSSING + 3000],
        ),
    ];
    for (trace, warmups) in cases {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let histories = vec![0u32, 4, 12];
        for warmup in warmups {
            let engine = SimEngine::new().with_warmup(warmup);
            for family in Family::all() {
                let reference = per_history_reference(&engine, &trace, family, &histories);
                let chunks = FastBtrtReader::new(buf.as_slice(), 256).unwrap();
                let streamed = engine
                    .run_fused_streamed(chunks, &mut family.fused(&histories))
                    .unwrap();
                assert_eq!(
                    streamed,
                    reference,
                    "{} diverged at warmup {warmup}",
                    family.label()
                );
            }
        }
    }
}

#[test]
fn streamed_fused_propagates_decode_errors() {
    let trace = mixed_trace(500, 0x7ead);
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();
    buf.truncate(buf.len() - 3);
    let chunks = FastBtrtReader::new(buf.as_slice(), 64).unwrap();
    let err = SimEngine::new()
        .run_fused_streamed(chunks, &mut FusedSweepPredictor::gas_paper(&[0, 8]))
        .unwrap_err();
    assert!(
        matches!(err, btr_trace::TraceError::TruncatedRecord { .. }),
        "{err:?}"
    );
}

#[test]
fn fused_empty_trace_produces_one_empty_result_per_slot() {
    let interned = TraceBuilder::new("empty").build().intern();
    let histories = vec![0u32, 4, 16];
    let results =
        SimEngine::new().run_fused(&interned, &mut FusedSweepPredictor::pas_paper(&histories));
    assert_eq!(results.len(), histories.len());
    for result in results {
        assert_eq!(result.overall.lookups, 0);
        assert!(result.per_branch.is_empty());
    }
}

/// The user-facing sweep entry points sit on top of `run_fused`; pin them to
/// the per-history reference too, so a regression in the rewiring (not just
/// the engine) is caught here.
#[test]
fn sweep_entry_points_match_per_history_reference() {
    let engine = SimEngine::new();
    let traces = [mixed_trace(4000, 0xace), mixed_trace(3000, 0xbed)];
    let refs: Vec<&Trace> = traces.iter().collect();
    let histories = vec![0u32, 2, 9, 16];
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        let fam = match family {
            PredictorFamily::PAs => Family::PAs,
            PredictorFamily::GAs => Family::GAs,
        };
        // Merge the per-history reference across traces, as the sweep does.
        let mut reference: Vec<RunResult> = vec![RunResult::default(); histories.len()];
        for trace in &traces {
            for (acc, result) in reference
                .iter_mut()
                .zip(per_history_reference(&engine, trace, fam, &histories))
            {
                acc.merge(&result);
            }
        }
        let sweep = HistorySweep::new(family, histories.clone()).run(&refs);
        let runner = SuiteRunner::new(SuiteConfig::default()).with_threads(3);
        let interned: Vec<_> = traces.iter().map(Trace::intern).collect();
        let grid = runner.run_sweep_interned(&interned, family, &histories);
        for (slot, &history) in histories.iter().enumerate() {
            assert_eq!(
                sweep.per_branch(history).unwrap(),
                &reference[slot].per_branch,
                "{} sweep diverged at h={history}",
                family.label()
            );
            assert_eq!(
                sweep.overall_miss_rate(history),
                reference[slot].miss_rate(),
                "{} sweep overall diverged at h={history}",
                family.label()
            );
            assert_eq!(
                grid.per_branch(history).unwrap(),
                &reference[slot].per_branch,
                "{} grid sweep diverged at h={history}",
                family.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fused_identity_holds_for_arbitrary_workloads_and_history_sets(
        seed in any::<u64>(),
        len in 0u64..1500,
        histories in proptest::collection::vec(0u32..=16, 1..6),
        family_pick in 0usize..3,
        warmup in 0u64..200,
    ) {
        let family = Family::all()[family_pick];
        let trace = mixed_trace(len, seed);
        let engine = SimEngine::new().with_warmup(warmup);
        let reference = per_history_reference(&engine, &trace, family, &histories);
        let results = engine.run_fused(&trace.intern(), &mut family.fused(&histories));
        prop_assert_eq!(results, reference);
    }

    #[test]
    fn streamed_fused_identity_holds_for_arbitrary_chunkings(
        seed in any::<u64>(),
        len in 0u64..1200,
        chunk_records in 1usize..400,
        family_pick in 0usize..3,
    ) {
        let family = Family::all()[family_pick];
        let trace = mixed_trace(len, seed);
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let engine = SimEngine::new();
        let histories = vec![0u32, 5, 16];
        let eager = engine.run_fused(&trace.intern(), &mut family.fused(&histories));
        let chunks = FastBtrtReader::new(buf.as_slice(), chunk_records).unwrap();
        let streamed = engine
            .run_fused_streamed(chunks, &mut family.fused(&histories))
            .unwrap();
        prop_assert_eq!(eager, streamed);
    }
}
