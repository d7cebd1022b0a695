//! `ClassMissRates::aggregate` and `JointMissMatrix::from_history_runs`
//! merge-join the profile with each miss map in address order. These
//! properties pin both to the map-probe reference they replaced: one
//! `misses.get(&addr)` per profiled branch. Addresses come from a small
//! space, so the generated profiles and miss maps overlap, and each side
//! also holds addresses the other lacks.

use btr_core::analysis::{BranchMissMap, ClassMissRates, JointMissMatrix};
use btr_core::class::{BinningScheme, ClassId};
use btr_core::distribution::Metric;
use btr_core::profile::{BranchProfile, ProgramProfile};
use btr_predictors::predictor::PredictionStats;
use btr_trace::BranchAddr;
use proptest::prelude::*;

/// Per-class statistics by one map probe per profiled branch.
fn reference_aggregate(
    profile: &ProgramProfile,
    metric: Metric,
    scheme: BinningScheme,
    misses: &BranchMissMap,
) -> Vec<PredictionStats> {
    let mut stats = vec![PredictionStats::new(); scheme.class_count()];
    for branch in profile.iter() {
        let class = match metric {
            Metric::TakenRate => branch.taken_class(scheme),
            Metric::TransitionRate => branch.transition_class(scheme),
        };
        if let (Some(class), Some(s)) = (class, misses.get(&branch.addr())) {
            stats[class.index()].merge(s);
        }
    }
    stats
}

/// `rates[transition][taken]`: each joint cell's best miss rate over the
/// runs, by one map probe per profiled branch per run.
fn reference_joint(
    profile: &ProgramProfile,
    scheme: BinningScheme,
    runs: &[(u32, BranchMissMap)],
) -> Vec<Vec<Option<f64>>> {
    let n = scheme.class_count();
    let mut per_history = vec![vec![vec![PredictionStats::new(); n]; n]; runs.len()];
    for branch in profile.iter() {
        let Some((taken, transition)) = branch.joint_class(scheme) else {
            continue;
        };
        for (run_idx, (_, misses)) in runs.iter().enumerate() {
            if let Some(s) = misses.get(&branch.addr()) {
                per_history[run_idx][transition.index()][taken.index()].merge(s);
            }
        }
    }
    (0..n)
        .map(|transition| {
            (0..n)
                .map(|taken| {
                    per_history
                        .iter()
                        .filter_map(|h| h[transition][taken].miss_rate())
                        .reduce(f64::min)
                })
                .collect()
        })
        .collect()
}

fn arb_scheme() -> impl Strategy<Value = BinningScheme> {
    prop_oneof![
        Just(BinningScheme::Paper11),
        (1usize..16).prop_map(BinningScheme::Uniform),
        Just(BinningScheme::Chang6),
    ]
}

/// Branches over 64 addresses with valid counts, never-executed ones
/// included (they have no class).
fn arb_profile() -> impl Strategy<Value = ProgramProfile> {
    proptest::collection::vec((0u64..64, 0u64..1_000, any::<u64>(), any::<u64>()), 0..48).prop_map(
        |branches| {
            branches
                .into_iter()
                .map(|(addr, execs, t, x)| {
                    let taken = if execs == 0 { 0 } else { t % (execs + 1) };
                    let transitions = if execs == 0 { 0 } else { x % execs };
                    BranchProfile::new(BranchAddr::new(addr * 4), execs, taken, transitions)
                })
                .collect()
        },
    )
}

/// Statistics over the same 64 addresses as [`arb_profile`].
fn arb_miss_map() -> impl Strategy<Value = BranchMissMap> {
    proptest::collection::vec((0u64..64, 0u64..1_000_000, any::<u64>()), 0..48).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(addr, lookups, h)| {
                    let hits = if lookups == 0 { 0 } else { h % (lookups + 1) };
                    (BranchAddr::new(addr * 4), PredictionStats { lookups, hits })
                })
                .collect()
        },
    )
}

fn bits(rate: Option<f64>) -> Option<u64> {
    rate.map(f64::to_bits)
}

proptest! {
    #[test]
    fn aggregate_matches_map_probe_reference(
        profile in arb_profile(),
        scheme in arb_scheme(),
        misses in arb_miss_map(),
    ) {
        for metric in [Metric::TakenRate, Metric::TransitionRate] {
            let joined = ClassMissRates::aggregate(&profile, metric, scheme, &misses);
            let reference = reference_aggregate(&profile, metric, scheme, &misses);
            let got: Vec<PredictionStats> = scheme.classes().map(|c| joined.stats(c)).collect();
            prop_assert_eq!(got, reference);
        }
    }

    #[test]
    fn joint_matrix_matches_map_probe_reference(
        profile in arb_profile(),
        scheme in arb_scheme(),
        maps in proptest::collection::vec(arb_miss_map(), 1..5),
    ) {
        let runs: Vec<(u32, BranchMissMap)> =
            maps.into_iter().enumerate().map(|(h, m)| (h as u32, m)).collect();
        let joined = JointMissMatrix::from_history_runs(&profile, scheme, &runs);
        let reference = reference_joint(&profile, scheme, &runs);
        for (transition, row) in reference.iter().enumerate() {
            for (taken, rate) in row.iter().enumerate() {
                prop_assert_eq!(
                    bits(joined.miss_at(ClassId(taken), ClassId(transition))),
                    bits(*rate)
                );
            }
        }
    }
}

/// The one-sided cases by hand: a miss entry below, between and above the
/// profiled addresses, and a profiled branch with no miss entry.
#[test]
fn one_sided_addresses_are_skipped() {
    let profile: ProgramProfile = [(0x20, 10, 10, 0), (0x40, 10, 5, 9), (0x60, 10, 0, 0)]
        .into_iter()
        .map(|(addr, e, t, x)| BranchProfile::new(BranchAddr::new(addr), e, t, x))
        .collect();
    let misses: BranchMissMap = [0x10, 0x20, 0x30, 0x40, 0x70]
        .into_iter()
        .map(|addr| {
            let stats = PredictionStats {
                lookups: addr,
                hits: addr / 2,
            };
            (BranchAddr::new(addr), stats)
        })
        .collect();
    let scheme = BinningScheme::Paper11;
    for metric in [Metric::TakenRate, Metric::TransitionRate] {
        let joined = ClassMissRates::aggregate(&profile, metric, scheme, &misses);
        let got: Vec<PredictionStats> = scheme.classes().map(|c| joined.stats(c)).collect();
        assert_eq!(got, reference_aggregate(&profile, metric, scheme, &misses));
        let total: u64 = got.iter().map(|s| s.lookups).sum();
        assert_eq!(total, 0x20 + 0x40, "only 0x20 and 0x40 are on both sides");
    }
}
