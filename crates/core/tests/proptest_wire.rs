//! Property-based wire round-trips for every `Wire`-implementing core type:
//! value → JSON → value and value → BTRW → value must reproduce the value
//! exactly, and re-encoding the decoded value must reproduce the original
//! bytes (byte-identical re-encode is the strongest float check: it cannot
//! pass if any bit of an IEEE double drifted).

use btr_core::analysis::{
    miss_map_from_value, miss_map_to_value, BranchMissMap, ClassHistoryMatrix, ClassMissRates,
    ClassificationAnalysis, JointMissMatrix,
};
use btr_core::class::{BinningScheme, ClassId};
use btr_core::distribution::{ClassDistribution, Metric};
use btr_core::joint::JointClassTable;
use btr_core::profile::{BranchProfile, ProgramProfile};
use btr_predictors::predictor::PredictionStats;
use btr_trace::BranchAddr;
use btr_wire::Wire;
use proptest::prelude::*;
use std::fmt::Debug;

/// The round-trip contract every Wire type must satisfy, through both
/// codecs, including byte-stability of the canonical encodings.
fn assert_wire_roundtrip<T: Wire + PartialEq + Debug>(v: &T) {
    let json = v.to_json().unwrap();
    let via_json = T::from_json(&json).unwrap();
    assert_eq!(&via_json, v, "JSON round-trip of {json}");
    assert_eq!(via_json.to_json().unwrap(), json, "JSON byte-stability");

    let bytes = v.to_btrw();
    let via_btrw = T::from_btrw(&bytes).unwrap();
    assert_eq!(&via_btrw, v, "BTRW round-trip");
    assert_eq!(via_btrw.to_btrw(), bytes, "BTRW byte-stability");

    // Pretty JSON parses back to the same value.
    assert_eq!(&T::from_json(&v.to_json_pretty().unwrap()).unwrap(), v);
}

fn arb_scheme() -> impl Strategy<Value = BinningScheme> {
    prop_oneof![
        Just(BinningScheme::Paper11),
        (1usize..16).prop_map(BinningScheme::Uniform),
        Just(BinningScheme::Chang6),
    ]
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::TakenRate), Just(Metric::TransitionRate)]
}

/// Raw branch counts honouring the profile invariants
/// (`taken ≤ executions`, `transitions < executions` when executed).
fn arb_counts() -> impl Strategy<Value = (u64, u64, u64)> {
    (0u64..100_000, any::<u64>(), any::<u64>()).prop_map(|(execs, t, x)| {
        let taken = if execs == 0 { 0 } else { t % (execs + 1) };
        let transitions = if execs == 0 { 0 } else { x % execs };
        (execs, taken, transitions)
    })
}

fn arb_branch_profile(addrs: impl Strategy<Value = u64>) -> impl Strategy<Value = BranchProfile> {
    (addrs, arb_counts()).prop_map(|(addr, (execs, taken, transitions))| {
        BranchProfile::new(BranchAddr::new(addr), execs, taken, transitions)
    })
}

fn arb_profile(addrs: impl Strategy<Value = u64>) -> impl Strategy<Value = ProgramProfile> {
    proptest::collection::vec(arb_branch_profile(addrs), 0..40)
        .prop_map(|branches| branches.into_iter().collect())
}

fn arb_miss_map(addrs: impl Strategy<Value = u64>) -> impl Strategy<Value = BranchMissMap> {
    proptest::collection::vec((addrs, any::<u64>(), any::<u64>()), 0..40).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(addr, lookups, h)| {
                let lookups = lookups % 1_000_000;
                let hits = if lookups == 0 { 0 } else { h % (lookups + 1) };
                (BranchAddr::new(addr), PredictionStats { lookups, hits })
            })
            .collect()
    })
}

/// 64 word-aligned addresses: profiles and miss maps drawn from this pool
/// share branches, so the class matrices built from them carry rates.
fn pooled_addrs() -> impl Strategy<Value = u64> {
    (0u64..64).prop_map(|a| a * 4)
}

/// Finite doubles from arbitrary bit patterns (subnormals, exact powers of
/// two, signed zeros — everything the uniform strategy would miss).
fn finite_f64(bits: u64) -> f64 {
    let f = f64::from_bits(bits);
    if f.is_finite() {
        f
    } else {
        f64::from_bits(bits & !(1 << 62))
    }
}

proptest! {
    #[test]
    fn class_ids_and_schemes_roundtrip(scheme in arb_scheme(), class in 0usize..64) {
        assert_wire_roundtrip(&scheme);
        assert_wire_roundtrip(&ClassId(class));
    }

    #[test]
    fn branch_and_program_profiles_roundtrip(profile in arb_profile(any::<u64>())) {
        assert_wire_roundtrip(&profile);
        for branch in profile.iter() {
            assert_wire_roundtrip(branch);
        }
        // The derived total is rebuilt, not trusted.
        let back = ProgramProfile::from_btrw(&profile.to_btrw()).unwrap();
        prop_assert_eq!(back.total_dynamic(), profile.total_dynamic());
    }

    #[test]
    fn distributions_and_joint_tables_roundtrip(
        profile in arb_profile(any::<u64>()),
        metric in arb_metric(),
        scheme in arb_scheme(),
    ) {
        assert_wire_roundtrip(&metric);
        assert_wire_roundtrip(&ClassDistribution::from_profile(&profile, metric, scheme));
        assert_wire_roundtrip(&JointClassTable::from_profile(&profile, scheme));
    }

    #[test]
    fn miss_maps_roundtrip(map in arb_miss_map(any::<u64>())) {
        let value = miss_map_to_value(&map);
        let via_json = btr_wire::json::from_str(&btr_wire::json::to_string(&value).unwrap());
        prop_assert_eq!(miss_map_from_value(&via_json.unwrap()).unwrap(), map.clone());
        let via_btrw = btr_wire::btrw::from_bytes(&btr_wire::btrw::to_bytes(&value));
        prop_assert_eq!(miss_map_from_value(&via_btrw.unwrap()).unwrap(), map);
    }

    #[test]
    fn matrices_roundtrip(
        profile in arb_profile(pooled_addrs()),
        metric in arb_metric(),
        scheme in arb_scheme(),
        maps in proptest::collection::vec(arb_miss_map(pooled_addrs()), 1..4),
    ) {
        let runs: Vec<(u32, ClassMissRates)> = maps
            .iter()
            .enumerate()
            .map(|(i, m)| (i as u32, ClassMissRates::aggregate(&profile, metric, scheme, m)))
            .collect();
        assert_wire_roundtrip(&ClassHistoryMatrix::from_runs(&runs));

        let history_runs: Vec<(u32, BranchMissMap)> = maps
            .into_iter()
            .enumerate()
            .map(|(i, m)| (i as u32, m))
            .collect();
        assert_wire_roundtrip(&JointMissMatrix::from_history_runs(
            &profile,
            scheme,
            &history_runs,
        ));
    }

    #[test]
    fn classification_analyses_roundtrip(bits in proptest::collection::vec(any::<u64>(), 5)) {
        // Field-exact floats, including subnormals and signed zeros.
        let analysis = ClassificationAnalysis {
            taken_easy_coverage: finite_f64(bits[0]),
            transition_easy_coverage_gas: finite_f64(bits[1]),
            transition_easy_coverage_pas: finite_f64(bits[2]),
            misclassified_gas: finite_f64(bits[3]),
            misclassified_pas: finite_f64(bits[4]),
        };
        assert_wire_roundtrip(&analysis);
    }
}
