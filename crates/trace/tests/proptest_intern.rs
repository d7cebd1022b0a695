//! Property-based tests for address interning and the cached conditional
//! subset: `intern()` must round-trip addresses and preserve record order for
//! any record mix.

use btr_trace::{BranchAddr, BranchKind, BranchRecord, Outcome, Trace, TraceMetadata};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::Conditional),
        Just(BranchKind::Unconditional),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::Indirect),
    ]
}

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    // A narrow address range forces heavy id reuse; a wide one exercises
    // fresh-id assignment. Mix both.
    let addr = prop_oneof![0u64..0x100u64, 0u64..0x1_0000_0000u64];
    (addr, arb_kind(), any::<bool>()).prop_map(|(addr, kind, taken)| {
        BranchRecord::new(BranchAddr::new(addr), kind, Outcome::from_bool(taken))
    })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(arb_record(), 0..300)
        .prop_map(|records| Trace::from_records(TraceMetadata::named("intern-prop"), records))
}

proptest! {
    #[test]
    fn conditional_cache_equals_filtered_records(trace in arb_trace()) {
        let filtered: Vec<BranchRecord> = trace
            .records()
            .iter()
            .copied()
            .filter(|r| r.kind().is_conditional())
            .collect();
        prop_assert_eq!(trace.conditional_records(), filtered.as_slice());
        prop_assert_eq!(trace.conditional_records().len() as u64, trace.conditional_count());
    }

    #[test]
    fn intern_round_trips_addresses_and_preserves_order(trace in arb_trace()) {
        let interned = trace.intern();
        let conditional = trace.conditional_records();
        prop_assert_eq!(interned.len(), conditional.len());
        for (original, (addr, id, outcome)) in conditional.iter().zip(interned.records().iter()) {
            // Same stream, in order, with ids resolving back to the address.
            prop_assert_eq!(addr, original.addr());
            prop_assert_eq!(outcome, original.outcome());
            prop_assert_eq!(interned.addr_of(id), original.addr());
        }
    }

    #[test]
    fn intern_ids_are_dense_and_first_appearance_ordered(trace in arb_trace()) {
        let interned = trace.intern();
        prop_assert_eq!(interned.static_count(), trace.static_conditional_count());
        prop_assert_eq!(interned.addrs().len(), interned.static_count());
        // The addr table has no duplicates.
        let mut seen = std::collections::BTreeSet::new();
        for addr in interned.addrs() {
            prop_assert!(seen.insert(addr.raw()));
        }
        // Ids appear in nondecreasing first-appearance order: a record's id is
        // at most the number of distinct addresses seen strictly before it.
        let mut distinct = 0u32;
        let mut first_seen = std::collections::BTreeSet::new();
        for (addr, id, _) in interned.records().iter() {
            if first_seen.insert(addr.raw()) {
                prop_assert_eq!(id, distinct);
                distinct += 1;
            } else {
                prop_assert!(id < distinct);
            }
        }
        prop_assert_eq!(distinct as usize, interned.static_count());
    }
}
