//! Property-based tests for the trace substrate: serialization round-trips
//! and statistics invariants.

mod support;

use btr_trace::io::{binary, text};
use btr_trace::{
    AddrStats, BranchAddr, BranchKind, BranchRecord, Outcome, Trace, TraceBuilder, TraceError,
    TraceMetadata,
};
use btr_wire::Wire;
use proptest::prelude::*;
use support::btrt_reference;

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
    (
        0u64..0x1_0000_0000u64,
        arb_kind(),
        any::<bool>(),
        proptest::option::of(0u64..0x1_0000_0000u64),
    )
        .prop_map(|(addr, kind, taken, target)| {
            let mut r = BranchRecord::new(BranchAddr::new(addr), kind, Outcome::from_bool(taken));
            if let Some(t) = target {
                r = r.with_target(BranchAddr::new(t));
            }
            r
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(arb_record(), 0..200),
        any::<u64>(),
    )
        .prop_map(|(records, seed)| {
            let meta = TraceMetadata::named("prop")
                .with_input_set("fuzz")
                .with_seed(seed);
            Trace::from_records(meta, records)
        })
}

/// Every field of every record survives a `BTRT` round trip, non-conditional
/// kinds and branch targets included: the production decoder keeps only the
/// conditional columns, so the reference decoder checks the rest.
#[test]
fn sample_trace_roundtrips_record_for_record() {
    let mut b = TraceBuilder::new("gcc")
        .with_input_set("cccp.i")
        .with_seed(42);
    b.push(BranchRecord::conditional(
        BranchAddr::new(0x0040_0100),
        Outcome::Taken,
    ));
    b.push(
        BranchRecord::new(
            BranchAddr::new(0x0040_0090),
            BranchKind::Call,
            Outcome::Taken,
        )
        .with_target(BranchAddr::new(0x0041_0000)),
    );
    b.push(BranchRecord::conditional(
        BranchAddr::new(0x0040_0104),
        Outcome::NotTaken,
    ));
    let trace = b.build();
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, &trace).unwrap();

    let back = btrt_reference::read_trace(buf.as_slice()).unwrap();
    assert_eq!(back.records(), trace.records());
    assert_eq!(back.metadata(), trace.metadata());

    let reader = btrt_reference::RecordReader::new(buf.as_slice()).unwrap();
    assert_eq!(reader.declared_count(), 3);
    let records: Vec<_> = reader.map(|r| r.unwrap()).collect();
    assert_eq!(records.as_slice(), trace.records());
}

proptest! {
    #[test]
    fn binary_roundtrip_is_identity(trace in arb_trace()) {
        let mut buf = Vec::new();
        binary::write_trace(&mut buf, &trace).unwrap();
        let back = btrt_reference::read_trace(buf.as_slice()).unwrap();
        prop_assert_eq!(back.records(), trace.records());
        prop_assert_eq!(&back.metadata().benchmark, &trace.metadata().benchmark);
        prop_assert_eq!(back.metadata().seed, trace.metadata().seed);
    }

    #[test]
    fn text_roundtrip_is_identity(trace in arb_trace()) {
        let mut buf = Vec::new();
        text::write_trace(&mut buf, &trace).unwrap();
        let back = support::read_text(buf.as_slice()).unwrap();
        prop_assert_eq!(back.records(), trace.records());
    }

    #[test]
    fn stats_invariants_hold(outcomes in proptest::collection::vec(any::<bool>(), 0..500)) {
        let mut stats = AddrStats::new();
        for taken in &outcomes {
            stats.observe(Outcome::from_bool(*taken));
        }
        let n = outcomes.len() as u64;
        prop_assert_eq!(stats.executions(), n);
        prop_assert!(stats.taken() <= n);
        // A transition needs a predecessor, so there are at most n-1 of them.
        if n > 0 {
            prop_assert!(stats.transitions() < n);
            let tf = stats.taken_fraction().unwrap();
            let xf = stats.transition_fraction().unwrap();
            prop_assert!((0.0..=1.0).contains(&tf));
            prop_assert!((0.0..=1.0).contains(&xf));
        } else {
            prop_assert_eq!(stats.transitions(), 0);
        }
        // Recompute transitions independently.
        let expected_transitions = outcomes.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        prop_assert_eq!(stats.transitions(), expected_transitions);
        let expected_taken = outcomes.iter().filter(|t| **t).count() as u64;
        prop_assert_eq!(stats.taken(), expected_taken);
    }

    #[test]
    fn trace_stats_totals_match_record_counts(trace in arb_trace()) {
        let stats = trace.stats();
        let conditional = trace
            .records()
            .iter()
            .filter(|r| r.kind().is_conditional())
            .count() as u64;
        prop_assert_eq!(stats.total_conditional(), conditional);
        prop_assert_eq!(
            stats.total_other(),
            trace.len() as u64 - conditional
        );
        let per_addr_sum: u64 = stats.iter().map(|(_, s)| s.executions()).sum();
        prop_assert_eq!(per_addr_sum, conditional);
    }

    #[test]
    fn metadata_wire_roundtrip_is_identity(
        seed in proptest::option::of(any::<u64>()),
        words in proptest::collection::vec(any::<u64>(), 3),
    ) {
        // Printable-ASCII names of varying lengths derived from the words.
        let text_of = |word: u64, label: &str| -> String {
            (0..(word % 12))
                .map(|i| char::from(b' ' + ((word >> (i % 8)) % 95) as u8))
                .chain(label.chars())
                .collect()
        };
        let meta = TraceMetadata {
            benchmark: text_of(words[0], "bench"),
            input_set: text_of(words[1], "input"),
            description: text_of(words[2], "desc"),
            seed,
        };
        let via_json = TraceMetadata::from_json(&meta.to_json().unwrap()).unwrap();
        prop_assert_eq!(&via_json, &meta);
        let via_btrw = TraceMetadata::from_btrw(&meta.to_btrw()).unwrap();
        prop_assert_eq!(&via_btrw, &meta);
    }

    #[test]
    fn error_wire_roundtrip_preserves_every_field(
        selector in 0u8..7,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let err = match selector {
            0 => TraceError::BadMagic {
                found: (a as u32).to_le_bytes(),
            },
            1 => TraceError::UnsupportedVersion { found: a as u32 },
            2 => TraceError::UnexpectedEof {
                context: format!("field-{b}"),
            },
            3 => TraceError::TruncatedRecord {
                record: a,
                offset: b,
                context: "address delta".into(),
            },
            4 => TraceError::MalformedLine {
                line: (a % 1_000_000) as usize,
                reason: format!("reason-{b}"),
            },
            5 => TraceError::UnknownKind {
                code: char::from(b' ' + (a % 95) as u8),
            },
            _ => TraceError::CountMismatch {
                declared: a,
                actual: b,
            },
        };
        // TraceError cannot derive PartialEq (its Io variant wraps a live
        // io::Error), so the non-Io variants compare via their Debug views,
        // which expose every field.
        let via_json = TraceError::from_json(&err.to_json().unwrap()).unwrap();
        prop_assert_eq!(format!("{via_json:?}"), format!("{err:?}"));
        let via_btrw = TraceError::from_btrw(&err.to_btrw()).unwrap();
        prop_assert_eq!(format!("{via_btrw:?}"), format!("{err:?}"));
    }

    #[test]
    fn builder_matches_from_records(records in proptest::collection::vec(arb_record(), 0..100)) {
        let mut builder = TraceBuilder::new("cmp");
        builder.extend(records.clone());
        let a = builder.build();
        let b = Trace::from_records(TraceMetadata::named("cmp"), records);
        prop_assert_eq!(a.stats(), b.stats());
    }
}
