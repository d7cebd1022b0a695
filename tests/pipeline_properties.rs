//! Cross-crate property tests: invariants that must hold for any workload
//! the generator can produce, plus serialization of whole pipeline inputs.

use btr::prelude::*;
use btr_core::rates::TakenRate;
use btr_trace::io::binary;
use btr_trace::{DenseTraceStats, FastBtrtReader, InternedTrace, DEFAULT_CHUNK_RECORDS};
use btr_workloads::cell::{CellTarget, JointCell};
use btr_workloads::generator::{StaticBranchSpec, WorkloadGenerator};
use proptest::prelude::*;

fn arb_branch_spec(index: u64) -> impl Strategy<Value = Option<StaticBranchSpec>> {
    (
        0usize..11,
        0usize..11,
        50u64..400,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            move |(taken_class, transition_class, executions, predictable, jitter)| {
                let cell = JointCell::new(taken_class, transition_class);
                let mut rng = rand::rngs::StdRng::seed_from_u64(jitter);
                use rand::SeedableRng;
                let target = CellTarget::sample_within(cell, &mut rng)?;
                Some(StaticBranchSpec {
                    addr: btr_trace::BranchAddr::new(0x40_0000 + index * 8),
                    cell,
                    target,
                    executions,
                    predictable,
                })
            },
        )
}

fn arb_workload() -> impl Strategy<Value = (u64, Vec<StaticBranchSpec>)> {
    let specs =
        proptest::collection::vec(any::<prop::sample::Index>(), 1..12).prop_flat_map(|idx| {
            let strategies: Vec<_> = idx
                .iter()
                .enumerate()
                .map(|(i, _)| arb_branch_spec(i as u64))
                .collect();
            strategies
        });
    (any::<u64>(), specs)
        .prop_map(|(seed, specs)| (seed, specs.into_iter().flatten().collect::<Vec<_>>()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever population the generator is given, the resulting trace and
    /// profile obey the structural invariants the analysis relies on.
    #[test]
    fn generated_workloads_satisfy_classification_invariants((seed, specs) in arb_workload()) {
        prop_assume!(!specs.is_empty());
        let mut generator = WorkloadGenerator::new("prop", seed);
        for spec in &specs {
            generator.add_branch(spec.clone());
        }
        let trace = generator.generate();
        let expected: u64 = specs.iter().map(|s| s.executions).sum();
        prop_assert_eq!(trace.conditional_count(), expected);

        let profile = ProgramProfile::from_trace(&trace);
        prop_assert_eq!(profile.total_dynamic(), expected);

        // Every profiled branch satisfies the transition-rate feasibility
        // bound and classifies into a valid class.
        let scheme = BinningScheme::Paper11;
        for branch in profile.iter() {
            let taken = branch.taken_rate().unwrap();
            let transition = branch.transition_rate().unwrap();
            let limit = TakenRate::new(taken.value()).max_transition_rate().value();
            prop_assert!(transition.value() <= limit + 1e-9,
                "transition {} exceeds limit {} for taken {}", transition.value(), limit, taken.value());
            let (t_class, x_class) = branch.joint_class(scheme).unwrap();
            prop_assert!(t_class.index() < 11 && x_class.index() < 11);
        }

        // The joint table always sums to 100% of the dynamic stream.
        let table = JointClassTable::from_profile(&profile, scheme);
        prop_assert!((table.total_percentage() - 100.0).abs() < 1e-6);

        // Transition-easy coverage (PAs view) can never be smaller than the
        // coverage of transition classes 0-1 alone.
        let analysis = ClassificationAnalysis::from_table(&table);
        prop_assert!(analysis.transition_easy_coverage_pas >= analysis.transition_easy_coverage_gas - 1e-9);
        prop_assert!(analysis.misclassified_gas >= -1e-9);
    }

    /// A generated trace survives a binary round-trip through the production
    /// decoder: same metadata, same interned conditional stream, and the
    /// profile of the decoded stream's statistics matches the original.
    #[test]
    fn generated_traces_roundtrip_through_the_binary_format((seed, specs) in arb_workload()) {
        prop_assume!(!specs.is_empty());
        let mut generator = WorkloadGenerator::new("roundtrip", seed);
        for spec in &specs {
            generator.add_branch(spec.clone());
        }
        let trace = generator.generate();
        let mut bytes = Vec::new();
        binary::write_trace(&mut bytes, &trace).unwrap();
        let mut reader = FastBtrtReader::new(bytes.as_slice(), DEFAULT_CHUNK_RECORDS).unwrap();
        let reread = InternedTrace::from_chunks(&mut reader).unwrap();
        prop_assert_eq!(reader.metadata(), trace.metadata());
        prop_assert_eq!(reread, trace.intern());
        let mut stats = DenseTraceStats::new();
        for chunk in FastBtrtReader::new(bytes.as_slice(), DEFAULT_CHUNK_RECORDS).unwrap() {
            stats.observe_chunk(&chunk.unwrap());
        }
        let original = ProgramProfile::from_trace(&trace);
        let restored = ProgramProfile::from_stats(&stats.into_trace_stats());
        prop_assert_eq!(original, restored);
    }

    /// Prediction accuracy of a deterministic predictor is itself
    /// deterministic: the same trace simulated twice gives identical results.
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        let config = SuiteConfig::default()
            .with_scale(2e-7)
            .with_seed(seed)
            .with_min_executions_per_branch(50);
        let trace = Benchmark::compress().generate(&config).intern();
        let engine = SimEngine::new();
        let mut a = TwoLevelPredictor::new(TwoLevelConfig::pas_paper(4));
        let mut b = TwoLevelPredictor::new(TwoLevelConfig::pas_paper(4));
        let ra = engine.run(&trace, &mut a);
        let rb = engine.run(&trace, &mut b);
        prop_assert_eq!(ra.overall, rb.overall);
        prop_assert_eq!(ra.per_branch, rb.per_branch);
    }
}
