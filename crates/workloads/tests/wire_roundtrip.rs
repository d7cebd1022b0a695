//! Wire round-trips for the workload descriptors ([`Benchmark`] and
//! [`SuiteConfig`]): shard coordinators ship these instead of trace bytes,
//! so a decoded descriptor must regenerate the exact trace the encoder's
//! descriptor would have.

use btr_wire::Wire;
use btr_workloads::{Benchmark, SuiteConfig};

#[test]
fn suite_config_roundtrips_on_both_codecs() {
    let config = SuiteConfig::default()
        .with_scale(3.5e-6)
        .with_seed(0xDEAD_BEEF)
        .with_min_executions_per_branch(123);
    let via_btrw = SuiteConfig::from_btrw(&config.to_btrw()).expect("suite config BTRW decodes");
    assert_eq!(via_btrw, config);
    let json = config.to_json().expect("suite config encodes as JSON");
    assert_eq!(
        SuiteConfig::from_json(&json).expect("suite config JSON decodes"),
        config
    );
}

#[test]
fn every_table1_benchmark_roundtrips() {
    for benchmark in Benchmark::suite() {
        let decoded =
            Benchmark::from_btrw(&benchmark.to_btrw()).expect("benchmark descriptor decodes");
        assert_eq!(decoded, benchmark);
    }
}

#[test]
fn decoded_descriptor_regenerates_the_identical_trace() {
    let config = SuiteConfig::default().with_scale(2e-7).with_seed(7);
    let benchmark = Benchmark::compress();
    let reference = benchmark.generate(&config);
    let decoded_benchmark =
        Benchmark::from_btrw(&benchmark.to_btrw()).expect("benchmark descriptor decodes");
    let decoded_config = SuiteConfig::from_btrw(&config.to_btrw()).expect("suite config decodes");
    let regenerated = decoded_benchmark.generate(&decoded_config);
    assert_eq!(regenerated.records(), reference.records());
    assert_eq!(
        regenerated.metadata().benchmark,
        reference.metadata().benchmark
    );
}

#[test]
fn invalid_descriptor_fields_are_rejected() {
    let mut v = Benchmark::go().to_value();
    let btr_wire::Value::Map(entries) = &mut v else {
        panic!("benchmark encodes as a map")
    };
    for (key, field) in entries.iter_mut() {
        if key == "hard_clustering" {
            *field = btr_wire::Value::F64(1.5);
        }
    }
    let err = Benchmark::from_value(&v).expect_err("out-of-range clustering rejected");
    assert!(err.to_string().contains("hard_clustering"), "{err}");

    let bad_scale =
        SuiteConfig::from_json(r#"{"scale":-1.0,"seed":1,"min_executions_per_branch":10}"#)
            .expect_err("negative scale rejected");
    assert!(bad_scale.to_string().contains("positive"), "{bad_scale}");

    // BTRW carries an f64 raw, so an infinite scale reaches the decoder (JSON
    // cannot spell it); it would ask the generator for u64::MAX records.
    let infinite = SuiteConfig {
        scale: f64::INFINITY,
        ..SuiteConfig::default()
    };
    let err = SuiteConfig::from_btrw(&infinite.to_btrw()).expect_err("infinite scale rejected");
    assert!(err.to_string().contains("finite"), "{err}");

    // A finite but huge scale saturates the record count the same way.
    let huge = SuiteConfig {
        scale: 1e30,
        ..SuiteConfig::default()
    };
    let err = SuiteConfig::from_btrw(&huge.to_btrw()).expect_err("huge scale rejected");
    assert!(err.to_string().contains("scale"), "{err}");
}
