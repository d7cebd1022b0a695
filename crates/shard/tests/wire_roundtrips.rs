//! Wire roundtrips for the shard runner's durable types. The manifest
//! carries the sweep spec across every process boundary (coordinator →
//! worker → resume), and a worker plans its unit from it, so its encoding
//! must roundtrip exactly, replan identically, and reject the malformed
//! shapes a crash can leave behind.

use btr_shard::{Manifest, OutDir, ShardError, SweepSpec, MANIFEST_FORMAT};
use btr_sim::config::PredictorFamily;
use btr_wire::{Value, Wire, WireError};
use btr_workloads::{Benchmark, SuiteConfig};
use std::fs;
use std::path::PathBuf;

/// Overwrites one field of an encoded map value (for forging bad shapes).
fn set_field(value: &mut Value, key: &str, new: Value) {
    if let Value::Map(entries) = value {
        let entry = entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("field exists");
        entry.1 = new;
    }
}

fn spec() -> SweepSpec {
    SweepSpec {
        family: PredictorFamily::GAs,
        histories: vec![0, 1, 2, 4, 8],
        benchmarks: vec![Benchmark::compress(), Benchmark::li()],
        config: SuiteConfig::default().with_scale(5e-8),
        history_group: 2,
        window_count: 3,
        trace_file: None,
    }
}

#[test]
fn every_planned_unit_is_replanned_identically_from_the_manifest() {
    let dir = OutDir::new("out");
    let units = dir.plan_bound(&spec()).expect("spec plans");
    assert_eq!(
        units.len(),
        3 * 2 * 3,
        "3 groups x 2 benchmarks x 3 windows"
    );
    // What a worker sees: the spec back from the manifest's bytes.
    let decoded =
        Manifest::from_btrw(&Manifest { spec: spec() }.to_btrw()).expect("manifest decodes");
    assert_eq!(
        dir.plan_bound(&decoded.spec).expect("decoded spec plans"),
        units
    );
    for unit in &units {
        let k = spec()
            .benchmarks
            .iter()
            .position(|b| *b == unit.benchmark)
            .expect("unit benchmark is in the spec");
        let path = dir.trace_path(k).into_os_string().into_string().ok();
        assert_eq!(
            unit.trace_file, path,
            "unit {} bound to trace {k}",
            unit.unit_id
        );
        assert_eq!(unit.source_label(), format!("unit-{}", unit.unit_id));
    }
}

#[test]
fn sweep_spec_roundtrips_and_replans_identically() {
    let spec = spec();
    let back = SweepSpec::from_btrw(&spec.to_btrw()).expect("spec decodes");
    assert_eq!(back, spec);
    // Resume replans units from the decoded spec; the plan must agree.
    assert_eq!(
        back.plan_units().expect("decoded spec plans"),
        spec.plan_units().expect("original spec plans")
    );
}

#[test]
fn manifest_roundtrips_through_btrw() {
    let manifest = Manifest { spec: spec() };
    let back = Manifest::from_btrw(&manifest.to_btrw()).expect("manifest decodes");
    assert_eq!(back, manifest);
}

#[test]
fn a_manifest_whose_spec_cannot_plan_is_rejected_on_load() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wire-zero-windows");
    let _ = fs::remove_dir_all(&root);
    let dir = OutDir::new(&root);
    dir.init().expect("out dir initialises");
    let mut value = Manifest { spec: spec() }.to_value();
    if let Value::Map(entries) = &mut value {
        let spec = entries
            .iter_mut()
            .find(|(k, _)| k == "spec")
            .expect("spec field");
        set_field(&mut spec.1, "window_count", Value::U64(0));
    }
    fs::write(dir.manifest_path(), value.to_btrw()).expect("write manifest");
    let err = Manifest::load(&dir).expect_err("zero windows cannot plan a unit");
    assert!(matches!(err, ShardError::InvalidSpec { .. }), "{err}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_manifest_from_the_future_is_rejected_not_misread() {
    let mut value = Manifest { spec: spec() }.to_value();
    set_field(&mut value, "format", Value::U64(MANIFEST_FORMAT + 1));
    let err = Manifest::from_value(&value).expect_err("unknown format must not decode");
    assert!(matches!(err, WireError::Schema { .. }), "{err:?}");
}

#[test]
fn truncated_durable_records_error_instead_of_decoding() {
    let manifest = Manifest { spec: spec() };
    for bytes in [manifest.to_btrw(), spec().to_btrw()] {
        let torn = &bytes[..bytes.len() / 2];
        assert!(Manifest::from_btrw(torn).is_err());
        assert!(SweepSpec::from_btrw(torn).is_err());
    }
}
