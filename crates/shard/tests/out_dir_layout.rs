//! Pins for the out dir's one-directory layout: a run leaves exactly the
//! manifest, one `BTRT` trace per benchmark, one partial per unit and the
//! final result; resume regenerates lost or torn traces; a manifest of the
//! old format and a worker asked for a unit outside the plan are typed
//! errors.

use btr_shard::worker::{self, EXIT_ERROR};
use btr_shard::{
    run_sequential, Coordinator, CoordinatorConfig, Launcher, Manifest, OutDir, ShardError,
    SweepSpec,
};
use btr_sim::config::PredictorFamily;
use btr_wire::{MapBuilder, Value, Wire};
use btr_workloads::{Benchmark, SuiteConfig};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// 2 history groups × 2 benchmarks × 2 windows = 8 units.
fn small_spec() -> SweepSpec {
    SweepSpec {
        family: PredictorFamily::PAs,
        histories: vec![0, 1, 2, 4],
        benchmarks: vec![Benchmark::compress(), Benchmark::li()],
        config: SuiteConfig::default().with_scale(5e-8),
        history_group: 3,
        window_count: 2,
        trace_file: None,
    }
}

fn fresh_dir(tag: &str) -> OutDir {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("layout-{tag}"));
    let _ = fs::remove_dir_all(&root);
    OutDir::new(root)
}

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_btr-shard-worker"))
}

fn config(launcher: Launcher) -> CoordinatorConfig {
    CoordinatorConfig {
        launcher,
        ..CoordinatorConfig::default()
    }
}

/// Every entry of the out dir, by name; panics on a subdirectory.
fn entries(dir: &OutDir) -> BTreeSet<String> {
    fs::read_dir(dir.root())
        .expect("out dir is readable")
        .map(|entry| {
            let entry = entry.expect("entry is readable");
            assert!(
                entry.file_type().expect("file type").is_file(),
                "{:?} is not a plain file",
                entry.path()
            );
            entry.file_name().into_string().expect("UTF-8 name")
        })
        .collect()
}

#[test]
fn a_fresh_run_leaves_one_directory_of_five_kinds_of_file() {
    let spec = small_spec();
    for launcher in [
        Launcher::InProcess,
        Launcher::Process {
            worker: worker_exe(),
        },
    ] {
        let dir = fresh_dir("fresh");
        Coordinator::new(dir.clone(), config(launcher))
            .run(spec.clone())
            .expect("sweep converges");
        let mut expected: BTreeSet<String> =
            ["manifest.btrw", "final.btrw"].map(String::from).into();
        expected.extend((0..spec.benchmarks.len()).map(|k| format!("trace-{k}.btrt")));
        expected.extend((0..8).map(|id| format!("partial-{id}.btrw")));
        assert_eq!(entries(&dir), expected);
        let _ = fs::remove_dir_all(dir.root());
    }

    // A captured trace file is swept in place: nothing is generated.
    let captured = fresh_dir("captured-trace");
    captured.init().expect("tmpdir is writable");
    let path = captured.root().join("capture.btrt");
    let mut bytes = Vec::new();
    btr_trace::io::write_binary(&mut bytes, &Benchmark::compress().generate(&spec.config))
        .expect("writing to a Vec cannot fail");
    fs::write(&path, bytes).expect("capture is writable");
    let spec = SweepSpec {
        benchmarks: vec![Benchmark::compress()],
        trace_file: Some(path.to_string_lossy().into_owned()),
        ..small_spec()
    };
    let dir = fresh_dir("captured");
    Coordinator::new(dir.clone(), config(Launcher::InProcess))
        .run(spec)
        .expect("file-backed sweep converges");
    assert!(entries(&dir).iter().all(|name| !name.starts_with("trace-")));
    let _ = fs::remove_dir_all(dir.root());
    let _ = fs::remove_dir_all(captured.root());
}

#[test]
fn resume_regenerates_a_deleted_or_truncated_trace_file() {
    let spec = small_spec();
    let reference = run_sequential(&spec).expect("reference runs").to_btrw();
    for launcher in [
        Launcher::InProcess,
        Launcher::Process {
            worker: worker_exe(),
        },
    ] {
        let dir = fresh_dir("regenerate");
        Coordinator::new(dir.clone(), config(launcher.clone()))
            .run(spec.clone())
            .expect("initial sweep converges");
        let traces = [0, 1].map(|k| fs::read(dir.trace_path(k)).expect("trace written"));
        // Lose one trace, tear the other, and re-open a unit on each so the
        // resumed units must decode them.
        fs::remove_file(dir.trace_path(0)).expect("delete trace 0");
        fs::write(dir.trace_path(1), &traces[1][..traces[1].len() / 3]).expect("tear trace 1");
        for unit_id in [0, 2] {
            fs::remove_file(dir.partial_path(unit_id)).expect("drop a partial");
        }
        fs::remove_file(dir.final_path()).expect("drop final artifact");
        let merged = Coordinator::new(dir.clone(), config(launcher))
            .resume()
            .expect("resume regenerates the traces");
        assert_eq!(merged.to_btrw(), reference);
        for (k, bytes) in traces.iter().enumerate() {
            assert_eq!(&fs::read(dir.trace_path(k)).expect("trace is back"), bytes);
        }
        let _ = fs::remove_dir_all(dir.root());
    }
}

#[test]
fn a_format_one_manifest_is_a_typed_error() {
    let dir = fresh_dir("format-one");
    dir.init().expect("tmpdir is writable");
    let old = MapBuilder::new()
        .field("format", 1u64)
        .field("spec", small_spec().to_value())
        .field("completed", Value::U64s(vec![0, 3]))
        .build();
    fs::write(dir.manifest_path(), old.to_btrw()).expect("write manifest");
    let err = Coordinator::new(dir.clone(), config(Launcher::InProcess))
        .resume()
        .expect_err("a format-1 manifest cannot resume");
    assert!(matches!(err, ShardError::BadManifest { .. }), "{err}");
    assert!(err.to_string().contains("format 1"), "{err}");
    let _ = fs::remove_dir_all(dir.root());
}

#[test]
fn a_worker_given_a_unit_outside_the_plan_fails_with_a_typed_error() {
    let dir = fresh_dir("unknown-unit");
    dir.init().expect("tmpdir is writable");
    Manifest { spec: small_spec() }
        .save(&dir)
        .expect("manifest saves");
    let err = worker::run_worker(dir.root(), 8, 0).expect_err("unit 8 of 8 does not exist");
    assert!(
        matches!(
            err,
            ShardError::UnknownUnit {
                unit_id: 8,
                total: 8
            }
        ),
        "{err}"
    );
    let out = Command::new(worker_exe())
        .arg(dir.root())
        .args(["8", "0"])
        .output()
        .expect("worker spawns");
    assert_eq!(out.status.code(), Some(EXIT_ERROR));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("outside the sweep's 8 units"), "{stderr}");
    assert!(!dir.partial_path(8).exists());
    let _ = fs::remove_dir_all(dir.root());
}
