//! End-to-end robustness pins for the sharded runner: every injected fault —
//! crashes before and after commit, torn and corrupted checkpoints, stalled
//! stragglers, killed coordinators — must converge to a final `SweepResult`
//! that is **bit-identical** to the sequential reference.

use btr_shard::{
    run_sequential, Coordinator, CoordinatorConfig, FaultKind, FaultPlan, Launcher, OutDir,
    ShardError, SweepSpec,
};
use btr_sim::config::PredictorFamily;
use btr_wire::Wire;
use btr_workloads::{Benchmark, SuiteConfig};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// A sweep small enough to shard in milliseconds but wide enough to hit all
/// three partition axes: 2 history groups × 2 benchmarks × 2 windows.
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
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fault-conv-{tag}"));
    let _ = fs::remove_dir_all(&root);
    OutDir::new(root)
}

fn process_config() -> CoordinatorConfig {
    CoordinatorConfig {
        max_workers: 4,
        unit_deadline: Duration::from_secs(20),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        launcher: Launcher::Process {
            worker: PathBuf::from(env!("CARGO_BIN_EXE_btr-shard-worker")),
        },
        ..CoordinatorConfig::default()
    }
}

/// The reference bytes every sharded variant must reproduce exactly.
fn sequential_bytes(spec: &SweepSpec) -> Vec<u8> {
    run_sequential(spec)
        .expect("sequential reference runs")
        .to_btrw()
}

#[test]
fn fault_free_sharded_run_matches_sequential_bit_for_bit() {
    let spec = small_spec();
    let dir = fresh_dir("clean");
    let coordinator = Coordinator::new(dir.clone(), process_config());
    let merged = coordinator
        .run(spec.clone())
        .expect("sharded sweep converges");
    assert_eq!(merged.to_btrw(), sequential_bytes(&spec));
    // The artifact on disk carries the identical bytes.
    let on_disk = fs::read(dir.final_path()).expect("final.btrw written");
    assert_eq!(on_disk, sequential_bytes(&spec));
    let _ = fs::remove_dir_all(dir.root());
    // Both families and more window splits (one window is the whole trace),
    // run in-process so the grid stays cheap.
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        for window_count in [1, 3, 4] {
            let spec = SweepSpec {
                family,
                window_count,
                ..small_spec()
            };
            let dir = fresh_dir(&format!("clean-{}-{window_count}", family.label()));
            let config = CoordinatorConfig {
                launcher: Launcher::InProcess,
                ..CoordinatorConfig::default()
            };
            let merged = Coordinator::new(dir.clone(), config)
                .run(spec.clone())
                .expect("sharded sweep converges");
            assert_eq!(
                merged.to_btrw(),
                sequential_bytes(&spec),
                "{} with {window_count} windows",
                family.label()
            );
            let _ = fs::remove_dir_all(dir.root());
        }
    }
}

#[test]
fn every_injected_fault_kind_converges_through_process_workers() {
    // percent=100, all five kinds, first attempt of every unit: each of the
    // 8 units suffers a seed-chosen fault once and must recover on retry.
    for seed in [1u64, 2] {
        let spec = small_spec();
        let dir = fresh_dir(&format!("faulted-{seed}"));
        let mut config = process_config();
        let mut plan = FaultPlan::every_first_attempt(seed);
        // Stalled workers hang far longer than the deadline: the coordinator
        // must kill and re-issue them rather than wait.
        plan.stall_ms = 60_000;
        config.unit_deadline = Duration::from_millis(1500);
        config.fault_plan = Some(plan);
        let merged = Coordinator::new(dir.clone(), config)
            .run(spec.clone())
            .expect("faulted sweep still converges");
        assert_eq!(merged.to_btrw(), sequential_bytes(&spec));
        let _ = fs::remove_dir_all(dir.root());
    }
}

#[test]
fn interrupted_coordinator_resumes_from_the_manifest() {
    let spec = small_spec();
    let dir = fresh_dir("resume");
    let mut config = process_config();
    config.max_commits = Some(3);
    let err = Coordinator::new(dir.clone(), config)
        .run(spec.clone())
        .expect_err("commit quota interrupts the run");
    match err {
        ShardError::Interrupted { completed, total } => {
            assert_eq!(completed, 3);
            assert_eq!(total, 8);
        }
        other => panic!("expected Interrupted, got {other}"),
    }
    assert!(
        !dir.final_path().exists(),
        "no final artifact before the sweep finishes"
    );
    // A fresh coordinator picks the sweep up from the manifest alone.
    let merged = Coordinator::new(dir.clone(), process_config())
        .resume()
        .expect("resume finishes the sweep");
    assert_eq!(merged.to_btrw(), sequential_bytes(&spec));
    let _ = fs::remove_dir_all(dir.root());
}

#[test]
fn resume_heals_torn_checkpoints_and_adopts_unrecorded_ones() {
    let spec = small_spec();
    let dir = fresh_dir("heal");
    Coordinator::new(dir.clone(), process_config())
        .run(spec.clone())
        .expect("initial sweep converges");
    // Tear one committed checkpoint behind the manifest's back and drop the
    // final artifact: resume must re-open exactly that unit and re-run it.
    let victim = dir.partial_path(0);
    let bytes = fs::read(&victim).expect("checkpoint exists");
    fs::write(&victim, &bytes[..bytes.len() / 3]).expect("tear checkpoint");
    fs::remove_file(dir.final_path()).expect("drop final artifact");
    let merged = Coordinator::new(dir.clone(), process_config())
        .resume()
        .expect("resume heals the torn checkpoint");
    assert_eq!(merged.to_btrw(), sequential_bytes(&spec));

    // Conversely: valid checkpoints a killed coordinator never recorded are
    // adopted without re-running (resume succeeds even when re-execution is
    // impossible because the worker binary is bogus).
    let manifest_bytes = fs::read(dir.manifest_path()).expect("manifest exists");
    let mut manifest = btr_shard::Manifest::from_btrw(&manifest_bytes).expect("manifest decodes");
    manifest.completed.clear();
    fs::write(dir.manifest_path(), manifest.to_btrw()).expect("rewrite manifest");
    let mut config = process_config();
    config.launcher = Launcher::Process {
        worker: PathBuf::from("/nonexistent/worker"),
    };
    let merged = Coordinator::new(dir.clone(), config)
        .resume()
        .expect("adoption completes the sweep without spawning anything");
    assert_eq!(merged.to_btrw(), sequential_bytes(&spec));
    let _ = fs::remove_dir_all(dir.root());
}

#[test]
fn persistent_failures_exhaust_the_retry_budget() {
    let spec = small_spec();
    let dir = fresh_dir("budget");
    let mut plan = FaultPlan::every_first_attempt(5);
    plan.kinds = vec![FaultKind::CrashBeforeCommit];
    plan.max_faults_per_unit = u32::MAX; // never stop faulting
    let config = CoordinatorConfig {
        retry_budget: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        fault_plan: Some(plan),
        launcher: Launcher::InProcess,
        ..CoordinatorConfig::default()
    };
    let err = Coordinator::new(dir.clone(), config)
        .run(spec)
        .expect_err("every attempt crashes");
    match err {
        ShardError::RetryBudgetExhausted { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected RetryBudgetExhausted, got {other}"),
    }
    let _ = fs::remove_dir_all(dir.root());
}

#[test]
fn run_refuses_a_directory_that_already_holds_a_sweep() {
    let spec = small_spec();
    let dir = fresh_dir("refuse");
    let config = CoordinatorConfig {
        launcher: Launcher::InProcess,
        ..CoordinatorConfig::default()
    };
    Coordinator::new(dir.clone(), config.clone())
        .run(spec.clone())
        .expect("first run converges");
    let err = Coordinator::new(dir.clone(), config)
        .run(spec)
        .expect_err("second run must refuse to clobber");
    assert!(err.to_string().contains("resume"), "{err}");
    let _ = fs::remove_dir_all(dir.root());
}

#[test]
fn in_process_launcher_converges_under_every_fault_kind_too() {
    let spec = small_spec();
    let dir = fresh_dir("inproc");
    let config = CoordinatorConfig {
        max_workers: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        fault_plan: Some(FaultPlan::every_first_attempt(9)),
        launcher: Launcher::InProcess,
        ..CoordinatorConfig::default()
    };
    let merged = Coordinator::new(dir.clone(), config)
        .run(spec.clone())
        .expect("in-process faulted sweep converges");
    assert_eq!(merged.to_btrw(), sequential_bytes(&spec));
    let _ = fs::remove_dir_all(dir.root());
}
