//! Worker-side unit execution: plan a [`UnitSpec`] from the manifest,
//! simulate it, commit the checkpoint — and, under a [`FaultPlan`],
//! misbehave on purpose.
//!
//! The exit-code protocol is deliberately *not* load-bearing: completion is
//! decided by the checkpoint on disk, never by how the process died. The
//! coordinator validates the partial after every worker exit (clean, crash
//! or kill) and adopts it if valid — that is what makes
//! [`FaultKind::CrashAfterCommit`] safe — so the codes below only classify
//! failures for humans reading logs. An in-process attempt hands back its
//! result and encoding ([`Attempt`]), so a checkpoint equal to those bytes
//! is adopted without a second decode.

use crate::error::{Result, ShardError};
use crate::fault::{FaultKind, FaultPlan};
use crate::manifest::{Manifest, OutDir};
use crate::unit::UnitSpec;
use btr_sim::sweep::SweepResult;
use btr_trace::InternedTrace;
use btr_wire::Wire;
use std::fs;
use std::path::Path;
use std::time::Duration;

/// Worker exit: unit executed and checkpoint committed (or yielded to an
/// earlier valid commit).
const EXIT_OK: i32 = 0;
/// Worker exit: an injected fault made this attempt die without a valid
/// checkpoint of its own.
const EXIT_INJECTED: i32 = 10;
/// Worker exit: real failure (I/O, decode, a unit id outside the plan).
pub const EXIT_ERROR: i32 = 11;
/// Worker exit: an injected stall expired without the coordinator killing
/// the worker (only reachable with a deadline longer than the stall).
const EXIT_STALL_EXPIRED: i32 = 12;

/// Runs one worker invocation: loads the manifest under `out_root`, plans
/// unit `unit_id` from its spec ([`OutDir::plan_bound`]), applies the fault
/// the `BTR_FAULT` plan schedules for `(unit, attempt)`, and returns the
/// exit code the process should report.
pub fn run_worker(out_root: &Path, unit_id: u32, attempt: u32) -> Result<i32> {
    let dir = OutDir::new(out_root);
    let units = dir.plan_bound(&Manifest::load(&dir)?.spec)?;
    let total = units.len();
    let unit = (units.into_iter().nth(unit_id as usize))
        .ok_or(ShardError::UnknownUnit { unit_id, total })?;
    let fault = FaultPlan::from_env()?;
    let decision = fault.as_ref().and_then(|p| p.decide(unit_id, attempt));
    if let Some(FaultKind::Stall) = decision {
        // Hang without committing until the coordinator's deadline kills us.
        let stall = fault.map(|p| p.stall_ms).unwrap_or(60_000);
        std::thread::sleep(Duration::from_millis(stall));
        return Ok(EXIT_STALL_EXPIRED);
    }
    let trace = unit.load_trace()?;
    let attempt = execute_and_commit(&dir, &unit, &trace, decision, std::process::id())?;
    Ok(if attempt.clean {
        EXIT_OK
    } else {
        EXIT_INJECTED
    })
}

/// One attempt at a unit, as [`execute_and_commit`] ran it.
#[derive(Debug)]
pub struct Attempt {
    /// Whether the attempt should report a clean exit.
    pub clean: bool,
    /// The unit's labeled result.
    pub result: SweepResult,
    /// The result's `BTRW` encoding: the bytes the attempt committed, or
    /// would have committed had no fault struck. A checkpoint on disk that
    /// equals them needs no decode to be trusted.
    pub bytes: Vec<u8>,
}

/// Executes a unit over its decoded `trace` and commits its checkpoint,
/// applying a (non-stall) injected fault to the commit path. Returns the
/// attempt: whether it should report a clean exit, plus the result and its
/// encoding. Shared by the worker binary and the coordinator's in-process
/// launcher, so fault semantics cannot drift between the two.
pub fn execute_and_commit(
    dir: &OutDir,
    unit: &UnitSpec,
    trace: &InternedTrace,
    fault: Option<FaultKind>,
    nonce: u32,
) -> Result<Attempt> {
    let result = unit.execute_over(trace)?.with_source(unit.source_label());
    let bytes = result.to_btrw();
    let clean = match fault {
        None => {
            dir.commit_encoded(unit, &bytes, nonce)?;
            true
        }
        // Die with the finished result still in memory: nothing durable.
        Some(FaultKind::CrashBeforeCommit) | Some(FaultKind::Stall) => false,
        Some(FaultKind::CrashAfterCommit) => {
            dir.commit_encoded(unit, &bytes, nonce)?;
            false
        }
        Some(FaultKind::TornWrite) => {
            // Bypass write-temp-then-rename and leave half a checkpoint at
            // the final path, as a power loss on a non-atomic filesystem
            // would. Validation must reject it and the unit must re-run.
            let path = dir.partial_path(unit.unit_id);
            fs::write(&path, &bytes[..bytes.len() / 2])
                .map_err(|e| ShardError::io(format!("torn write to {}", path.display()), e))?;
            false
        }
        Some(FaultKind::CorruptPartial) => {
            // Commit a checkpoint with a flipped payload bit and report
            // success: only decode-time validation (canonical encodings,
            // overall-equals-per-branch-sums, source labels) can catch it.
            let mut corrupt = bytes.clone();
            let last = corrupt.len() - 1;
            corrupt[last] ^= 0x55;
            dir.write_atomic(&dir.partial_path(unit.unit_id), &corrupt, nonce)?;
            true
        }
    };
    Ok(Attempt {
        clean,
        result,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::SweepSpec;
    use btr_sim::config::PredictorFamily;
    use btr_workloads::{Benchmark, SuiteConfig};

    fn tiny_unit() -> (UnitSpec, InternedTrace) {
        let unit = SweepSpec {
            family: PredictorFamily::PAs,
            histories: vec![0, 2],
            benchmarks: vec![Benchmark::compress()],
            config: SuiteConfig::default().with_scale(5e-8),
            history_group: 2,
            window_count: 1,
            trace_file: None,
        }
        .plan_units()
        .expect("spec is valid")
        .remove(0);
        let trace = unit.load_trace().expect("unbound units regenerate");
        (unit, trace)
    }

    fn temp_dir(tag: &str) -> OutDir {
        let dir = OutDir::new(std::env::temp_dir().join(format!(
            "btr-shard-worker-test-{tag}-{}",
            std::process::id()
        )));
        let _ = fs::remove_dir_all(dir.root());
        dir.init().expect("temp out dir initialises");
        dir
    }

    #[test]
    fn clean_execution_commits_a_valid_partial() {
        let dir = temp_dir("clean");
        let (unit, trace) = tiny_unit();
        let attempt = execute_and_commit(&dir, &unit, &trace, None, 1).expect("unit executes");
        assert!(attempt.clean);
        assert_eq!(
            dir.read_partial(unit.unit_id).expect("committed"),
            attempt.bytes
        );
        let partial = dir
            .load_partial(&unit)
            .expect("committed partial validates");
        assert_eq!(partial.history_lengths(), vec![0, 2]);
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn torn_and_corrupt_checkpoints_fail_validation() {
        let dir = temp_dir("torn");
        let (unit, trace) = tiny_unit();
        assert!(
            !execute_and_commit(&dir, &unit, &trace, Some(FaultKind::TornWrite), 1)
                .expect("torn attempt runs")
                .clean
        );
        assert!(dir.load_partial(&unit).is_err(), "torn partial rejected");
        assert!(
            execute_and_commit(&dir, &unit, &trace, Some(FaultKind::CorruptPartial), 2)
                .expect("corrupt attempt runs")
                .clean
        );
        assert!(dir.load_partial(&unit).is_err(), "corrupt partial rejected");
        // A clean retry replaces the invalid checkpoint.
        assert!(
            execute_and_commit(&dir, &unit, &trace, None, 3)
                .expect("retry runs")
                .clean
        );
        assert!(dir.load_partial(&unit).is_ok());
        let _ = fs::remove_dir_all(dir.root());
    }

    #[test]
    fn first_committed_checkpoint_wins_the_duplicate_race() {
        let dir = temp_dir("dup");
        let (unit, trace) = tiny_unit();
        assert!(
            execute_and_commit(&dir, &unit, &trace, Some(FaultKind::CrashAfterCommit), 1)
                .map(|attempt| !attempt.clean)
                .expect("first attempt commits then crashes")
        );
        let first = dir.load_partial(&unit).expect("first checkpoint is valid");
        // The re-issued duplicate completes but must yield to the first.
        assert!(
            execute_and_commit(&dir, &unit, &trace, None, 2)
                .expect("duplicate runs")
                .clean
        );
        assert_eq!(dir.load_partial(&unit).expect("still valid"), first);
        let _ = fs::remove_dir_all(dir.root());
    }
}
