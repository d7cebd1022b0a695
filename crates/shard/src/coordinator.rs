//! The sharded-sweep coordinator: writes the manifest and one trace per
//! benchmark, dispatches work units to workers, settles their checkpoints,
//! re-issues failures and stragglers with capped exponential backoff, and
//! re-merges the partials into a final [`SweepResult`] that is bit-identical
//! to the sequential reference.
//!
//! ## Scheduling model
//!
//! Process workers run at most `max_workers` attempts at once; the
//! in-process launcher runs one unit at a time, decoding each trace file
//! once per drive and sweeping every unit over it in place. Each
//! finished attempt (clean exit, crash, or deadline kill) is *settled* by
//! validating the unit's checkpoint on disk — never by trusting the exit
//! code — so a worker that committed and then crashed still counts as done.
//! Invalid (torn/corrupt/missing) checkpoints re-queue the unit with
//! `backoff_delay` applied, until `retry_budget` consecutive failures
//! exhaust it.
//!
//! ## Merge determinism
//!
//! Unit ids are contiguous per history group ([`SweepSpec::plan_units`]).
//! Each validated partial is folded into its group's result as it settles
//! (or, on resume, as it is adopted), and the groups' parts are then
//! concatenated and reassembled with [`SweepResult::from_parts`]. All
//! per-counter merges are `u64` additions into address-keyed maps, so the
//! result is independent of settle order and of which attempt produced
//! each partial.

use crate::error::{Result, ShardError};
use crate::fault::FaultPlan;
use crate::manifest::{Manifest, OutDir};
use crate::unit::{SweepSpec, UnitSpec};
use crate::worker;
use btr_sim::sweep::SweepResult;
use btr_trace::InternedTrace;
use btr_wire::Wire;
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How the coordinator executes a work unit.
#[derive(Debug, Clone)]
pub enum Launcher {
    /// Spawn the `btr-shard-worker` binary at the given path, one process
    /// per attempt. Workers inherit the environment, so a `BTR_FAULT` plan
    /// set on the coordinator reaches them.
    Process {
        /// Path of the worker executable.
        worker: PathBuf,
    },
    /// Execute units one at a time inside the coordinator process (used by
    /// benches and tests that do not want process overhead). Each trace
    /// file is decoded once per drive and every unit sweeps it in place.
    /// Faults come from [`CoordinatorConfig::fault_plan`]; an injected stall
    /// behaves like a deadline-killed straggler (no commit, immediate
    /// failure).
    InProcess,
}

/// Tunables for one coordinator run.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Maximum process-worker attempts in flight at once (at least 1). The
    /// in-process launcher ignores it and runs units one at a time.
    pub max_workers: usize,
    /// Per-attempt deadline; process workers still running past it are
    /// killed and settled as failures (the straggler path).
    pub unit_deadline: Duration,
    /// Backoff after the first failure of a unit.
    pub backoff_base: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub backoff_cap: Duration,
    /// Consecutive failures of one unit tolerated before the run aborts
    /// with [`ShardError::RetryBudgetExhausted`].
    pub retry_budget: u32,
    /// Stop with [`ShardError::Interrupted`] after this many units commit
    /// (simulates coordinator preemption; `resume` finishes the sweep).
    pub max_commits: Option<u64>,
    /// How units are executed.
    pub launcher: Launcher,
    /// Fault plan applied to unit execution: the in-process launcher
    /// consults it directly, and process workers receive it as their
    /// `BTR_FAULT` environment variable. When unset, process workers keep
    /// whatever `BTR_FAULT` the coordinator itself inherited.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            max_workers: 2,
            unit_deadline: Duration::from_secs(30),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            retry_budget: 5,
            max_commits: None,
            launcher: Launcher::InProcess,
            fault_plan: None,
        }
    }
}

/// The delay before re-issuing a unit that has failed `failures` times:
/// zero for a unit that has never failed, then `base * 2^(failures-1)`
/// saturating at `cap` (the exponent itself is capped at 16 doublings so the
/// shift cannot overflow).
///
/// `failures = 0` returning [`Duration::ZERO`] matters: a unit scheduled
/// through this function without any recorded failure must not inherit the
/// first-failure delay (`saturating_sub` used to fold 0 and 1 together).
fn backoff_delay(failures: u32, base: Duration, cap: Duration) -> Duration {
    if failures == 0 {
        return Duration::ZERO;
    }
    let doublings = (failures - 1).min(16);
    base.saturating_mul(1u32 << doublings).min(cap)
}

/// One in-flight process attempt.
struct Slot {
    unit_id: u32,
    child: Child,
    /// Offset from the drive loop's epoch after which the attempt is a
    /// straggler and gets killed.
    kill_at: Duration,
}

/// Drives a sharded sweep to completion against an output directory.
pub struct Coordinator {
    dir: OutDir,
    config: CoordinatorConfig,
}

impl Coordinator {
    /// Builds a coordinator over an output directory.
    pub fn new(dir: OutDir, config: CoordinatorConfig) -> Self {
        Coordinator { dir, config }
    }

    /// The output directory this coordinator drives.
    pub fn dir(&self) -> &OutDir {
        &self.dir
    }

    /// Starts a fresh sweep: plans units, writes each benchmark's trace and
    /// then the manifest, drives every unit to completion and merges the
    /// final result. Refuses to clobber a directory that already holds a
    /// sweep.
    pub fn run(&self, spec: SweepSpec) -> Result<SweepResult> {
        let units = self.dir.plan_bound(&spec)?;
        self.dir.init()?;
        if self.dir.manifest_path().exists() {
            return Err(ShardError::bad_manifest(format!(
                "{} already holds a sweep; resume it instead",
                self.dir.root().display()
            )));
        }
        self.dir.write_traces(&spec)?;
        let manifest = Manifest { spec };
        manifest.save(&self.dir)?;
        self.drive(&manifest.spec, &units, false)
    }

    /// Resumes a sweep from its manifest: regenerates the trace files, then
    /// drives only the units without a valid checkpoint on disk (re-opening
    /// torn or missing ones, adopting every valid one).
    pub fn resume(&self) -> Result<SweepResult> {
        let manifest = Manifest::load(&self.dir)?;
        let units = self.dir.plan_bound(&manifest.spec)?;
        self.dir.write_traces(&manifest.spec)?;
        self.drive(&manifest.spec, &units, true)
    }

    /// Drives every unit without a checkpoint to completion (with `adopt`,
    /// valid checkpoints already on disk count as complete) and merges.
    /// Each validated partial is folded into its history group's result as
    /// it settles, so no checkpoint is read twice.
    fn drive(&self, spec: &SweepSpec, units: &[UnitSpec], adopt: bool) -> Result<SweepResult> {
        let total = units.len();
        let per_group = (spec.benchmarks.len() * spec.window_count as usize).max(1);
        let mut groups: Vec<Option<SweepResult>> = vec![None; total.div_ceil(per_group)];
        let mut fold =
            |unit_id: u32, partial: SweepResult| match &mut groups[unit_id as usize / per_group] {
                Some(merged) => merged.merge(&partial),
                slot => *slot = Some(partial),
            };
        // Wall-clock is confined to scheduling (straggler deadlines and
        // backoff pacing); nothing time-derived enters results or artifacts.
        let epoch = Instant::now();
        let mut pending: BTreeMap<u32, Duration> = BTreeMap::new();
        for unit in units {
            match adopt.then(|| self.dir.load_partial(unit)) {
                Some(Ok(partial)) => fold(unit.unit_id, partial),
                _ => {
                    pending.insert(unit.unit_id, Duration::ZERO);
                }
            }
        }
        let mut remaining = pending.len();
        let mut failures: BTreeMap<u32, u32> = BTreeMap::new();
        let mut running: Vec<Slot> = Vec::new();
        let mut finished: Vec<u32> = Vec::new();
        let mut commits: u64 = 0;
        // The in-process launcher's decoded traces, one per bound file.
        let mut decoded: BTreeMap<Option<String>, InternedTrace> = BTreeMap::new();
        // Its last finished attempt, until it settles.
        let mut just_ran: Option<(u32, worker::Attempt)> = None;

        loop {
            // Reap exited workers and kill stragglers past their deadline.
            let now = epoch.elapsed();
            let mut alive: Vec<Slot> = Vec::new();
            for mut slot in running.drain(..) {
                let done = match slot.child.try_wait() {
                    Ok(Some(_)) | Err(_) => true,
                    Ok(None) if now >= slot.kill_at => {
                        let _ = slot.child.kill();
                        let _ = slot.child.wait();
                        true
                    }
                    Ok(None) => false,
                };
                if done {
                    finished.push(slot.unit_id);
                } else {
                    alive.push(slot);
                }
            }
            running = alive;

            // Settle finished attempts by reading the checkpoint on disk. An
            // in-process attempt whose bytes are on disk unchanged is
            // adopted as computed; any other checkpoint (a worker process's,
            // or one a fault or an earlier commit left) is decoded and
            // validated.
            for unit_id in std::mem::take(&mut finished) {
                let unit = &units[unit_id as usize];
                let attempt = just_ran
                    .take()
                    .filter(|(ran, _)| *ran == unit_id)
                    .map(|(_, attempt)| attempt);
                let settled = self
                    .dir
                    .read_partial(unit_id)
                    .and_then(|bytes| match attempt {
                        Some(attempt) if attempt.bytes == bytes => Ok(attempt.result),
                        _ => OutDir::decode_partial(unit, &bytes),
                    });
                if let Ok(partial) = settled {
                    fold(unit_id, partial);
                    commits += 1;
                    remaining -= 1;
                    let quota_hit = self
                        .config
                        .max_commits
                        .is_some_and(|quota| commits >= quota);
                    if quota_hit && remaining > 0 {
                        kill_all(&mut running);
                        return Err(ShardError::Interrupted {
                            completed: total - remaining,
                            total,
                        });
                    }
                } else {
                    // Torn, corrupt, or absent checkpoint: clear any debris
                    // and re-queue the unit with backoff.
                    let _ = std::fs::remove_file(self.dir.partial_path(unit_id));
                    let count = failures.get(&unit_id).copied().unwrap_or(0) + 1;
                    failures.insert(unit_id, count);
                    if count > self.config.retry_budget {
                        kill_all(&mut running);
                        return Err(ShardError::RetryBudgetExhausted {
                            unit_id,
                            attempts: count,
                        });
                    }
                    let delay =
                        backoff_delay(count, self.config.backoff_base, self.config.backoff_cap);
                    pending.insert(unit_id, epoch.elapsed() + delay);
                }
            }

            // Issue ready units into free slots (lowest unit id first).
            while running.len() < self.config.max_workers.max(1) {
                let now = epoch.elapsed();
                let Some(unit_id) = pending
                    .iter()
                    .find(|(_, ready_at)| **ready_at <= now)
                    .map(|(id, _)| *id)
                else {
                    break;
                };
                pending.remove(&unit_id);
                let unit = &units[unit_id as usize];
                let attempt = failures.get(&unit_id).copied().unwrap_or(0);
                match &self.config.launcher {
                    Launcher::Process { worker } => {
                        let mut command = Command::new(worker);
                        command
                            .arg(self.dir.root())
                            .arg(unit_id.to_string())
                            .arg(attempt.to_string())
                            .stdout(Stdio::null());
                        // An explicit plan overrides whatever BTR_FAULT the
                        // coordinator inherited, so tests inject faults
                        // without touching the global environment.
                        if let Some(plan) = &self.config.fault_plan {
                            command.env(crate::fault::FAULT_ENV, plan.to_env_string());
                        }
                        let child = command
                            .spawn()
                            .map_err(|e| ShardError::WorkerSpawn { unit_id, source: e })?;
                        running.push(Slot {
                            unit_id,
                            child,
                            kill_at: now + self.config.unit_deadline,
                        });
                    }
                    Launcher::InProcess => {
                        let fault = self
                            .config
                            .fault_plan
                            .as_ref()
                            .and_then(|p| p.decide(unit_id, attempt));
                        let trace = match decoded.entry(unit.trace_file.clone()) {
                            Entry::Occupied(entry) => entry.into_mut(),
                            Entry::Vacant(entry) => entry.insert(unit.load_trace()?),
                        };
                        // Nonce folds the attempt in so racing temp files of
                        // one unit never collide.
                        let run =
                            worker::execute_and_commit(&self.dir, unit, trace, fault, attempt)?;
                        just_ran = Some((unit_id, run));
                        finished.push(unit_id);
                        // Settle it before the next unit runs, so at most one
                        // attempt's result and bytes are held at a time.
                        break;
                    }
                }
            }

            if running.is_empty() && finished.is_empty() {
                if pending.is_empty() {
                    break;
                }
                // Everything left is backing off; doze until the earliest
                // unit is ready again.
                let now = epoch.elapsed();
                let until_ready = pending
                    .values()
                    .map(|ready_at| ready_at.saturating_sub(now))
                    .min()
                    .unwrap_or(Duration::ZERO);
                std::thread::sleep(
                    until_ready.clamp(Duration::from_millis(1), Duration::from_millis(50)),
                );
            } else if !running.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // `into_parts` drops the source labels, so the final encoding is
        // byte-comparable to the sequential reference's.
        let parts = groups.into_iter().flatten();
        let final_result =
            SweepResult::from_parts(spec.family, parts.flat_map(|m| m.into_parts().1).collect());
        self.dir
            .write_atomic(&self.dir.final_path(), &final_result.to_btrw(), 0)?;
        Ok(final_result)
    }
}

fn kill_all(running: &mut Vec<Slot>) {
    for mut slot in running.drain(..) {
        let _ = slot.child.kill();
        let _ = slot.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_saturates_at_cap() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(1);
        assert_eq!(backoff_delay(1, base, cap), Duration::from_millis(25));
        assert_eq!(backoff_delay(2, base, cap), Duration::from_millis(50));
        assert_eq!(backoff_delay(3, base, cap), Duration::from_millis(100));
        assert_eq!(backoff_delay(7, base, cap), cap, "saturates at the cap");
        assert_eq!(backoff_delay(40, base, cap), cap, "huge counts stay capped");
    }

    #[test]
    fn zero_failures_mean_zero_delay() {
        // A unit that has never failed must not be delayed at all if it is
        // ever scheduled through the backoff path; `saturating_sub(1)` used
        // to make failures=0 and failures=1 both return `base`.
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(3600);
        assert_eq!(backoff_delay(0, base, cap), Duration::ZERO);
        assert!(backoff_delay(1, base, cap) > Duration::ZERO);
    }

    #[test]
    fn backoff_is_exhaustive_over_small_values_and_caps_the_exponent() {
        let base = Duration::from_millis(1);
        // A cap high enough that the exponent cap (16 doublings) is what
        // binds, not the duration cap.
        let cap = Duration::from_secs(1 << 20);
        for failures in 0..=64u32 {
            let expected = if failures == 0 {
                Duration::ZERO
            } else {
                let doublings = (failures - 1).min(16);
                base.saturating_mul(1u32 << doublings).min(cap)
            };
            assert_eq!(backoff_delay(failures, base, cap), expected, "{failures}");
        }
        // Every count past 17 failures sits at the doublings=16 plateau.
        let plateau = base * (1 << 16);
        assert_eq!(backoff_delay(17, base, cap), plateau);
        assert_eq!(backoff_delay(18, base, cap), plateau);
        assert_eq!(backoff_delay(u32::MAX, base, cap), plateau);
        // And the monotone staircase never decreases below the plateau.
        let mut prev = Duration::ZERO;
        for failures in 0..=20u32 {
            let delay = backoff_delay(failures, base, cap);
            assert!(delay >= prev, "delay regressed at {failures}");
            prev = delay;
        }
    }
}
