//! The `shard` workload: sequential sharded sweeps through
//! `btr_shard::Coordinator` with the in-process launcher, each merged
//! result checked bit for bit against `btr_shard::run_sequential`.

use crate::daemon;
use crate::inputs;
use crate::oracle;
use crate::report::Outcome;
use crate::stats::{Latencies, Segment};
use btr_shard::{Coordinator, CoordinatorConfig, Launcher, OutDir, SweepSpec};
use btr_wire::Wire;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Segments the timed phase is split into; odd, so the median over
/// segments is one segment's figure. A burst of set-ups is timed before
/// each, so the set-up samples span the run.
pub const SEGMENTS: usize = 9;

/// Coordinator set-ups timed before each segment; `setup_s` is the median
/// of all of them.
pub const SETUPS_PER_SEGMENT: usize = 13;

/// Distinct job seeds a run cycles through.
pub const JOB_ROTATION: u64 = 4;

/// One job of the rotation, with what it must produce.
pub struct Job {
    /// The sweep.
    pub spec: SweepSpec,
    /// Trace records the job covers.
    pub records: u64,
    /// `BTRW` of the sequential reference.
    pub expected: Vec<u8>,
}

/// Builds the job rotation for `seed`, references included.
pub fn jobs(seed: u64, tamper: bool) -> Result<Vec<Job>, String> {
    (0..JOB_ROTATION)
        .map(|k| {
            let spec = inputs::shard_spec(inputs::mix(seed, 0x5a4d + k));
            let mut expected = oracle::shard_expected(&spec)?;
            if tamper {
                oracle::tamper(&mut expected);
            }
            Ok(Job {
                records: inputs::shard_job_records(&spec),
                spec,
                expected,
            })
        })
        .collect()
}

/// The coordinator configuration every job runs under.
pub fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        launcher: Launcher::InProcess,
        ..CoordinatorConfig::default()
    }
}

/// Times one coordinator set-up: `Coordinator::new`, `OutDir::init` and
/// `SweepSpec::plan_units`, in a fresh directory.
fn setup_once(dir: &Path, spec: &SweepSpec) -> Result<Duration, String> {
    let t0 = Instant::now();
    let coordinator = Coordinator::new(OutDir::new(dir), coordinator_config());
    coordinator.dir().init().map_err(|e| e.to_string())?;
    let units = spec.plan_units().map_err(|e| e.to_string())?;
    let took = t0.elapsed();
    std::hint::black_box(units);
    Ok(took)
}

/// Commits the filesystem journal for `root`, so the next timed call does
/// not wait behind metadata the previous one left to commit.
fn settle(root: &Path) {
    let _ = std::fs::create_dir_all(root);
    let _ = std::fs::File::open(root).and_then(|dir| dir.sync_all());
}

/// Runs one job in a fresh directory under `root`, then removes it right
/// away, before writeback would put its checkpoints on disk, and settles
/// the journal. Returns the latency and whether the merged result matched.
pub fn run_job(root: &Path, n: u64, job: &Job) -> Result<(Duration, bool), String> {
    let dir = root.join(format!("job-{n}"));
    let t0 = Instant::now();
    let result = Coordinator::new(OutDir::new(&dir), coordinator_config()).run(job.spec.clone());
    let latency = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    settle(root);
    let result = result.map_err(|e| format!("job {n}: {e}"))?;
    Ok((latency, result.to_btrw() == job.expected))
}

/// A scratch directory of this process under `out_dir`.
pub fn scratch_root(out_dir: &Path, tag: &str) -> PathBuf {
    out_dir.join(format!("{tag}-{}", std::process::id()))
}

/// Runs jobs from the rotation, one at a time, until `budget` has elapsed
/// (at least `min_jobs`). Returns verified latencies, verified records and
/// the phase's wall time.
pub fn job_loop(
    root: &Path,
    jobs: &[Job],
    budget: Duration,
    min_jobs: u64,
    out: &mut Outcome,
) -> (Latencies, u64, Duration) {
    let mut latencies = Latencies::default();
    let mut records = 0u64;
    let mut sent = 0u64;
    let started = Instant::now();
    while sent < min_jobs || started.elapsed() < budget {
        let job = &jobs[(sent % jobs.len() as u64) as usize];
        match run_job(root, sent, job) {
            Ok((latency, true)) => {
                latencies.push(latency);
                records += job.records;
            }
            Ok((_, false)) => out.fail(format!(
                "job {sent}: merged result differs from run_sequential"
            )),
            Err(e) => out.fail(e),
        }
        sent += 1;
    }
    out.attempted += sent;
    (latencies, records, started.elapsed())
}

/// One untraced run of the `shard` workload: a warm-up job, then
/// [`SEGMENTS`] equal job loops, each after a burst of timed set-ups.
pub fn run(out_dir: &Path, seed: u64, seconds: f64, tamper: bool) -> Result<Outcome, String> {
    let jobs = jobs(seed, tamper)?;
    let root = scratch_root(out_dir, "shard");
    let mut out = Outcome::default();
    job_loop(&root, &jobs, Duration::ZERO, 1, &mut out);
    let budget = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut starts = Vec::with_capacity(SEGMENTS * SETUPS_PER_SEGMENT);
    let mut segments = Vec::with_capacity(SEGMENTS);
    for seg in 0..SEGMENTS {
        settle(&root);
        for i in 0..SETUPS_PER_SEGMENT {
            let dir = root.join(format!("setup-{seg}-{i}"));
            starts.push(setup_once(&dir, &jobs[0].spec)?);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let (latencies, records, wall) = job_loop(&root, &jobs, budget, 1, &mut out);
        segments.push(Segment {
            latencies,
            records,
            wall,
        });
    }
    let _ = std::fs::remove_dir_all(&root);
    out.end_to_end(
        &segments,
        daemon::peak_rss_mib("/proc/self/status"),
        &starts,
    );
    out.note(format!(
        "{} records per job",
        jobs.iter().map(|j| j.records).sum::<u64>() / jobs.len() as u64
    ));
    Ok(out)
}
