//! The `btr-shard` coordinator CLI: fault-tolerant sharded history sweeps.
//!
//! Usage:
//!
//! ```text
//! btr-shard run        <out-dir> [SPEC OPTIONS] [SCHEDULING OPTIONS]
//! btr-shard resume     <out-dir> [SCHEDULING OPTIONS]
//! btr-shard sequential <out-dir> [SPEC OPTIONS]
//! ```
//!
//! Spec options (how the sweep is defined and partitioned):
//!
//! * `--family pas|gas`     predictor family (default `pas`)
//! * `--histories LIST`     comma-separated history lengths (default `0..=16`)
//! * `--benchmarks LIST`    comma-separated suite names (default: all)
//! * `--scale FACTOR`       workload scale factor in `(0, 1]` (default `2e-5`)
//! * `--seed N`             workload base seed
//! * `--group N`            history lengths per unit (default 6)
//! * `--windows N`          trace windows per benchmark (default 1)
//! * `--trace-file PATH`    sweep a captured `BTRT` trace file instead of
//!   regenerating workloads (requires exactly one `--benchmarks` entry, the
//!   label results are filed under; every worker must see PATH)
//!
//! Scheduling options (how units are executed):
//!
//! * `--workers N`          attempts in flight at once (default 2)
//! * `--deadline-ms N`      per-attempt straggler deadline (default 30000)
//! * `--backoff-base-ms N`  backoff after the first failure (default 25)
//! * `--backoff-cap-ms N`   backoff ceiling (default 1000)
//! * `--retry-budget N`     failures tolerated per unit (default 5)
//! * `--max-commits N`      stop (exit 3) after N commits, for preemption
//!   drills; `resume` finishes the sweep
//! * `--worker PATH`        worker executable (default: `btr-shard-worker`
//!   next to this binary)
//!
//! `run` refuses a directory that already holds a sweep; `resume` picks one
//! up from its manifest, adopting any checkpoints a killed coordinator never
//! recorded. `sequential` runs the unsharded reference and writes the same
//! `final.btrw` — the crash-recovery gate byte-compares the two.
//!
//! Exit codes: 0 sweep merged, 2 usage error, 3 interrupted at
//! `--max-commits` (resumable), 4 retry budget exhausted, 1 other failure.

#![forbid(unsafe_code)]

use btr_shard::{Coordinator, CoordinatorConfig, Launcher, OutDir, ShardError, SweepSpec};
use btr_sim::config::PredictorFamily;
use btr_sim::sweep::SweepResult;
use btr_wire::Wire;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    command: String,
    out_dir: PathBuf,
    family: PredictorFamily,
    histories: Vec<u32>,
    benchmarks: Option<Vec<String>>,
    scale: Option<f64>,
    seed: Option<u64>,
    group: usize,
    windows: u32,
    trace_file: Option<String>,
    config: CoordinatorConfig,
    worker: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    if !matches!(command.as_str(), "run" | "resume" | "sequential") {
        return Err(format!("unknown command {command:?}\n{USAGE}"));
    }
    let out_dir = PathBuf::from(args.next().ok_or("missing <out-dir>")?);
    let mut options = Options {
        command,
        out_dir,
        family: PredictorFamily::PAs,
        histories: (0..=16).collect(),
        benchmarks: None,
        scale: None,
        seed: None,
        group: 6,
        windows: 1,
        trace_file: None,
        config: CoordinatorConfig::default(),
        worker: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--family" => {
                options.family = match value("--family")?.as_str() {
                    "pas" | "PAs" => PredictorFamily::PAs,
                    "gas" | "GAs" => PredictorFamily::GAs,
                    other => return Err(format!("unknown family {other:?} (pas or gas)")),
                };
            }
            "--histories" => {
                options.histories = value("--histories")?
                    .split(',')
                    .map(|h| {
                        h.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("invalid history length {h:?}"))
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
            }
            "--benchmarks" => {
                options.benchmarks = Some(
                    value("--benchmarks")?
                        .split(',')
                        .map(|n| n.trim().to_string())
                        .collect(),
                );
            }
            "--scale" => {
                let v = value("--scale")?;
                options.scale = Some(v.parse().map_err(|_| format!("invalid scale {v:?}"))?);
            }
            "--seed" => options.seed = Some(parse_int(&value("--seed")?, "--seed")?),
            "--trace-file" => options.trace_file = Some(value("--trace-file")?),
            "--group" => options.group = parse_int(&value("--group")?, "--group")? as usize,
            "--windows" => options.windows = parse_int(&value("--windows")?, "--windows")? as u32,
            "--workers" => {
                options.config.max_workers = parse_int(&value("--workers")?, "--workers")? as usize;
            }
            "--deadline-ms" => {
                options.config.unit_deadline =
                    Duration::from_millis(parse_int(&value("--deadline-ms")?, "--deadline-ms")?);
            }
            "--backoff-base-ms" => {
                options.config.backoff_base = Duration::from_millis(parse_int(
                    &value("--backoff-base-ms")?,
                    "--backoff-base-ms",
                )?);
            }
            "--backoff-cap-ms" => {
                options.config.backoff_cap = Duration::from_millis(parse_int(
                    &value("--backoff-cap-ms")?,
                    "--backoff-cap-ms",
                )?);
            }
            "--retry-budget" => {
                options.config.retry_budget =
                    parse_int(&value("--retry-budget")?, "--retry-budget")? as u32;
            }
            "--max-commits" => {
                options.config.max_commits =
                    Some(parse_int(&value("--max-commits")?, "--max-commits")?);
            }
            "--worker" => options.worker = Some(PathBuf::from(value("--worker")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    Ok(options)
}

const USAGE: &str =
    "usage: btr-shard run|resume|sequential <out-dir> [options] (--help for details)";

fn parse_int(value: &str, name: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("{name} wants an unsigned integer, got {value:?}"))
}

/// Builds the sweep spec the `run` and `sequential` commands share.
fn build_spec(options: &Options) -> Result<SweepSpec, String> {
    let mut config = btr_workloads::SuiteConfig::default();
    if let Some(scale) = options.scale {
        if !btr_workloads::SuiteConfig::is_valid_scale(scale) {
            return Err(format!("--scale must be positive and finite, got {scale}"));
        }
        config.scale = scale;
    }
    if let Some(seed) = options.seed {
        config.seed = seed;
    }
    let suite = btr_workloads::Benchmark::suite();
    let benchmarks = match &options.benchmarks {
        None => suite,
        Some(names) => names
            .iter()
            .map(|name| {
                suite
                    .iter()
                    .find(|b| b.name == *name)
                    .cloned()
                    .ok_or_else(|| format!("unknown benchmark {name:?}"))
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    if options.trace_file.is_some() && benchmarks.len() != 1 {
        return Err(
            "--trace-file sweeps one captured trace: name exactly one --benchmarks entry \
             as its label"
                .to_string(),
        );
    }
    Ok(SweepSpec {
        family: options.family,
        histories: options.histories.clone(),
        benchmarks,
        config,
        history_group: options.group,
        window_count: options.windows,
        trace_file: options.trace_file.clone(),
    })
}

/// The worker executable: `--worker` if given, else `btr-shard-worker` next
/// to the running coordinator binary.
fn worker_path(options: &Options) -> Result<PathBuf, String> {
    if let Some(path) = &options.worker {
        return Ok(path.clone());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    Ok(exe.with_file_name("btr-shard-worker"))
}

fn report(result: &SweepResult, out_dir: &OutDir) {
    println!(
        "sweep merged: {} histories, {} bytes at {}",
        result.history_lengths().len(),
        result.to_btrw().len(),
        out_dir.final_path().display()
    );
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let dir = OutDir::new(options.out_dir.clone());
    if options.command == "sequential" {
        let spec = match build_spec(&options) {
            Ok(spec) => spec,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        };
        return match btr_shard::run_sequential(&spec).and_then(|result| {
            dir.init()?;
            dir.write_atomic(&dir.final_path(), &result.to_btrw(), 0)?;
            Ok(result)
        }) {
            Ok(result) => {
                report(&result, &dir);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("btr-shard: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut config = options.config.clone();
    config.launcher = match worker_path(&options) {
        Ok(worker) => Launcher::Process { worker },
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let coordinator = Coordinator::new(dir, config);
    let outcome = if options.command == "run" {
        match build_spec(&options) {
            Ok(spec) => coordinator.run(spec),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        }
    } else {
        coordinator.resume()
    };
    match outcome {
        Ok(result) => {
            report(&result, coordinator.dir());
            ExitCode::SUCCESS
        }
        Err(e @ ShardError::Interrupted { .. }) => {
            eprintln!("btr-shard: {e}");
            ExitCode::from(3)
        }
        Err(e @ ShardError::RetryBudgetExhausted { .. }) => {
            eprintln!("btr-shard: {e}");
            ExitCode::from(4)
        }
        Err(e) => {
            eprintln!("btr-shard: {e}");
            ExitCode::FAILURE
        }
    }
}
