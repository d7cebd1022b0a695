//! End-to-end and per-layer benchmark for `btrd` `/classify` and `/sweep`
//! and for `btr-shard`.
//!
//! ```text
//! e2ebench --btrd PATH --workload classify|sweep|shard --seed N
//!          --seconds S --trace 0|1 [--out DIR] [--tamper-oracle]
//! ```
//!
//! With `--trace 0` it runs one workload untraced and prints the end-to-end
//! metrics; with `--trace 1` it prints the per-layer metrics of all three
//! workloads (see `layers`). The last line of standard output is the
//! result object. Exit code 0 when every output verified, 1 when any
//! operation failed, 2 when the run could not be carried out.

mod alloc;
mod daemon;
mod inputs;
mod layers;
mod oracle;
mod report;
mod serve_load;
mod shard_load;
mod stats;
mod tracer;

use report::Outcome;
use serve_load::Endpoint;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `POST /classify` against `btrd`.
    Classify,
    /// `POST /sweep` (histories 0..=16) against `btrd`.
    Sweep,
    /// Sharded sweeps through the in-process coordinator.
    Shard,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Classify => "classify",
            Workload::Sweep => "sweep",
            Workload::Shard => "shard",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    btrd: Option<PathBuf>,
    out_dir: PathBuf,
    tamper: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut btrd = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut tamper = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "classify" => Workload::Classify,
                    "sweep" => Workload::Sweep,
                    "shard" => Workload::Shard,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => {
                seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds wants 0 < s <= 600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                };
            }
            "--btrd" => btrd = Some(PathBuf::from(value()?)),
            "--out" => out_dir = PathBuf::from(value()?),
            "--tamper-oracle" => tamper = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        btrd,
        out_dir,
        tamper,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let btrd = || {
        args.btrd
            .clone()
            .ok_or_else(|| "--btrd is required for the serve workloads".to_string())
    };
    if args.trace {
        return layers::run(
            &btrd()?,
            &args.out_dir,
            args.workload.name(),
            args.seed,
            args.seconds,
            args.tamper,
        );
    }
    match args.workload {
        Workload::Classify => serve_load::run(
            Endpoint::Classify,
            &btrd()?,
            args.seed,
            args.seconds,
            args.tamper,
        ),
        Workload::Sweep => serve_load::run(
            Endpoint::Sweep,
            &btrd()?,
            args.seed,
            args.seconds,
            args.tamper,
        ),
        Workload::Shard => shard_load::run(&args.out_dir, args.seed, args.seconds, args.tamper),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(mut outcome) => {
            outcome.require(if args.trace {
                report::PER_LAYER
            } else {
                report::END_TO_END
            });
            for line in &outcome.notes {
                println!("{line}");
            }
            for m in &outcome.metrics {
                println!("{:<48} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.to_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
