//! Regenerates every table and figure of the paper from the synthetic suite.
//!
//! Usage:
//!
//! ```text
//! reproduce [EXPERIMENT] [--quick] [--scale FACTOR] [--out-dir DIR]
//! ```
//!
//! `EXPERIMENT` is one of `table1`, `table2`, `fig1` … `fig15`,
//! `ablation-binning`, `ablation-hybrid`, `ablation-confidence`, or `all`
//! (the default). `--quick` uses a reduced benchmark subset and coarse
//! history sweep; `--scale` overrides the workload scale factor, which must
//! lie in `(0, 1]` (1 is the paper's own trace length). A malformed command
//! line is a usage error and exits with status 2.
//!
//! With `--out-dir DIR`, every experiment additionally writes three
//! machine-readable artifacts next to the usual stdout output:
//!
//! * `DIR/<experiment>.txt`  — the ASCII rendering, verbatim;
//! * `DIR/<experiment>.json` — the structured data as pretty-printed JSON;
//! * `DIR/<experiment>.btrw` — the same value in the compact `BTRW` binary
//!   format.
//!
//! The JSON and `BTRW` files carry the *same* value tree (an envelope map
//! with an `"experiment"` tag and the figure's structured data lowered via
//! `btr_wire::Wire`), so downstream tooling can pick either format;
//! `scripts/check_artifacts.py` cross-checks both against the ASCII tables
//! in CI.

use btr_core::distribution::Metric;
use btr_sim::config::PredictorFamily;
use btr_sim::experiments::{self, ExperimentContext, SuiteData};
use btr_wire::{json, MapBuilder, Value, Wire};
use btr_workloads::spec::SuiteConfig;
use std::env;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Runs one experiment and prints a `[timing]` line for it on stderr, so a
/// `reproduce` run doubles as a coarse per-figure performance baseline.
fn run_timed(name: &str, ctx: &ExperimentContext, data: &SuiteData) -> Option<(String, Value)> {
    let start = Instant::now();
    let out = run_experiment(name, ctx, data)?;
    eprintln!(
        "[timing] {name:<20} {:>9.3} s",
        start.elapsed().as_secs_f64()
    );
    Some(out)
}

struct Options {
    experiment: String,
    quick: bool,
    scale: Option<f64>,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut experiment = "all".to_string();
    let mut quick = false;
    let mut scale = None;
    let mut out_dir = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--scale" => {
                let value = args.next().ok_or("--scale requires a value")?;
                let parsed = value
                    .parse()
                    .ok()
                    .filter(|&f| SuiteConfig::is_valid_scale(f));
                scale = Some(parsed.ok_or(format!(
                    "--scale wants a finite number above 0, got {value:?}"
                ))?);
            }
            "--out-dir" => {
                let value = args.next().ok_or("--out-dir requires a path")?;
                out_dir = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: reproduce [EXPERIMENT] [--quick] [--scale FACTOR] [--out-dir DIR]"
                        .to_string(),
                )
            }
            other if !other.starts_with('-') => experiment = other.to_string(),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Options {
        experiment,
        quick,
        scale,
        out_dir,
    })
}

/// Wraps one experiment's structured fields in the artifact envelope.
fn envelope(name: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut b = MapBuilder::new().field("experiment", name);
    for (key, value) in fields {
        b = b.field(key, value);
    }
    b.build()
}

/// Runs one experiment, returning its ASCII rendering and the same data as a
/// wire value (both produced from a single computation).
fn run_experiment(
    name: &str,
    ctx: &ExperimentContext,
    data: &SuiteData,
) -> Option<(String, Value)> {
    let result = match name {
        "table1" => {
            let (rows, out) = experiments::table1(ctx, data);
            let rows = rows
                .into_iter()
                .map(|(benchmark, paper, generated)| {
                    MapBuilder::new()
                        .field("benchmark", benchmark)
                        .field("paper_dynamic_branches", paper)
                        .field("generated_dynamic_branches", generated)
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        "table2" => {
            let (table, analysis, out) = experiments::table2(ctx, data);
            (
                out,
                envelope(
                    name,
                    vec![
                        ("table", table.to_value()),
                        ("analysis", analysis.to_value()),
                    ],
                ),
            )
        }
        "fig1" | "fig2" => {
            let (dist, out) = if name == "fig1" {
                experiments::fig1(ctx, data)
            } else {
                experiments::fig2(ctx, data)
            };
            (out, envelope(name, vec![("distribution", dist.to_value())]))
        }
        "fig3" | "fig4" => {
            let (pas, gas, out) = if name == "fig3" {
                experiments::fig3(ctx, data)
            } else {
                experiments::fig4(ctx, data)
            };
            (
                out,
                envelope(name, vec![("pas", pas.to_value()), ("gas", gas.to_value())]),
            )
        }
        "fig5" | "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" => {
            let (family, metric) = match name {
                "fig5" | "fig9" => (PredictorFamily::PAs, Metric::TakenRate),
                "fig6" | "fig10" => (PredictorFamily::PAs, Metric::TransitionRate),
                "fig7" | "fig11" => (PredictorFamily::GAs, Metric::TakenRate),
                _ => (PredictorFamily::GAs, Metric::TransitionRate),
            };
            let curves = name
                .strip_prefix("fig")
                .is_some_and(|n| n.parse::<u32>().map(|n| n >= 9).unwrap_or(false));
            let (matrix, out) = if curves {
                experiments::fig9_to_12(ctx, data, family, metric)
            } else {
                experiments::fig5_to_8(ctx, data, family, metric)
            };
            (out, envelope(name, vec![("matrix", matrix.to_value())]))
        }
        "fig13" | "fig14" => {
            let family = if name == "fig13" {
                PredictorFamily::PAs
            } else {
                PredictorFamily::GAs
            };
            let (matrix, out) = experiments::fig13_14(ctx, data, family);
            (out, envelope(name, vec![("matrix", matrix.to_value())]))
        }
        "fig15" => {
            let (rows, out) = experiments::fig15(ctx, data);
            let rows = rows
                .into_iter()
                .map(|(benchmark, hist)| {
                    MapBuilder::new()
                        .field("benchmark", benchmark)
                        .field(
                            "percentages",
                            Value::List(hist.percentages().into_iter().map(Value::F64).collect()),
                        )
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        "ablation-binning" => {
            let (rows, out) = experiments::ablation_binning(data);
            let rows = rows
                .into_iter()
                .map(|(scheme, analysis)| {
                    MapBuilder::new()
                        .field("scheme", scheme)
                        .field("analysis", analysis.to_value())
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        "ablation-hybrid" => {
            let (rows, out) = experiments::ablation_hybrid(ctx, data);
            let rows = rows
                .into_iter()
                .map(|(predictor, miss_rate)| {
                    MapBuilder::new()
                        .field("predictor", predictor)
                        .field("miss_rate", miss_rate)
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        "ablation-confidence" => {
            let (rows, out) = experiments::ablation_confidence(data);
            let rows = rows
                .into_iter()
                .map(|(estimator, stats)| {
                    MapBuilder::new()
                        .field("estimator", estimator)
                        .field(
                            "misprediction_coverage",
                            Value::opt_f64(stats.misprediction_coverage()),
                        )
                        .field(
                            "low_confidence_accuracy",
                            Value::opt_f64(stats.low_confidence_accuracy()),
                        )
                        .field("fraction_flagged_low", Value::opt_f64(stats.low_fraction()))
                        .build()
                })
                .collect::<Vec<Value>>();
            (out, envelope(name, vec![("rows", Value::List(rows))]))
        }
        _ => return None,
    };
    Some(result)
}

/// Writes the three per-figure artifacts, failing loudly: a partial artifact
/// directory would silently corrupt downstream comparisons.
fn write_artifacts(dir: &Path, name: &str, ascii: &str, value: &Value) -> Result<(), String> {
    let write = |path: PathBuf, bytes: &[u8]| -> Result<(), String> {
        let mut file =
            std::fs::File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        file.write_all(bytes)
            .map_err(|e| format!("cannot write {path:?}: {e}"))
    };
    write(dir.join(format!("{name}.txt")), ascii.as_bytes())?;
    let mut pretty =
        json::to_string_pretty(value).map_err(|e| format!("cannot encode {name} as JSON: {e}"))?;
    pretty.push('\n');
    write(dir.join(format!("{name}.json")), pretty.as_bytes())?;
    write(
        dir.join(format!("{name}.btrw")),
        &btr_wire::btrw::to_bytes(value),
    )
}

const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablation-binning",
    "ablation-hybrid",
    "ablation-confidence",
];

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Reject typos before paying for suite preparation.
    if options.experiment != "all" && !ALL_EXPERIMENTS.contains(&options.experiment.as_str()) {
        eprintln!(
            "unknown experiment {:?}; valid names: {} or \"all\"",
            options.experiment,
            ALL_EXPERIMENTS.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if let Some(dir) = &options.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out-dir {dir:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut ctx = if options.quick {
        ExperimentContext::quick()
    } else {
        ExperimentContext::paper()
    };
    if let Some(scale) = options.scale {
        ctx = ctx.with_scale(scale);
    }
    eprintln!(
        "preparing suite: {} benchmarks, scale {}, histories 0..={} ...",
        ctx.benchmarks.len(),
        ctx.suite.scale,
        ctx.histories.iter().max().copied().unwrap_or(0)
    );
    let prepare_start = Instant::now();
    let data = ctx.prepare();
    eprintln!(
        "suite ready: {} dynamic conditional branches, {} static branches",
        data.profile.total_dynamic(),
        data.profile.static_count()
    );
    eprintln!(
        "[timing] {:<20} {:>9.3} s\n",
        "prepare-suite",
        prepare_start.elapsed().as_secs_f64()
    );

    let names: Vec<&str> = if options.experiment == "all" {
        ALL_EXPERIMENTS.to_vec()
    } else {
        vec![options.experiment.as_str()]
    };
    for name in names {
        let Some((out, value)) = run_timed(name, &ctx, &data) else {
            eprintln!(
                "unknown experiment {name:?}; valid names: {} or \"all\"",
                ALL_EXPERIMENTS.join(", ")
            );
            return ExitCode::FAILURE;
        };
        println!("{out}\n");
        if let Some(dir) = &options.out_dir {
            if let Err(msg) = write_artifacts(dir, name, &out, &value) {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
