//! The traced run: per-layer metrics for all three workloads.
//!
//! Each workload gets a third of the run. A third of that is an untraced
//! end-to-end phase (the same closed loop as the untraced run, shorter),
//! giving the p50 the stages are laid against. The rest replays the
//! workload's own inputs in process, calling each layer's public function
//! inside a span: traced and untraced replays alternate input by input, and
//! the difference of their medians is the tracing overhead. Every replay
//! checks its output against the same oracle as the end-to-end phase.
//!
//! Stage times are per request (per job for `shard`): spans of one name are
//! summed within a request and the median over requests is reported.

use crate::alloc::peak_heap_growth;
use crate::daemon::Daemon;
use crate::oracle::{self, FAMILY, METRIC, SCHEME, SWEEP_HISTORIES};
use crate::report::Outcome;
use crate::serve_load::{self, Endpoint, Prepared, BTRD_ARGS};
use crate::shard_load::{self, Job};
use crate::stats::{self, Latencies};
use crate::tracer::{SpanId, Tracer};
use btr_core::advisor::HybridAdvisor;
use btr_core::analysis::ClassificationAnalysis;
use btr_core::distribution::{ClassDistribution, Metric};
use btr_core::joint::JointClassTable;
use btr_core::profile::ProgramProfile;
use btr_serve::analysis::{self, BodyFormat};
use btr_serve::digest::DigestReader;
use btr_serve::metrics::MetricsSnapshot;
use btr_shard::{OutDir, UnitSpec};
use btr_sim::config::{PredictorFamily, PredictorKind, WarmupWindow};
use btr_sim::engine::{result_from_dense, BatchLane, SimEngine};
use btr_sim::sweep::SweepResult;
use btr_trace::{ChunkStream, DenseTraceStats, FastBtrtReader};
use btr_wire::Wire;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use stealpool::WorkStealingPool;

const MIB: f64 = 1024.0 * 1024.0;

/// Runs the traced run and writes its spans to `out_dir`.
pub fn run(
    btrd: &Path,
    out_dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    tamper: bool,
) -> Result<Outcome, String> {
    let share = Duration::from_secs_f64(seconds / 3.0);
    let mut out = Outcome::default();
    let classify = classify(btrd, seed, share, tamper, &mut out)?;
    let sweep = sweep(btrd, seed, share, tamper, &mut out)?;
    let shard = shard(out_dir, seed, share, tamper, &mut out)?;
    let path = out_dir.join(format!("spans-{workload}-{seed}.jsonl"));
    Tracer::write_to(&[&classify, &sweep, &shard], &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(format!(
        "{} spans written to {}",
        classify.spans().len() + sweep.spans().len() + shard.spans().len(),
        path.display()
    ));
    Ok(out)
}

/// Median milliseconds per request in spans named `name`.
fn stage_ms(t: &Tracer, name: &str) -> Option<f64> {
    stats::nearest_rank(&t.per_request_ms(name), 50.0)
}

/// Replays `inputs` inputs through `replay` for `budget`, alternating
/// traced and untraced passes over each input (the order flips every
/// input, so neither side always runs warm). Returns the tracing overhead
/// in ms: the median traced pass minus the median untraced pass.
fn alternate(
    t: &mut Tracer,
    budget: Duration,
    inputs: usize,
    out: &mut Outcome,
    mut replay: impl FnMut(&mut Tracer, usize) -> Result<(), String>,
) -> Option<f64> {
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let started = Instant::now();
    let mut k = 0usize;
    // At least two passes per input, so every input is traced once.
    while k < 2 * inputs || started.elapsed() < budget || k % 2 == 1 {
        let pair = k / 2;
        let on = k.is_multiple_of(2) != (pair % 2 == 1);
        t.set_enabled(on);
        let t0 = Instant::now();
        let result = replay(t, pair % inputs);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match result {
            Ok(()) if on => traced.push(ms),
            Ok(()) => untraced.push(ms),
            Err(e) => out.fail(e),
        }
        k += 1;
    }
    t.set_enabled(true);
    Some(stats::nearest_rank(&traced, 50.0)? - stats::nearest_rank(&untraced, 50.0)?)
}

/// A short untraced closed loop against a fresh `btrd`: the end-to-end
/// latencies the stages are compared with, and the daemon's counters.
fn serve_e2e(
    btrd: &Path,
    prepared: &Prepared,
    budget: Duration,
    out: &mut Outcome,
) -> Result<(Latencies, Option<MetricsSnapshot>), String> {
    let (daemon, _) = Daemon::start(btrd, &BTRD_ARGS)?;
    let (timed, snap) = serve_load::measure(&daemon, prepared, budget, out);
    Ok((timed.latencies, snap))
}

fn digest(t: &mut Tracer, req: u64, parent: SpanId, body: &[u8]) -> Result<u64, String> {
    t.stage(req, parent, "serve.digest", || {
        let mut reader = DigestReader::new(body);
        std::io::copy(&mut reader, &mut std::io::sink())
            .map(|_| reader.digest().finish())
            .map_err(|e| e.to_string())
    })
}

/// One `/classify` request's stages, in the order `btrd` runs them.
fn classify_replay(t: &mut Tracer, body: &[u8], expected: &[u8]) -> Result<(), String> {
    let budgets = oracle::server_budgets();
    let req = t.next_request();
    let root = t.enter(req, None, "request");
    black_box(digest(t, req, root, body)?);
    // Decode and stats interleave chunk by chunk, as in btrd's drain.
    let id = t.enter(req, root, "trace.decode");
    let reader = FastBtrtReader::new(body, budgets.chunk_records);
    t.exit(id);
    let mut reader = reader.map_err(|e| e.to_string())?;
    let mut dense = DenseTraceStats::new();
    loop {
        let id = t.enter(req, root, "trace.decode");
        let next = reader.pull();
        t.exit(id);
        let Some(chunk) = next else { break };
        let chunk = chunk.map_err(|e| e.to_string())?;
        t.stage(req, root, "trace.stats", || dense.observe_chunk(&chunk));
        reader.recycle(chunk);
    }
    let stats = t.stage(req, root, "trace.stats", || dense.into_trace_stats());
    let profile = t.stage(req, root, "core.profile", || {
        ProgramProfile::from_stats(&stats)
    });
    black_box(t.stage(req, root, "core.classify_doc", || {
        let table = JointClassTable::from_profile(&profile, SCHEME);
        let taken = ClassDistribution::from_profile(&profile, Metric::TakenRate, SCHEME);
        let transition = ClassDistribution::from_profile(&profile, Metric::TransitionRate, SCHEME);
        let analysis = ClassificationAnalysis::from_table(&table);
        let advice = HybridAdvisor::new(SCHEME).recommend(&table);
        (
            table.to_value(),
            taken.to_value(),
            transition.to_value(),
            analysis.to_value(),
            advice.len(),
        )
    }));
    let outcome = t
        .stage(req, root, "serve.run_classify", || {
            analysis::run_classify(body, BodyFormat::Btrt, SCHEME, budgets)
        })
        .map_err(|e| e.to_string())?;
    let json = t.stage(req, root, "wire.json_encode", || {
        oracle::json(&outcome.value)
    })?;
    t.exit(root);
    if json != expected {
        return Err("classify replay differs from the oracle".into());
    }
    Ok(())
}

fn classify(
    btrd: &Path,
    seed: u64,
    budget: Duration,
    tamper: bool,
    out: &mut Outcome,
) -> Result<Tracer, String> {
    let prepared = Prepared::new(Endpoint::Classify, seed, tamper)?;
    let (latencies, _) = serve_e2e(btrd, &prepared, budget / 3, out)?;
    let p50 = latencies.percentile(50.0);
    let mut t = Tracer::new("classify");
    let n = prepared.uploads.len();
    let overhead = alternate(&mut t, budget * 2 / 3, n, out, |t, i| {
        classify_replay(t, &prepared.uploads[i].body, &prepared.expected[i])
    });
    let ms = |name| stage_ms(&t, name);
    let records = prepared.uploads.iter().map(|u| u.records).sum::<u64>() as f64 / n as f64;
    let statics = prepared
        .uploads
        .iter()
        .map(|u| u.static_branches)
        .sum::<usize>() as f64
        / n as f64;
    let response_bytes = prepared.expected.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    let leaves = [
        "serve.digest",
        "trace.decode",
        "trace.stats",
        "core.profile",
        "core.classify_doc",
        "wire.json_encode",
    ]
    .map(&ms);
    let run = ms("serve.run_classify");
    let encode = ms("wire.json_encode");
    out.metric("classify.serve.digest_ms", leaves[0]);
    out.metric("classify.trace.decode_ms", leaves[1]);
    out.metric(
        "classify.trace.decode_records_per_s",
        leaves[1].and_then(|d| stats::ratio(records, d / 1e3)),
    );
    out.metric("classify.trace.stats_ms", leaves[2]);
    out.metric("classify.core.profile_ms", leaves[3]);
    out.metric("classify.core.classify_doc_ms", leaves[4]);
    out.metric("classify.wire.json_encode_ms", encode);
    out.metric("classify.wire.response_bytes", Some(response_bytes));
    out.metric("classify.serve.run_classify_ms", run);
    out.metric(
        "classify.serve.http_residual_ms",
        sum_all(&[run, encode])
            .zip(p50)
            .map(|(s, p)| stats::residual(p, &[s])),
    );
    out.metric("classify.trace.static_branches", Some(statics));
    waterfall(out, "classify", p50, &leaves, overhead, latencies.len());
    Ok(t)
}

/// `Some(sum)` when every value is present.
fn sum_all(values: &[Option<f64>]) -> Option<f64> {
    values.iter().copied().sum()
}

/// The e2e p50 of the traced run, the share of it the leaf stages account
/// for, and the tracing overhead.
fn waterfall(
    out: &mut Outcome,
    workload: &str,
    p50: Option<f64>,
    leaves: &[Option<f64>],
    overhead: Option<f64>,
    samples: usize,
) {
    let covered = sum_all(leaves);
    let coverage = covered.zip(p50).and_then(|(c, p)| stats::ratio(c, p));
    out.metric(&format!("{workload}.e2e_p50_ms"), p50);
    out.metric(&format!("{workload}.stage_coverage"), coverage);
    out.metric(&format!("{workload}.tracing_overhead_ms"), overhead);
    out.note(format!(
        "{workload}: stages cover {:.0}% of the {:.3} ms e2e p50 ({samples} untraced \
         samples); {:.3} ms is unaccounted",
        coverage.unwrap_or(f64::NAN) * 100.0,
        p50.unwrap_or(f64::NAN),
        covered
            .zip(p50)
            .map(|(c, p)| stats::residual(p, &[c]))
            .unwrap_or(f64::NAN),
    ));
}

/// One `/sweep` request's batch-path stages, then the streamed
/// alternative over the same bytes.
fn sweep_replay(
    t: &mut Tracer,
    body: &[u8],
    expected: &[u8],
    pool: &WorkStealingPool,
) -> Result<(), String> {
    let budgets = oracle::server_budgets();
    let req = t.next_request();
    let root = t.enter(req, None, "request");
    black_box(digest(t, req, root, body)?);
    let materialized = t
        .stage(req, root, "serve.materialize", || {
            analysis::materialize_sweep(body, BodyFormat::Btrt, budgets)
        })
        .map_err(|e| e.to_string())?;
    let results = t.stage(req, root, "sim.run_batch", || {
        SimEngine::new().run_batch(
            &[materialized.interned.as_ref()],
            vec![BatchLane::new(0, FAMILY.fused_paper(&SWEEP_HISTORIES))],
        )
    });
    let results = results
        .into_iter()
        .next()
        .ok_or("run_batch returned no lane")?;
    let outcome = t.stage(req, root, "core.sweep_doc", || {
        analysis::sweep_document(
            &materialized,
            FAMILY,
            &SWEEP_HISTORIES,
            results,
            METRIC,
            SCHEME,
            pool,
        )
    });
    let json = t.stage(req, root, "wire.json_encode", || {
        oracle::json(&outcome.value)
    })?;
    let streamed = t
        .stage(req, root, "serve.run_sweep_streamed", || {
            analysis::run_sweep(
                body,
                BodyFormat::Btrt,
                SCHEME,
                METRIC,
                FAMILY,
                &SWEEP_HISTORIES,
                budgets,
                pool,
            )
        })
        .map_err(|e| e.to_string())?;
    t.exit(root);
    if json != expected || oracle::json(&streamed.value)? != expected {
        return Err("sweep replay differs from the oracle".into());
    }
    Ok(())
}

fn sweep(
    btrd: &Path,
    seed: u64,
    budget: Duration,
    tamper: bool,
    out: &mut Outcome,
) -> Result<Tracer, String> {
    let prepared = Prepared::new(Endpoint::Sweep, seed, tamper)?;
    let pool = oracle::server_pool();
    let budgets = oracle::server_budgets();
    // Peak heap per path, once per upload (allocation is deterministic).
    let mut materialize_peak = 0u64;
    let mut streamed_peak = 0u64;
    for upload in &prepared.uploads {
        let (m, peak) = peak_heap_growth(|| {
            analysis::materialize_sweep(upload.body.as_slice(), BodyFormat::Btrt, budgets)
        });
        m.map_err(|e| e.to_string())?;
        materialize_peak = materialize_peak.max(peak);
        let (s, peak) = peak_heap_growth(|| {
            analysis::run_sweep(
                upload.body.as_slice(),
                BodyFormat::Btrt,
                SCHEME,
                METRIC,
                FAMILY,
                &SWEEP_HISTORIES,
                budgets,
                &pool,
            )
        });
        s.map_err(|e| e.to_string())?;
        streamed_peak = streamed_peak.max(peak);
    }
    let (latencies, snap) = serve_e2e(btrd, &prepared, budget / 3, out)?;
    let p50 = latencies.percentile(50.0);
    let mut t = Tracer::new("sweep");
    let n = prepared.uploads.len();
    let overhead = alternate(&mut t, budget * 2 / 3, n, out, |t, i| {
        sweep_replay(t, &prepared.uploads[i].body, &prepared.expected[i], &pool)
    });
    let ms = |name| stage_ms(&t, name);
    let records = prepared.uploads.iter().map(|u| u.records).sum::<u64>() as f64 / n as f64;
    let leaves = [
        "serve.digest",
        "serve.materialize",
        "sim.run_batch",
        "core.sweep_doc",
        "wire.json_encode",
    ]
    .map(&ms);
    out.metric("sweep.serve.digest_ms", leaves[0]);
    out.metric("sweep.serve.materialize_ms", leaves[1]);
    out.metric(
        "sweep.serve.materialize_peak_heap_mib",
        Some(materialize_peak as f64 / MIB),
    );
    out.metric("sweep.sim.run_batch_ms", leaves[2]);
    out.metric(
        "sweep.sim.batch_history_records_per_s",
        leaves[2].and_then(|b| stats::ratio(records * SWEEP_HISTORIES.len() as f64, b / 1e3)),
    );
    out.metric("sweep.core.sweep_doc_ms", leaves[3]);
    out.metric("sweep.wire.json_encode_ms", leaves[4]);
    out.metric(
        "sweep.serve.run_sweep_streamed_ms",
        ms("serve.run_sweep_streamed"),
    );
    out.metric(
        "sweep.serve.run_sweep_streamed_peak_heap_mib",
        Some(streamed_peak as f64 / MIB),
    );
    out.metric(
        "sweep.serve.http_residual_ms",
        sum_all(&leaves[1..])
            .zip(p50)
            .map(|(s, p)| stats::residual(p, &[s])),
    );
    out.metric(
        "sweep.serve.batched_lanes",
        snap.map(|s| s.batched_lanes as f64),
    );
    out.metric("sweep.serve.busy_503", snap.map(|s| s.rejected_busy as f64));
    waterfall(out, "sweep", p50, &leaves, overhead, latencies.len());
    Ok(t)
}

/// Work counts the shard replay observes.
#[derive(Debug, Default)]
struct ShardCounts {
    generations: u64,
    traces: u64,
    replayed: u64,
    scored: u64,
}

/// One `shard` job's stages: per unit, generate, intern, the windowed
/// dispatch per history, then `UnitSpec::execute` as a whole and the
/// checkpoint commit; per benchmark, the fused whole-trace reference.
fn shard_replay(
    t: &mut Tracer,
    job: &Job,
    dir: &Path,
    counts: &mut ShardCounts,
) -> Result<(), String> {
    let req = t.next_request();
    let root = t.enter(req, None, "job");
    let units = job.spec.plan_units().map_err(|e| e.to_string())?;
    let out_dir = OutDir::new(dir);
    out_dir.init().map_err(|e| e.to_string())?;
    let engine = SimEngine::new();
    for unit in &units {
        let trace = t.stage(req, root, "workloads.generate", || {
            unit.benchmark.generate(&unit.config)
        });
        counts.generations += 1;
        let interned = t.stage(req, root, "trace.intern", || trace.intern());
        let (start, end) = UnitSpec::window_bounds(
            interned.records().len(),
            unit.window_index,
            unit.window_count,
        );
        let warmup = WarmupWindow::FullPrefix;
        let mut parts = Vec::with_capacity(unit.histories.len());
        for &history in &unit.histories {
            let result = t.stage(req, root, "sim.window_dispatch", || {
                let kind = match unit.family {
                    PredictorFamily::PAs => PredictorKind::PAsPaper { history },
                    PredictorFamily::GAs => PredictorKind::GAsPaper { history },
                };
                let mut predictor = kind.build_dispatch();
                let dense =
                    engine.run_window_dispatch(&interned, &mut predictor, start, end, warmup);
                result_from_dense(dense, interned.addrs())
            });
            parts.push((history, result));
            counts.replayed += (start - warmup.warm_start(start)) as u64;
            counts.scored += (end - start) as u64;
        }
        let executed = t
            .stage(req, root, "shard.unit_execute", || unit.execute())
            .map_err(|e| e.to_string())?;
        if executed != SweepResult::from_parts(unit.family, parts) {
            return Err(format!(
                "unit {}: execute differs from its stages",
                unit.unit_id
            ));
        }
        let labeled = executed.with_source(unit.source_label());
        t.stage(req, root, "shard.commit", || {
            out_dir.commit_partial(unit, &labeled, 0)
        })
        .map_err(|e| e.to_string())?;
    }
    for benchmark in &job.spec.benchmarks {
        let interned = benchmark.generate(&job.spec.config).intern();
        counts.traces += 1;
        black_box(t.stage(req, root, "sim.fused", || {
            engine.run_fused(
                &interned,
                &mut job.spec.family.fused_paper(&job.spec.histories),
            )
        }));
    }
    t.exit(root);
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

fn shard(
    out_dir: &Path,
    seed: u64,
    budget: Duration,
    tamper: bool,
    out: &mut Outcome,
) -> Result<Tracer, String> {
    let jobs = shard_load::jobs(seed, tamper)?;
    let root = shard_load::scratch_root(out_dir, "shard-traced");
    let (latencies, _, _) = shard_load::job_loop(&root, &jobs, budget / 3, 2, out);
    let p50 = latencies.percentile(50.0);
    let mut t = Tracer::new("shard");
    let mut counts = ShardCounts::default();
    let mut replays = 0u64;
    let overhead = alternate(&mut t, budget * 2 / 3, jobs.len(), out, |t, i| {
        replays += 1;
        shard_replay(
            t,
            &jobs[i],
            &root.join(format!("replay-{replays}")),
            &mut counts,
        )
    });
    let _ = std::fs::remove_dir_all(&root);
    let ms = |name| stage_ms(&t, name);
    let leaves = [
        "workloads.generate",
        "trace.intern",
        "sim.window_dispatch",
        "shard.commit",
    ]
    .map(&ms);
    let execute = ms("shard.unit_execute");
    out.metric("shard.workloads.generate_ms", leaves[0]);
    out.metric(
        "shard.workloads.regenerations_per_trace",
        stats::ratio(counts.generations as f64, counts.traces as f64),
    );
    out.metric("shard.trace.intern_ms", leaves[1]);
    out.metric("shard.sim.window_dispatch_ms", leaves[2]);
    out.metric(
        "shard.sim.window_replay_ratio",
        stats::ratio(counts.replayed as f64, counts.scored as f64),
    );
    out.metric("shard.sim.fused_ms", ms("sim.fused"));
    out.metric("shard.shard.unit_execute_ms", execute);
    out.metric("shard.shard.commit_ms", leaves[3]);
    out.metric(
        "shard.shard.coordinator_residual_ms",
        sum_all(&[execute, leaves[3]])
            .zip(p50)
            .map(|(s, p)| stats::residual(p, &[s])),
    );
    waterfall(out, "shard", p50, &leaves, overhead, latencies.len());
    Ok(t)
}
