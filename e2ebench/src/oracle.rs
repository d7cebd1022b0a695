//! Expected outputs, computed in process before timing starts. A response
//! that differs from its expected bytes counts as a failed operation.

use crate::inputs::Upload;
use btr_core::class::BinningScheme;
use btr_core::distribution::Metric;
use btr_serve::analysis::{self, BodyFormat, Budgets};
use btr_serve::ServerConfig;
use btr_shard::SweepSpec;
use btr_sim::config::PredictorFamily;
use btr_sim::engine::{BatchLane, SimEngine};
use btr_wire::{Value, Wire};
use stealpool::WorkStealingPool;

/// The `/sweep` histories: the paper's full 0..=16-bit sweep.
pub const SWEEP_HISTORIES: [u32; 17] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// The `/sweep` request target matching [`SWEEP_HISTORIES`].
pub fn sweep_target() -> String {
    let list: Vec<String> = SWEEP_HISTORIES.iter().map(u32::to_string).collect();
    format!("/sweep?family=pas&histories={}", list.join(","))
}

/// The budgets a default-configured `btrd` applies to every upload.
pub fn server_budgets() -> Budgets {
    let config = ServerConfig::default();
    Budgets {
        chunk_records: config.chunk_records,
        max_static_branches: config.max_static_branches,
    }
}

/// The post-processing pool a default-configured `btrd` renders with.
pub fn server_pool() -> WorkStealingPool {
    WorkStealingPool::new(ServerConfig::default().analysis_threads.max(1))
}

/// What the endpoints default to when the query leaves them out.
pub const SCHEME: BinningScheme = BinningScheme::Paper11;
/// The `/sweep` default metric.
pub const METRIC: Metric = Metric::TransitionRate;
/// The `/sweep` family the benchmark asks for.
pub const FAMILY: PredictorFamily = PredictorFamily::PAs;

pub(crate) fn json(value: &Value) -> Result<Vec<u8>, String> {
    value
        .to_json()
        .map(String::into_bytes)
        .map_err(|e| format!("encoding a document: {e}"))
}

/// The `/classify` body `btrd` must return: in-process `run_classify`.
pub fn classify_expected(upload: &Upload) -> Result<Vec<u8>, String> {
    let outcome = analysis::run_classify(
        upload.body.as_slice(),
        BodyFormat::Btrt,
        SCHEME,
        server_budgets(),
    )
    .map_err(|e| format!("{}: in-process classify failed: {e}", upload.label))?;
    json(&outcome.value)
}

/// The `/sweep` body `btrd` must return. Rendered twice, once through the
/// batch path (`materialize_sweep`, `run_batch`, `sweep_document`) and once
/// through the streamed `run_sweep`; the two must agree byte for byte.
pub fn sweep_expected(upload: &Upload, pool: &WorkStealingPool) -> Result<Vec<u8>, String> {
    let budgets = server_budgets();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", upload.label);
    let materialized =
        analysis::materialize_sweep(upload.body.as_slice(), BodyFormat::Btrt, budgets)
            .map_err(|e| fail("materialize_sweep failed", &e))?;
    let results = SimEngine::new()
        .run_batch(
            &[materialized.interned.as_ref()],
            vec![BatchLane::new(0, FAMILY.fused_paper(&SWEEP_HISTORIES))],
        )
        .pop()
        .expect("one lane in, one result out");
    let batch = analysis::sweep_document(
        &materialized,
        FAMILY,
        &SWEEP_HISTORIES,
        results,
        METRIC,
        SCHEME,
        pool,
    );
    let streamed = analysis::run_sweep(
        upload.body.as_slice(),
        BodyFormat::Btrt,
        SCHEME,
        METRIC,
        FAMILY,
        &SWEEP_HISTORIES,
        budgets,
        pool,
    )
    .map_err(|e| fail("run_sweep failed", &e))?;
    let batch = json(&batch.value)?;
    if batch != json(&streamed.value)? {
        return Err(format!(
            "{}: batch and streamed sweep renderings differ",
            upload.label
        ));
    }
    Ok(batch)
}

/// The `BTRW` bytes of the sequential reference every sharded run of `spec`
/// must reproduce bit for bit.
pub fn shard_expected(spec: &SweepSpec) -> Result<Vec<u8>, String> {
    btr_shard::run_sequential(spec)
        .map(|result| result.to_btrw())
        .map_err(|e| format!("sequential reference failed: {e}"))
}

/// Flips one byte of an expected document, so every response checked
/// against it must fail. Used to prove the oracle is load-bearing.
pub fn tamper(expected: &mut [u8]) {
    if let Some(last) = expected.last_mut() {
        *last ^= 0x20;
    }
}
