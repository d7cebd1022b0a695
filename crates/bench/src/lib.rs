//! Shared helpers for the Criterion benchmarks.
//!
//! The benchmarks time the engine, decoder, wire, shard and serve paths
//! under `cargo bench`. The paper's tables and figures come out of the
//! `reproduce` binary, whose `[timing]` lines time each experiment at its
//! configured scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use btr_sim::config::{PredictorKind, WarmupWindow};
use btr_sim::engine::{result_from_dense, RunResult, SimEngine};
use btr_trace::InternedTrace;

/// One monomorphized per-predictor pass over a whole interned trace: a
/// full-range [`SimEngine::run_window_dispatch`] folded into a [`RunResult`].
/// The per-history baseline rows time this against the fused tiers.
pub fn run_full_window(
    engine: &SimEngine,
    trace: &InternedTrace,
    kind: PredictorKind,
) -> RunResult {
    let mut predictor = kind.build_dispatch();
    let (len, full) = (trace.len(), WarmupWindow::FullPrefix);
    let dense = engine.run_window_dispatch(trace, &mut predictor, 0, len, full);
    result_from_dense(dense, trace.addrs())
}
