//! # btr-shard
//!
//! Fault-tolerant sharded sweep runner for the Branch Transition Rate
//! reproduction: partitions a history sweep into (benchmark × history-group
//! × trace-window) work units, dispatches them to worker processes, and
//! re-merges the committed partials into a final [`btr_sim::sweep::SweepResult`]
//! that is **bit-identical** to the sequential [`btr_sim::sweep::HistorySweep`]
//! reference — no matter which workers crashed, stalled, tore their
//! checkpoints, or were re-issued along the way.
//!
//! * [`unit`](mod@unit) — [`unit::SweepSpec`] (the whole experiment) and
//!   [`unit::UnitSpec`] (one self-contained work unit; ships descriptors,
//!   never trace bytes).
//! * [`manifest`] — the one-directory out dir: crash-safe
//!   write-temp-then-rename commits, the write-once manifest, one generated
//!   `BTRT` trace per benchmark that every unit is bound to, and
//!   first-committed-wins duplicate resolution.
//! * [`coordinator`] — dispatch, straggler deadlines, capped exponential
//!   backoff, retry budgets, and the deterministic final merge.
//! * [`worker`] — unit execution and the checkpoint commit protocol, shared
//!   by the `btr-shard-worker` binary and the in-process launcher.
//! * [`fault`] — the seed-driven `BTR_FAULT` fault-injection harness.
//! * [`error`] — typed errors; nothing in this crate panics on bad input.
//!
//! ```no_run
//! use btr_shard::{Coordinator, CoordinatorConfig, OutDir, SweepSpec};
//! use btr_sim::config::PredictorFamily;
//! use btr_workloads::{Benchmark, SuiteConfig};
//!
//! let spec = SweepSpec {
//!     family: PredictorFamily::PAs,
//!     histories: (0..=16).collect(),
//!     benchmarks: Benchmark::suite(),
//!     config: SuiteConfig::default(),
//!     history_group: 6,
//!     window_count: 2,
//!     trace_file: None,
//! };
//! let coordinator = Coordinator::new(OutDir::new("out"), CoordinatorConfig::default());
//! let result = coordinator.run(spec).expect("sweep converges");
//! assert_eq!(result.history_lengths().len(), 17);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod error;
pub mod fault;
pub mod manifest;
pub mod unit;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, Launcher};
pub use error::{Result, ShardError};
pub use fault::{FaultKind, FaultPlan, FAULT_ENV};
pub use manifest::{Manifest, OutDir, MANIFEST_FORMAT};
pub use unit::{SweepSpec, UnitSpec};

use btr_sim::sweep::{HistorySweep, SweepResult};

/// Runs the sequential reference for a spec: every benchmark trace through
/// the fused [`HistorySweep`] — no sharding, no checkpoints. The sharded
/// runner's merged result must match this bit for bit.
pub fn run_sequential(spec: &SweepSpec) -> Result<SweepResult> {
    spec.validate()?;
    let traces: Vec<_> = spec
        .benchmarks
        .iter()
        .map(|b| b.generate(&spec.config))
        .collect();
    let refs: Vec<_> = traces.iter().collect();
    Ok(HistorySweep::new(spec.family, spec.histories.clone()).run(&refs))
}
