//! # btr-sim
//!
//! Trace-driven branch-prediction simulation harness — the `sim-bpred`
//! substitute used by the Branch Transition Rate reproduction.
//!
//! * [`config`] — predictor configurations the harness knows how to build.
//! * [`engine`] — runs a trace through a predictor, collecting overall and
//!   per-branch hit/miss statistics: one monomorphized per-predictor driver
//!   over an interned trace ([`engine::SimEngine::run`]), a fused
//!   multi-history path that simulates a whole history sweep in one trace
//!   pass ([`engine::SimEngine::run_fused`]), planned onto the SWAR tier when
//!   it fits by [`engine::SimEngine::run_batch`] and the chunk-streamed
//!   variant, and a per-window dispatch path
//!   ([`engine::SimEngine::run_window_dispatch`]).
//! * [`sweep`] — history-length sweeps (0–16) for PAs and GAs, producing the
//!   class × history matrices of the paper's figures; one fused pass per
//!   trace instead of one pass per history length.
//! * [`runner`] — parallel execution of sweeps across the benchmark suite as
//!   one fused task per benchmark on a vendored work-stealing pool.
//! * [`experiments`] — one function per paper table/figure, returning both
//!   structured data and a printable rendering.
//!
//! ```
//! use btr_predictors::twolevel::TwoLevelPredictor;
//! use btr_sim::prelude::*;
//! use btr_workloads::spec::{Benchmark, SuiteConfig};
//!
//! let trace = Benchmark::compress().generate(&SuiteConfig::default().with_scale(1e-6));
//! let result = SimEngine::new().run(&trace.intern(), &mut TwoLevelPredictor::gas_paper(4));
//! assert!(result.overall.lookups > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod experiments;
pub mod runner;
pub mod sweep;

/// Commonly used items.
pub mod prelude {
    pub use crate::config::{PredictorFamily, PredictorKind, WarmupWindow};
    pub use crate::engine::{RunResult, SimEngine};
    pub use crate::experiments::ExperimentContext;
    pub use crate::runner::SuiteRunner;
    pub use crate::sweep::{HistorySweep, SweepResult};
}
