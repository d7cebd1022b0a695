//! # btr — Branch Transition Rate analysis toolkit
//!
//! Facade crate for the reproduction of *"Branch Transition Rate: A New
//! Metric for Improved Branch Classification Analysis"* (Haungs, Sallee,
//! Farrens — HPCA 2000).
//!
//! The workspace is organised as a set of focused crates, all re-exported
//! here for convenience:
//!
//! * [`trace`] — branch trace records, traces, serialization and statistics.
//! * [`workloads`] — synthetic SPECint95-like workload generation.
//! * [`predictors`] — two-level adaptive predictors (PAs, GAs, gshare, …),
//!   hybrids and confidence estimators.
//! * [`core`] — the paper's contribution: taken-rate / transition-rate
//!   classification and the analyses built on it.
//! * [`sim`] — the trace-driven simulation harness and per-figure experiment
//!   definitions.
//! * [`wire`] — the JSON and `BTRW` wire formats every analysis artifact
//!   serialises through.
//!
//! ## Quickstart
//!
//! ```
//! use btr::prelude::*;
//!
//! // Generate a small synthetic benchmark trace.
//! let suite = SuiteConfig::default().with_scale(1e-6).with_seed(7);
//! let trace = Benchmark::compress().generate(&suite);
//!
//! // Profile it and classify every static branch.
//! let profile = ProgramProfile::from_trace(&trace);
//! let table = JointClassTable::from_profile(&profile, BinningScheme::Paper11);
//! assert!(table.total_percentage() > 99.0);
//! ```

#![forbid(unsafe_code)]

pub use btr_core as core;
pub use btr_predictors as predictors;
pub use btr_sim as sim;
pub use btr_trace as trace;
pub use btr_wire as wire;
pub use btr_workloads as workloads;

/// Commonly used items, re-exported for ergonomic `use btr::prelude::*;`.
pub mod prelude {
    pub use btr_core::{
        analysis::ClassificationAnalysis, class::BinningScheme, class::ClassId,
        distribution::ClassDistribution, joint::JointClassTable, profile::BranchProfile,
        profile::ProgramProfile, rates::TakenRate, rates::TransitionRate,
    };
    pub use btr_predictors::{
        predictor::BranchPredictor, twolevel::TwoLevelConfig, twolevel::TwoLevelPredictor,
    };
    pub use btr_sim::{config::PredictorKind, engine::SimEngine};
    pub use btr_trace::{BranchAddr, BranchKind, BranchRecord, Outcome, Trace, TraceBuilder};
    pub use btr_wire::Wire;
    pub use btr_workloads::{spec::Benchmark, spec::SuiteConfig};
}
