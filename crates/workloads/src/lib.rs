//! # btr-workloads
//!
//! Synthetic SPECint95-like branch workload generation for the Branch
//! Transition Rate reproduction.
//!
//! The original study ran the SPECint95 binaries to completion under
//! SimpleScalar and analysed billions of dynamic conditional branches
//! (Table 1 of the paper). Those binaries, inputs and the simulator are
//! substituted here by a calibrated synthetic workload model:
//!
//! * every benchmark is a population of static branches;
//! * each static branch is assigned a target *(taken rate, transition rate)*
//!   drawn from the paper's Table 2 joint distribution ([`table2`]);
//! * the branch's outcome stream is produced either by a deterministic
//!   periodic run-structured pattern (the "predictable" share of a class) or
//!   by a two-state Markov process with exactly the requested stationary
//!   rates ([`process`]);
//! * dynamic execution counts follow Table 1, scaled by a configurable factor
//!   ([`spec`]).
//!
//! Because the paper's analyses depend only on the joint rate distribution,
//! the short-term pattern structure and the amount of static-branch aliasing
//! pressure, this model reproduces the *shape* of every figure while running
//! on a laptop. A small control-flow-graph program model ([`cfg`](mod@cfg)) is also
//! provided as a more literal, structural trace source.
//!
//! ```
//! use btr_workloads::spec::{Benchmark, SuiteConfig};
//!
//! let config = SuiteConfig::default().with_scale(1e-6).with_seed(1);
//! let trace = Benchmark::compress().generate(&config);
//! assert!(trace.conditional_count() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod cfg;
pub mod generator;
pub mod process;
pub mod spec;
pub mod table2;

pub use cell::{CellTarget, JointCell};
pub use generator::{StaticBranchSpec, WorkloadGenerator};
pub use spec::{Benchmark, SuiteConfig};
