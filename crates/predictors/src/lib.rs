//! # btr-predictors
//!
//! Branch predictor substrate for the Branch Transition Rate reproduction.
//!
//! The HPCA 2000 paper evaluates two members of Yeh & Patt's two-level
//! adaptive family — **PAs** (per-address history, set-indexed pattern tables)
//! and **GAs** (global history, set-indexed pattern tables) — under a fixed
//! 32 KB hardware budget, sweeping the history length from 0 to 16. This crate
//! implements those predictors with the paper's exact sizing rules
//! ([`twolevel`], [`budget`]), plus the related-work predictors the
//! simulation harness and its ablations drive (bimodal, gshare, the McFarling
//! hybrid), static predictors, the classification-guided hybrid the paper
//! sketches in §5.4 ([`hybrid::ClassifiedHybrid`]) and the confidence
//! estimators of §5.3 ([`confidence`]).
//!
//! Every predictor implements the [`predictor::BranchPredictor`] trait so the
//! simulation harness can drive them interchangeably.
//!
//! ```
//! use btr_predictors::prelude::*;
//! use btr_trace::{BranchAddr, Outcome};
//!
//! // A GAs predictor with 8 bits of global history under the paper's 32 KB budget.
//! let mut gas = TwoLevelPredictor::new(TwoLevelConfig::gas_paper(8));
//! let addr = BranchAddr::new(0x40_0100);
//! let prediction = gas.predict(addr);
//! gas.update(addr, Outcome::Taken);
//! assert!(matches!(prediction, Outcome::Taken | Outcome::NotTaken));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bimodal;
pub mod budget;
pub mod confidence;
pub mod counter;
pub mod dispatch;
pub mod fused;
pub mod gshare;
pub mod history;
pub mod hybrid;
pub mod pht;
pub mod predictor;
pub mod staticp;
pub mod swar;
pub mod twolevel;

/// Commonly used predictor items.
pub mod prelude {
    pub use crate::bimodal::BimodalPredictor;
    pub use crate::budget::HardwareBudget;
    pub use crate::confidence::{ConfidenceEstimator, JacobsenOneLevel, JacobsenTwoLevel};
    pub use crate::counter::SaturatingCounter;
    pub use crate::dispatch::DispatchPredictor;
    pub use crate::fused::FusedSweepPredictor;
    pub use crate::gshare::GsharePredictor;
    pub use crate::hybrid::{ClassifiedHybrid, McFarlingHybrid};
    pub use crate::predictor::BranchPredictor;
    pub use crate::staticp::StaticPredictor;
    pub use crate::swar::{CounterLut, SwarBlock};
    pub use crate::twolevel::{TwoLevelConfig, TwoLevelPredictor};
}
