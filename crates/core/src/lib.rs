//! # btr-core
//!
//! The contribution of *"Branch Transition Rate: A New Metric for Improved
//! Branch Classification Analysis"* (Haungs, Sallee, Farrens — HPCA 2000),
//! as a library:
//!
//! * [`rates`] — the two metrics, taken rate and **transition rate**.
//! * [`class`] / [`profile`] — binning schemes and per-branch / per-program
//!   profiles.
//! * [`distribution`] / [`joint`] — dynamic-weighted class distributions
//!   (Figures 1–2) and the joint class table (Table 2).
//! * [`analysis`] — easy-branch coverage, misclassification percentages and
//!   per-class miss-rate aggregation across history lengths (Figures 3–14).
//! * [`hard`] — hard-to-predict (5/5) branch identification and the
//!   inter-occurrence distance histogram (Figure 15).
//! * [`confidence`], [`predication`], [`advisor`] — the §5 applications:
//!   class-based confidence, predication candidate selection and the
//!   classification-guided hybrid designer.
//! * [`report`] — plain-text renderings of every table and figure.
//!
//! ```
//! use btr_core::prelude::*;
//! use btr_trace::{BranchAddr, BranchRecord, Outcome, TraceBuilder};
//!
//! let mut builder = TraceBuilder::new("demo");
//! let addr = BranchAddr::new(0x40_0000);
//! for i in 0..100u32 {
//!     builder.push(BranchRecord::conditional(addr, Outcome::from_bool(i % 2 == 0)));
//! }
//! let trace = builder.build();
//! let profile = ProgramProfile::from_interned(&trace.intern());
//! let branch = profile.branch(addr).unwrap();
//! // A perfectly alternating branch: ~50% taken but ~100% transitions.
//! assert_eq!(branch.taken_class(BinningScheme::Paper11).unwrap().index(), 5);
//! assert_eq!(branch.transition_class(BinningScheme::Paper11).unwrap().index(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod analysis;
pub mod class;
pub mod confidence;
pub mod distribution;
pub mod hard;
pub mod joint;
pub mod predication;
pub mod profile;
pub mod rates;
pub mod report;

/// Commonly used items.
pub mod prelude {
    pub use crate::advisor::{ComponentStyle, HybridAdvisor};
    pub use crate::analysis::{
        BranchMissMap, ClassHistoryMatrix, ClassMissRates, ClassificationAnalysis, JointMissMatrix,
    };
    pub use crate::class::{BinningScheme, ClassId};
    pub use crate::confidence::ClassConfidence;
    pub use crate::distribution::{ClassDistribution, Metric};
    pub use crate::hard::{DistanceHistogram, HardBranchCriteria, HardBranchSet};
    pub use crate::joint::JointClassTable;
    pub use crate::predication::{select_candidates, PredicationPolicy, PredicationSummary};
    pub use crate::profile::{BranchProfile, ProgramProfile};
    pub use crate::rates::{TakenRate, TransitionRate};
}
