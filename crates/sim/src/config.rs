//! Predictor and simulation configuration.

use btr_predictors::bimodal::BimodalPredictor;
use btr_predictors::dispatch::DispatchPredictor;
use btr_predictors::fused::FusedSweepPredictor;
use btr_predictors::gshare::GsharePredictor;
use btr_predictors::staticp::StaticPredictor;
use btr_predictors::twolevel::TwoLevelPredictor;
use btr_wire::{Value, Wire, WireError};

/// The two predictor families the paper sweeps (plus baselines used by the
/// ablation experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorFamily {
    /// Per-address history two-level predictors (the paper's PAs).
    PAs,
    /// Global history two-level predictors (the paper's GAs).
    GAs,
}

impl PredictorFamily {
    /// Short label (`"PAs"` / `"GAs"`).
    pub fn label(self) -> &'static str {
        match self {
            PredictorFamily::PAs => "PAs",
            PredictorFamily::GAs => "GAs",
        }
    }

    /// The paper-sized predictors of this family at **every** history length
    /// in `histories`, fused into one multi-slot predictor so a whole sweep
    /// costs a single trace pass (see
    /// [`crate::engine::SimEngine::run_fused`]).
    pub fn fused_paper(self, histories: &[u32]) -> FusedSweepPredictor {
        match self {
            PredictorFamily::PAs => FusedSweepPredictor::pas_paper(histories),
            PredictorFamily::GAs => FusedSweepPredictor::gas_paper(histories),
        }
    }

    /// The largest history length the paper sweeps for this family under the
    /// 32 KB budget.
    pub fn max_history(self) -> u32 {
        match self {
            PredictorFamily::PAs => 16,
            PredictorFamily::GAs => 16,
        }
    }
}

/// [`PredictorFamily`] encodes as its label (`"PAs"` / `"GAs"`).
impl Wire for PredictorFamily {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        match value.as_str()? {
            "PAs" => Ok(PredictorFamily::PAs),
            "GAs" => Ok(PredictorFamily::GAs),
            other => Err(WireError::schema(format!(
                "unknown predictor family {other:?}"
            ))),
        }
    }
}

/// A buildable predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// The paper's PAs configuration at a given history length.
    PAsPaper {
        /// History length in bits (0–16).
        history: u32,
    },
    /// The paper's GAs configuration at a given history length.
    GAsPaper {
        /// History length in bits (0–16).
        history: u32,
    },
    /// A gshare predictor (32 KB) with the given history length.
    Gshare {
        /// History length in bits.
        history: u32,
    },
    /// An address-indexed bimodal table with `2^index_bits` counters.
    Bimodal {
        /// log2 of the table size.
        index_bits: u32,
    },
    /// Static always-taken.
    StaticTaken,
    /// Static always-not-taken.
    StaticNotTaken,
}

impl PredictorKind {
    /// Builds the predictor as a [`DispatchPredictor`], the enum-dispatched
    /// form [`crate::engine::SimEngine::run_window_dispatch`] monomorphizes
    /// over. Every kind this enum can describe maps to a dispatch family, so
    /// the fast path covers the whole configuration space.
    pub fn build_dispatch(self) -> DispatchPredictor {
        match self {
            PredictorKind::PAsPaper { history } => TwoLevelPredictor::pas_paper(history).into(),
            PredictorKind::GAsPaper { history } => TwoLevelPredictor::gas_paper(history).into(),
            PredictorKind::Gshare { history } => GsharePredictor::paper_sized(history).into(),
            PredictorKind::Bimodal { index_bits } => BimodalPredictor::new(index_bits).into(),
            PredictorKind::StaticTaken => StaticPredictor::always_taken().into(),
            PredictorKind::StaticNotTaken => StaticPredictor::always_not_taken().into(),
        }
    }

    /// A short descriptive label.
    pub fn label(self) -> String {
        match self {
            PredictorKind::PAsPaper { history } => format!("PAs(h={history})"),
            PredictorKind::GAsPaper { history } => format!("GAs(h={history})"),
            PredictorKind::Gshare { history } => format!("gshare(h={history})"),
            PredictorKind::Bimodal { index_bits } => format!("bimodal(2^{index_bits})"),
            PredictorKind::StaticTaken => "static-taken".to_string(),
            PredictorKind::StaticNotTaken => "static-not-taken".to_string(),
        }
    }
}

/// How much predictor state a window re-warms before its scored region (see
/// [`crate::engine::SimEngine::run_window_dispatch`]).
///
/// A window simulated in isolation starts from a cold predictor, so its first
/// predictions would diverge from a sequential run.
/// [`WarmupWindow::FullPrefix`] replays *everything* before the window, so
/// the predictor enters the scored region in exactly the sequential state and
/// merged window partials are **bit-identical** to one full-range run, at the
/// cost of replaying the prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarmupWindow {
    /// Replay the entire prefix: exact, bit-identical results.
    FullPrefix,
}

impl WarmupWindow {
    /// The first record index to replay for a window starting at `_start`.
    pub fn warm_start(self, _start: usize) -> usize {
        match self {
            WarmupWindow::FullPrefix => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_predictors::budget::HardwareBudget;
    use btr_predictors::predictor::BranchPredictor;

    #[test]
    fn families_build_paper_predictors() {
        assert_eq!(PredictorFamily::PAs.label(), "PAs");
        assert_eq!(PredictorFamily::GAs.max_history(), 16);
    }

    #[test]
    fn predictor_kinds_build_and_fit_budget() {
        let budget = HardwareBudget::paper();
        for kind in [
            PredictorKind::PAsPaper { history: 8 },
            PredictorKind::GAsPaper { history: 12 },
            PredictorKind::Gshare { history: 10 },
            PredictorKind::Bimodal { index_bits: 17 },
            PredictorKind::StaticTaken,
            PredictorKind::StaticNotTaken,
        ] {
            let p = kind.build_dispatch();
            assert!(!kind.label().is_empty());
            assert!(
                p.storage_bits() <= budget.bits() + 64,
                "{} exceeds budget",
                kind.label()
            );
        }
    }
}
