//! Predictor and simulation configuration.

use btr_core::class::BinningScheme;
use btr_predictors::bimodal::BimodalPredictor;
use btr_predictors::dispatch::DispatchPredictor;
use btr_predictors::fused::FusedSweepPredictor;
use btr_predictors::gshare::GsharePredictor;
use btr_predictors::predictor::BranchPredictor;
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

    /// The paper-sized predictor of this family at history length `history`.
    pub fn paper_predictor(self, history: u32) -> TwoLevelPredictor {
        match self {
            PredictorFamily::PAs => TwoLevelPredictor::pas_paper(history),
            PredictorFamily::GAs => TwoLevelPredictor::gas_paper(history),
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
    /// Builds the predictor.
    pub fn build(self) -> Box<dyn BranchPredictor> {
        match self {
            PredictorKind::PAsPaper { history } => Box::new(TwoLevelPredictor::pas_paper(history)),
            PredictorKind::GAsPaper { history } => Box::new(TwoLevelPredictor::gas_paper(history)),
            PredictorKind::Gshare { history } => Box::new(GsharePredictor::paper_sized(history)),
            PredictorKind::Bimodal { index_bits } => Box::new(BimodalPredictor::new(index_bits)),
            PredictorKind::StaticTaken => Box::new(StaticPredictor::always_taken()),
            PredictorKind::StaticNotTaken => Box::new(StaticPredictor::always_not_taken()),
        }
    }

    /// Builds the predictor as a [`DispatchPredictor`], the enum-dispatched
    /// form [`crate::engine::SimEngine::run_window_dispatch`] monomorphizes
    /// over.
    /// Every kind this enum can describe maps to a dispatch family, so the
    /// fast path covers the whole configuration space; `build` remains for
    /// predictors constructed outside it.
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

/// How much predictor state a parallel window re-warms before its scored
/// region (see [`crate::engine::SimEngine::run_window_dispatch`]).
///
/// A window simulated in isolation starts from a cold predictor, so its first
/// predictions would diverge from a sequential run. Replaying a warmup region
/// immediately before the window re-trains the predictor first:
///
/// * [`WarmupWindow::FullPrefix`] replays *everything* before the window. The
///   predictor state entering the scored region is then exactly the
///   sequential state, so windowed results are **bit-identical** to one
///   full-range sequential run — at the cost of O(n²/window) total replay
///   work.
/// * [`WarmupWindow::Records`]`(k)` replays only the `k` records before the
///   window: O(n·k/window) extra work, results **approximate** — branch
///   history registers and counters re-converge within tens of records, so
///   divergence is confined to long-range aliasing effects and shrinks as `k`
///   grows (pinned by `tests/streamed_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarmupWindow {
    /// Replay the entire prefix: exact, bit-identical results.
    FullPrefix,
    /// Replay only this many records before the window: approximate results,
    /// bounded replay cost.
    Records(usize),
}

impl WarmupWindow {
    /// The first record index to replay for a window starting at `start`.
    pub fn warm_start(self, start: usize) -> usize {
        match self {
            WarmupWindow::FullPrefix => 0,
            WarmupWindow::Records(k) => start.saturating_sub(k),
        }
    }
}

/// Configuration for splitting one trace into windows simulated in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowConfig {
    /// Conditional records scored per window (the last window may be
    /// shorter).
    pub window_records: usize,
    /// Warmup replayed before each window's scored region.
    pub warmup_window: WarmupWindow,
}

impl WindowConfig {
    /// A window configuration with exact (full-prefix) warmup.
    ///
    /// # Panics
    ///
    /// Panics if `window_records` is zero.
    pub fn new(window_records: usize) -> Self {
        assert!(window_records > 0, "windows must cover at least one record");
        WindowConfig {
            window_records,
            warmup_window: WarmupWindow::FullPrefix,
        }
    }

    /// Sets the warmup window, builder style.
    #[must_use]
    pub fn with_warmup_window(mut self, warmup_window: WarmupWindow) -> Self {
        self.warmup_window = warmup_window;
        self
    }

    /// The `[start, end)` scored ranges covering a trace of `len` conditional
    /// records, in order.
    pub fn windows(&self, len: usize) -> Vec<(usize, usize)> {
        (0..len)
            .step_by(self.window_records)
            .map(|start| (start, (start + self.window_records).min(len)))
            .collect()
    }
}

/// Top-level simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// The predictor to simulate.
    pub predictor: PredictorKind,
    /// The binning scheme used for any classification of the results.
    pub scheme: BinningScheme,
}

impl SimConfig {
    /// Creates a configuration with the paper's binning scheme.
    pub fn new(predictor: PredictorKind) -> Self {
        SimConfig {
            predictor,
            scheme: BinningScheme::Paper11,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_predictors::budget::HardwareBudget;

    #[test]
    fn families_build_paper_predictors() {
        let pas = PredictorFamily::PAs.paper_predictor(8);
        let gas = PredictorFamily::GAs.paper_predictor(8);
        assert_eq!(pas.name(), "PAs(h=8)");
        assert_eq!(gas.name(), "GAs(h=8)");
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
            let p = kind.build();
            assert!(!kind.label().is_empty());
            assert!(
                p.storage_bits() <= budget.bits() + 64,
                "{} exceeds budget",
                kind.label()
            );
        }
    }

    #[test]
    fn window_config_partitions_exactly() {
        let cfg = WindowConfig::new(100).with_warmup_window(WarmupWindow::Records(32));
        assert_eq!(cfg.windows(250), vec![(0, 100), (100, 200), (200, 250)]);
        assert_eq!(cfg.windows(100), vec![(0, 100)]);
        assert_eq!(cfg.windows(0), Vec::<(usize, usize)>::new());
        assert_eq!(cfg.warmup_window.warm_start(150), 118);
        assert_eq!(WarmupWindow::Records(500).warm_start(150), 0);
        assert_eq!(WarmupWindow::FullPrefix.warm_start(150), 0);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_window_size_rejected() {
        let _ = WindowConfig::new(0);
    }

    #[test]
    fn sim_config_defaults_to_paper_binning() {
        let cfg = SimConfig::new(PredictorKind::GAsPaper { history: 4 });
        assert_eq!(cfg.scheme, BinningScheme::Paper11);
        assert_eq!(cfg.predictor.label(), "GAs(h=4)");
    }
}
