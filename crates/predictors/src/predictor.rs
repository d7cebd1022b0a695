//! The common interface every branch predictor implements.

use btr_trace::{BranchAddr, Outcome};
use btr_wire::{MapBuilder, Value, Wire, WireError};

/// A dynamic branch predictor driven by a trace of conditional branches.
///
/// The simulation protocol is the standard one used by `sim-bpred`: for each
/// dynamic conditional branch, call [`BranchPredictor::predict`] with the
/// branch address, compare the returned direction against the actual outcome,
/// then call [`BranchPredictor::update`] with that actual outcome so the
/// predictor can train its state.
///
/// Implementations must be deterministic: the same sequence of
/// `predict`/`update` calls must always produce the same predictions, so that
/// experiments are exactly reproducible.
pub trait BranchPredictor {
    /// Predicts the direction of the next execution of the branch at `addr`.
    fn predict(&self, addr: BranchAddr) -> Outcome;

    /// Trains the predictor with the actual outcome of the branch at `addr`.
    fn update(&mut self, addr: BranchAddr, outcome: Outcome);

    /// A short human-readable name, e.g. `"GAs(h=8)"`.
    fn name(&self) -> String;

    /// The number of state bits this configuration occupies, for budget
    /// accounting against the paper's 32 KB limit.
    fn storage_bits(&self) -> u64;

    /// Fused predict+update: predicts, compares against `outcome`, updates,
    /// and returns whether the prediction was correct.
    ///
    /// This is the simulation hot path — one call per dynamic branch instead
    /// of a `predict`/`update` virtual-call pair. The default implementation
    /// composes the two primitives; table-based predictors override it to
    /// resolve their index/slot once per branch. Overrides must stay
    /// bit-identical to `predict` followed by `update` — the engine's tests
    /// check that against a `predict`-then-`update` oracle.
    #[inline]
    fn access(&mut self, addr: BranchAddr, outcome: Outcome) -> bool {
        let hit = self.predict(addr) == outcome;
        self.update(addr, outcome);
        hit
    }
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for Box<P> {
    fn predict(&self, addr: BranchAddr) -> Outcome {
        (**self).predict(addr)
    }

    fn update(&mut self, addr: BranchAddr, outcome: Outcome) {
        (**self).update(addr, outcome)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }

    fn access(&mut self, addr: BranchAddr, outcome: Outcome) -> bool {
        // Delegate so a boxed predictor keeps its fused override instead of
        // falling back to the two-virtual-call default.
        (**self).access(addr, outcome)
    }
}

/// Running hit/miss statistics for a predictor under simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Number of predictions made.
    pub lookups: u64,
    /// Number of correct predictions.
    pub hits: u64,
}

impl PredictionStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        PredictionStats::default()
    }

    /// Records one prediction result.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.lookups += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Number of mispredictions.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Miss rate in `[0, 1]`, or `None` if no lookups were made.
    pub fn miss_rate(&self) -> Option<f64> {
        if self.lookups == 0 {
            None
        } else {
            Some(self.misses() as f64 / self.lookups as f64)
        }
    }

    /// Hit (accuracy) rate in `[0, 1]`, or `None` if no lookups were made.
    pub fn hit_rate(&self) -> Option<f64> {
        self.miss_rate().map(|m| 1.0 - m)
    }

    /// Merges another statistics value into this one.
    pub fn merge(&mut self, other: &PredictionStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
    }
}

impl Wire for PredictionStats {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("lookups", self.lookups)
            .field("hits", self.hits)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let stats = PredictionStats {
            lookups: value.get("lookups")?.as_u64()?,
            hits: value.get("hits")?.as_u64()?,
        };
        if stats.hits > stats.lookups {
            return Err(WireError::schema(format!(
                "prediction stats with {} hits out of {} lookups",
                stats.hits, stats.lookups
            )));
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staticp::StaticPredictor;

    #[test]
    fn access_combines_predict_and_update() {
        let mut p = StaticPredictor::always_taken();
        assert!(p.access(BranchAddr::new(0x10), Outcome::Taken));
        assert!(!p.access(BranchAddr::new(0x10), Outcome::NotTaken));
    }

    #[test]
    fn boxed_predictors_delegate() {
        let mut p: Box<dyn BranchPredictor> = Box::new(StaticPredictor::always_not_taken());
        assert_eq!(p.predict(BranchAddr::new(0x10)), Outcome::NotTaken);
        p.update(BranchAddr::new(0x10), Outcome::Taken);
        assert_eq!(p.storage_bits(), 0);
        assert!(p.name().contains("not-taken"));
    }

    #[test]
    fn prediction_stats_track_rates() {
        let mut s = PredictionStats::new();
        assert_eq!(s.miss_rate(), None);
        s.record(true);
        s.record(true);
        s.record(false);
        s.record(false);
        assert_eq!(s.lookups, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.miss_rate(), Some(0.5));
        assert_eq!(s.hit_rate(), Some(0.5));

        let mut other = PredictionStats::new();
        other.record(true);
        s.merge(&other);
        assert_eq!(s.lookups, 5);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn prediction_stats_roundtrip_and_validate_on_decode() {
        let stats = PredictionStats {
            lookups: u64::MAX,
            hits: u64::MAX - 3,
        };
        assert_eq!(
            PredictionStats::from_json(&stats.to_json().expect("saturated stats encode"))
                .expect("encoded stats decode"),
            stats
        );
        assert_eq!(
            PredictionStats::from_btrw(&stats.to_btrw()).expect("BTRW stats decode"),
            stats
        );
        // More hits than lookups is rejected rather than trusted.
        let bad = MapBuilder::new()
            .field("lookups", 2u64)
            .field("hits", 3u64)
            .build();
        assert!(PredictionStats::from_value(&bad).is_err());
    }
}
