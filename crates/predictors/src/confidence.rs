//! Branch-prediction confidence estimation (Jacobsen, Rotenberg, Smith —
//! MICRO 1996), referenced by the paper's §5.3.
//!
//! A confidence estimator watches the stream of prediction hits and misses
//! and labels each upcoming prediction *high confidence* or *low confidence*.
//! The paper argues that a branch's taken/transition class is itself a good
//! confidence signal; `btr-core` builds that class-based estimator on top of
//! the [`ConfidenceEstimator`] trait defined here, alongside Jacobsen's
//! dynamic one-level and two-level estimators used as baselines.

use crate::counter::CappedCounter;
use btr_trace::BranchAddr;

/// A binary confidence decision for one upcoming prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confidence {
    /// The prediction is expected to be correct.
    High,
    /// The prediction is suspect (candidate for dual-path execution,
    /// speculation throttling, …).
    Low,
}

/// Estimates, per branch, whether the next prediction should be trusted.
pub trait ConfidenceEstimator {
    /// The confidence in the next prediction of the branch at `addr`.
    fn estimate(&self, addr: BranchAddr) -> Confidence;

    /// Informs the estimator whether the prediction for `addr` was correct.
    fn update(&mut self, addr: BranchAddr, prediction_correct: bool);

    /// Short human-readable name.
    fn name(&self) -> String;
}

/// Quality metrics for a confidence estimator, following Jacobsen et al.
///
/// * *coverage* (SPEC in their terminology): the fraction of mispredictions
///   that were flagged low-confidence.
/// * *accuracy* (PVN): the fraction of low-confidence flags that really were
///   mispredictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfidenceStats {
    /// Predictions flagged low-confidence that were indeed mispredicted.
    pub low_and_wrong: u64,
    /// Predictions flagged low-confidence that were actually correct.
    pub low_but_right: u64,
    /// Predictions flagged high-confidence that were mispredicted.
    pub high_but_wrong: u64,
    /// Predictions flagged high-confidence that were correct.
    pub high_and_right: u64,
}

impl ConfidenceStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        ConfidenceStats::default()
    }

    /// Records one (confidence, correctness) observation.
    pub fn record(&mut self, confidence: Confidence, prediction_correct: bool) {
        match (confidence, prediction_correct) {
            (Confidence::Low, false) => self.low_and_wrong += 1,
            (Confidence::Low, true) => self.low_but_right += 1,
            (Confidence::High, false) => self.high_but_wrong += 1,
            (Confidence::High, true) => self.high_and_right += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.low_and_wrong + self.low_but_right + self.high_but_wrong + self.high_and_right
    }

    /// Fraction of mispredictions that were flagged low-confidence.
    pub fn misprediction_coverage(&self) -> Option<f64> {
        let wrong = self.low_and_wrong + self.high_but_wrong;
        if wrong == 0 {
            None
        } else {
            Some(self.low_and_wrong as f64 / wrong as f64)
        }
    }

    /// Fraction of low-confidence flags that were real mispredictions.
    pub fn low_confidence_accuracy(&self) -> Option<f64> {
        let low = self.low_and_wrong + self.low_but_right;
        if low == 0 {
            None
        } else {
            Some(self.low_and_wrong as f64 / low as f64)
        }
    }

    /// Fraction of all predictions flagged low-confidence.
    pub fn low_fraction(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            None
        } else {
            Some((self.low_and_wrong + self.low_but_right) as f64 / total as f64)
        }
    }
}

/// Jacobsen's one-level estimator: a table of resetting counters indexed by
/// branch address. A counter is incremented on a correct prediction and reset
/// on a misprediction; confidence is high once the counter saturates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JacobsenOneLevel {
    index_bits: u32,
    threshold: u32,
    counters: Vec<CappedCounter>,
}

impl JacobsenOneLevel {
    /// Creates an estimator with `2^index_bits` resetting counters that
    /// saturate (become high-confidence) at `threshold` consecutive hits.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(index_bits: u32, threshold: u32) -> Self {
        assert!(threshold > 0, "confidence threshold must be positive");
        JacobsenOneLevel {
            index_bits,
            threshold,
            counters: vec![CappedCounter::new(threshold); 1 << index_bits],
        }
    }

    fn slot(&self, addr: BranchAddr) -> usize {
        addr.low_bits(self.index_bits) as usize
    }
}

impl ConfidenceEstimator for JacobsenOneLevel {
    fn estimate(&self, addr: BranchAddr) -> Confidence {
        if self.counters[self.slot(addr)].is_saturated() {
            Confidence::High
        } else {
            Confidence::Low
        }
    }

    fn update(&mut self, addr: BranchAddr, prediction_correct: bool) {
        let slot = self.slot(addr);
        if prediction_correct {
            self.counters[slot].increment();
        } else {
            self.counters[slot].reset();
        }
    }

    fn name(&self) -> String {
        format!("jacobsen-1level(t={})", self.threshold)
    }
}

/// Jacobsen's two-level estimator: a first-level table records the recent
/// correct/incorrect history per branch; the pattern indexes a second-level
/// table of resetting counters shared by all branches with the same recent
/// behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JacobsenTwoLevel {
    addr_index_bits: u32,
    history_bits: u32,
    threshold: u32,
    histories: Vec<u32>,
    counters: Vec<CappedCounter>,
}

impl JacobsenTwoLevel {
    /// Creates a two-level estimator.
    ///
    /// `addr_index_bits` sizes the per-branch correctness-history table,
    /// `history_bits` is the length of each correctness history, and
    /// `threshold` is the saturation point of the second-level counters.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or `history_bits` is zero or above 16.
    pub fn new(addr_index_bits: u32, history_bits: u32, threshold: u32) -> Self {
        assert!(threshold > 0, "confidence threshold must be positive");
        assert!(
            history_bits > 0 && history_bits <= 16,
            "correctness history must be 1..=16 bits"
        );
        JacobsenTwoLevel {
            addr_index_bits,
            history_bits,
            threshold,
            histories: vec![0; 1 << addr_index_bits],
            counters: vec![CappedCounter::new(threshold); 1 << history_bits],
        }
    }

    fn addr_slot(&self, addr: BranchAddr) -> usize {
        addr.low_bits(self.addr_index_bits) as usize
    }
}

impl ConfidenceEstimator for JacobsenTwoLevel {
    fn estimate(&self, addr: BranchAddr) -> Confidence {
        let pattern = self.histories[self.addr_slot(addr)] as usize;
        if self.counters[pattern].is_saturated() {
            Confidence::High
        } else {
            Confidence::Low
        }
    }

    fn update(&mut self, addr: BranchAddr, prediction_correct: bool) {
        let slot = self.addr_slot(addr);
        let pattern = self.histories[slot] as usize;
        if prediction_correct {
            self.counters[pattern].increment();
        } else {
            self.counters[pattern].reset();
        }
        let mask = (1u32 << self.history_bits) - 1;
        self.histories[slot] = ((self.histories[slot] << 1) | u32::from(prediction_correct)) & mask;
    }

    fn name(&self) -> String {
        format!(
            "jacobsen-2level(h={},t={})",
            self.history_bits, self.threshold
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_level_gains_confidence_after_a_run_of_hits() {
        let mut est = JacobsenOneLevel::new(8, 4);
        let addr = BranchAddr::new(0x400100);
        assert_eq!(est.estimate(addr), Confidence::Low);
        for _ in 0..4 {
            est.update(addr, true);
        }
        assert_eq!(est.estimate(addr), Confidence::High);
        est.update(addr, false);
        assert_eq!(est.estimate(addr), Confidence::Low);
        assert!(est.name().contains("1level"));
    }

    #[test]
    fn two_level_shares_patterns_across_branches() {
        let mut est = JacobsenTwoLevel::new(6, 4, 2);
        let a = BranchAddr::new(0x1000);
        let b = BranchAddr::new(0x2000);
        // Branch a establishes that the all-correct pattern is trustworthy.
        for _ in 0..16 {
            est.update(a, true);
        }
        assert_eq!(est.estimate(a), Confidence::High);
        // Branch b reaches the same all-correct pattern after 4 hits and
        // immediately inherits the shared counter's confidence.
        for _ in 0..4 {
            est.update(b, true);
        }
        assert_eq!(est.estimate(b), Confidence::High);
        assert!(est.name().contains("2level"));
    }

    #[test]
    fn two_level_flags_consistently_mispredicted_branches() {
        let mut est = JacobsenTwoLevel::new(6, 4, 3);
        let addr = BranchAddr::new(0x3000);
        for _ in 0..64 {
            est.update(addr, false);
        }
        assert_eq!(est.estimate(addr), Confidence::Low);
    }

    #[test]
    fn two_level_learns_periodic_correctness_patterns() {
        // A strictly alternating hit/miss stream is itself a pattern: the
        // estimator learns that the "previous prediction missed" context is
        // followed by a hit, so confidence after a miss becomes high. This is
        // exactly the pattern-sharing behaviour Jacobsen et al. describe.
        let mut est = JacobsenTwoLevel::new(6, 4, 3);
        let addr = BranchAddr::new(0x3000);
        let mut stats = ConfidenceStats::new();
        for i in 0..256 {
            let correct = i % 2 == 0;
            stats.record(est.estimate(addr), correct);
            est.update(addr, correct);
        }
        // At least some mispredictions must have been flagged low-confidence
        // during warm-up, and overall accounting must balance.
        assert_eq!(stats.total(), 256);
        assert!(stats.low_fraction().expect("256 records imply a fraction") > 0.0);
    }

    #[test]
    fn confidence_stats_compute_coverage_and_accuracy() {
        let mut s = ConfidenceStats::new();
        // 3 mispredictions flagged low, 1 missed (flagged high), 2 false alarms.
        for _ in 0..3 {
            s.record(Confidence::Low, false);
        }
        s.record(Confidence::High, false);
        for _ in 0..2 {
            s.record(Confidence::Low, true);
        }
        for _ in 0..4 {
            s.record(Confidence::High, true);
        }
        assert_eq!(s.total(), 10);
        let coverage = s
            .misprediction_coverage()
            .expect("4 mispredictions recorded");
        assert!((coverage - 0.75).abs() < 1e-12);
        let accuracy = s.low_confidence_accuracy().expect("5 low flags recorded");
        assert!((accuracy - 0.6).abs() < 1e-12);
        let fraction = s.low_fraction().expect("10 records imply a fraction");
        assert!((fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_no_ratios() {
        let s = ConfidenceStats::new();
        assert_eq!(s.misprediction_coverage(), None);
        assert_eq!(s.low_confidence_accuracy(), None);
        assert_eq!(s.low_fraction(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = JacobsenOneLevel::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn bad_history_rejected() {
        let _ = JacobsenTwoLevel::new(4, 0, 2);
    }
}
