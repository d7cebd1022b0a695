//! Class-based confidence estimation (the paper's §5.3).
//!
//! The paper observes that prediction accuracy is closely correlated with a
//! branch's taken and transition rates, so the class itself can serve as a
//! confidence level without measuring per-branch predictor accuracy at run
//! time. [`ClassConfidence`] implements the `btr-predictors`
//! [`ConfidenceEstimator`] interface from a profiling pass.

use crate::profile::ProgramProfile;
use btr_predictors::confidence::{Confidence, ConfidenceEstimator};
use btr_trace::BranchAddr;
use std::collections::BTreeMap;

/// A static, profile-derived confidence estimator.
///
/// A branch is considered *high confidence* when either of its rates is far
/// from 50% — strongly biased branches are predictable by bias, strongly
/// alternating branches are predictable with a bit of history — and *low
/// confidence* when both rates sit near the centre of the joint table.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassConfidence {
    /// Minimum distance-from-50% (in rate units, 0–0.5) that either metric
    /// must reach for a branch to be called high confidence.
    threshold: f64,
    assignments: BTreeMap<BranchAddr, Confidence>,
    default: Confidence,
}

impl ClassConfidence {
    /// Builds the estimator from a profile.
    ///
    /// `threshold` is the distance from 50% (e.g. `0.25` means rates below
    /// 25% or above 75% count as predictable). Unprofiled branches default to
    /// low confidence.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `(0, 0.5]`.
    pub fn from_profile(profile: &ProgramProfile, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 0.5,
            "confidence threshold must be in (0, 0.5]"
        );
        let mut assignments = BTreeMap::new();
        for branch in profile.iter() {
            let (Some(taken), Some(transition)) = (branch.taken_rate(), branch.transition_rate())
            else {
                continue;
            };
            let distance = taken
                .distance_from_even()
                .max(transition.distance_from_even());
            let confidence = if distance >= threshold {
                Confidence::High
            } else {
                Confidence::Low
            };
            assignments.insert(branch.addr(), confidence);
        }
        ClassConfidence {
            threshold,
            assignments,
            default: Confidence::Low,
        }
    }

    /// The distance threshold in force.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl ConfidenceEstimator for ClassConfidence {
    fn estimate(&self, addr: BranchAddr) -> Confidence {
        self.assignments.get(&addr).copied().unwrap_or(self.default)
    }

    fn update(&mut self, _addr: BranchAddr, _prediction_correct: bool) {
        // Static estimator: assignments come from the profiling pass only.
    }

    fn name(&self) -> String {
        format!("class-confidence(threshold={:.2})", self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BranchProfile;

    fn profile() -> ProgramProfile {
        vec![
            BranchProfile::new(BranchAddr::new(0x10), 100, 97, 4), // biased -> high
            BranchProfile::new(BranchAddr::new(0x20), 100, 50, 50), // centre -> low
            BranchProfile::new(BranchAddr::new(0x30), 100, 50, 97), // alternator -> high
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn classification_drives_confidence() {
        let est = ClassConfidence::from_profile(&profile(), 0.25);
        assert_eq!(est.estimate(BranchAddr::new(0x10)), Confidence::High);
        assert_eq!(est.estimate(BranchAddr::new(0x20)), Confidence::Low);
        assert_eq!(est.estimate(BranchAddr::new(0x30)), Confidence::High);
        // Unknown branches are treated as low confidence.
        assert_eq!(est.estimate(BranchAddr::new(0x999)), Confidence::Low);
        assert!(est.name().contains("class-confidence"));
        assert_eq!(est.threshold(), 0.25);
    }

    #[test]
    fn updates_do_not_change_static_assignments() {
        let mut est = ClassConfidence::from_profile(&profile(), 0.25);
        for _ in 0..100 {
            est.update(BranchAddr::new(0x20), true);
        }
        assert_eq!(est.estimate(BranchAddr::new(0x20)), Confidence::Low);
    }

    #[test]
    fn stricter_thresholds_flag_fewer_branches() {
        let lenient = ClassConfidence::from_profile(&profile(), 0.1);
        let strict = ClassConfidence::from_profile(&profile(), 0.49);
        let high = |est: &ClassConfidence| {
            profile()
                .iter()
                .filter(|b| est.estimate(b.addr()) == Confidence::High)
                .count()
        };
        assert!(high(&lenient) >= high(&strict));
    }

    #[test]
    #[should_panic(expected = "(0, 0.5]")]
    fn invalid_threshold_rejected() {
        let _ = ClassConfidence::from_profile(&profile(), 0.9);
    }
}
