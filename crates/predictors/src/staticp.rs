//! Static (non-adaptive) predictors.
//!
//! Chang et al.'s classification-based hybrid assigns the most heavily biased
//! branch classes to static predictors, freeing dynamic table space for the
//! harder branches; these are the building blocks for that scheme and for the
//! classification-guided hybrid of §5.4.

use crate::predictor::BranchPredictor;
use btr_trace::{BranchAddr, Outcome};

/// The decision rule of a [`StaticPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticRule {
    /// Predict every branch taken.
    AlwaysTaken,
    /// Predict every branch not taken.
    AlwaysNotTaken,
}

/// A stateless predictor applying a fixed rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticPredictor {
    rule: StaticRule,
}

impl StaticPredictor {
    /// Predicts every branch taken.
    pub fn always_taken() -> Self {
        StaticPredictor {
            rule: StaticRule::AlwaysTaken,
        }
    }

    /// Predicts every branch not taken.
    pub fn always_not_taken() -> Self {
        StaticPredictor {
            rule: StaticRule::AlwaysNotTaken,
        }
    }
}

impl BranchPredictor for StaticPredictor {
    fn predict(&self, _addr: BranchAddr) -> Outcome {
        match self.rule {
            StaticRule::AlwaysTaken => Outcome::Taken,
            StaticRule::AlwaysNotTaken => Outcome::NotTaken,
        }
    }

    fn update(&mut self, _addr: BranchAddr, _outcome: Outcome) {
        // Static predictors learn nothing at run time.
    }

    fn name(&self) -> String {
        match self.rule {
            StaticRule::AlwaysTaken => "static-taken".to_string(),
            StaticRule::AlwaysNotTaken => "static-not-taken".to_string(),
        }
    }

    fn storage_bits(&self) -> u64 {
        // Direction hints live in the instruction encoding, not predictor state.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_and_not_taken() {
        let t = StaticPredictor::always_taken();
        let n = StaticPredictor::always_not_taken();
        let addr = BranchAddr::new(0x10);
        assert_eq!(t.predict(addr), Outcome::Taken);
        assert_eq!(n.predict(addr), Outcome::NotTaken);
        assert_eq!(t.storage_bits(), 0);
    }

    #[test]
    fn update_is_a_no_op() {
        let mut p = StaticPredictor::always_taken();
        p.update(BranchAddr::new(0x10), Outcome::NotTaken);
        assert_eq!(p.predict(BranchAddr::new(0x10)), Outcome::Taken);
    }
}
