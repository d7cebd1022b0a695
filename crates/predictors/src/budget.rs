//! Hardware budget accounting.
//!
//! The paper constrains every predictor configuration to 32 K bytes of
//! predictor state so that comparisons across history lengths are fair. This
//! module provides a small helper for expressing such budgets and checking
//! configurations against them.

use crate::predictor::BranchPredictor;
use std::fmt;

/// A predictor state budget expressed in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HardwareBudget {
    bits: u64,
}

impl HardwareBudget {
    /// A budget of `bytes` bytes.
    pub fn from_bytes(bytes: u64) -> Self {
        HardwareBudget { bits: bytes * 8 }
    }

    /// A budget of `kib` kibibytes.
    fn from_kib(kib: u64) -> Self {
        HardwareBudget::from_bytes(kib * 1024)
    }

    /// The paper's 32 KB budget.
    pub fn paper() -> Self {
        HardwareBudget::from_kib(32)
    }

    /// Budget size in bits.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Budget size in bytes (rounded down).
    pub fn bytes(self) -> u64 {
        self.bits / 8
    }

    /// Whether `used_bits` fits within this budget.
    fn fits_bits(self, used_bits: u64) -> bool {
        used_bits <= self.bits
    }

    /// Whether a predictor's declared storage fits within this budget.
    pub fn fits<P: BranchPredictor + ?Sized>(self, predictor: &P) -> bool {
        self.fits_bits(predictor.storage_bits())
    }
}

impl fmt::Display for HardwareBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.bytes();
        if bytes >= 1024 && bytes.is_multiple_of(1024) {
            write!(f, "{} KiB", bytes / 1024)
        } else {
            write!(f, "{bytes} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimodal::BimodalPredictor;
    use crate::twolevel::TwoLevelPredictor;

    #[test]
    fn unit_conversions() {
        let b = HardwareBudget::from_kib(32);
        assert_eq!(b.bytes(), 32 * 1024);
        assert_eq!(b.bits(), 32 * 1024 * 8);
        assert_eq!(HardwareBudget::paper(), b);
        assert_eq!(b.to_string(), "32 KiB");
        assert_eq!(HardwareBudget::from_bytes(100).to_string(), "100 B");
    }

    #[test]
    fn paper_predictors_fit_the_paper_budget() {
        let budget = HardwareBudget::paper();
        for k in 0..=16 {
            assert!(budget.fits(&TwoLevelPredictor::pas_paper(k)), "PAs k={k}");
            assert!(budget.fits(&TwoLevelPredictor::gas_paper(k)), "GAs k={k}");
        }
        assert!(budget.fits(&BimodalPredictor::paper_sized()));
        // A double-size bimodal does not fit.
        assert!(!budget.fits(&BimodalPredictor::new(18)));
    }

    #[test]
    fn fits_bits_is_inclusive() {
        let b = HardwareBudget::from_bytes(10);
        assert!(b.fits_bits(80));
        assert!(!b.fits_bits(81));
    }
}
