//! The bimodal predictor: a direct-mapped table of 2-bit counters indexed by
//! branch address.
//!
//! This is the degenerate two-level predictor with a history length of zero
//! (the paper's `k = 0` configuration is exactly a `2^17`-entry bimodal
//! table), and it also serves as a component of the McFarling hybrid.

use crate::pht::PatternHistoryTable;
use crate::predictor::BranchPredictor;
use btr_trace::{BranchAddr, Outcome};

/// Address-indexed table of saturating counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BimodalPredictor {
    table: PatternHistoryTable,
}

impl BimodalPredictor {
    /// Creates a bimodal predictor with `2^index_bits` two-bit counters.
    pub fn new(index_bits: u32) -> Self {
        BimodalPredictor {
            table: PatternHistoryTable::two_bit(index_bits),
        }
    }

    /// The paper's zero-history configuration: `2^17` counters (32 KB).
    pub fn paper_sized() -> Self {
        BimodalPredictor::new(17)
    }

    /// Number of counters in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never for a valid configuration).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    #[inline]
    fn index(&self, addr: BranchAddr) -> u64 {
        addr.low_bits(self.table.index_bits())
    }
}

impl BranchPredictor for BimodalPredictor {
    #[inline]
    fn predict(&self, addr: BranchAddr) -> Outcome {
        self.table.predict(self.index(addr))
    }

    #[inline]
    fn update(&mut self, addr: BranchAddr, outcome: Outcome) {
        self.table.train(self.index(addr), outcome);
    }

    #[inline]
    fn access(&mut self, addr: BranchAddr, outcome: Outcome) -> bool {
        // Fused: one index computation and one table-slot resolution.
        let index = self.index(addr);
        self.table.predict_and_train(index, outcome) == outcome
    }

    fn name(&self) -> String {
        format!("bimodal(2^{})", self.table.index_bits())
    }

    fn storage_bits(&self) -> u64 {
        self.table.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut p = BimodalPredictor::new(10);
        let addr = BranchAddr::new(0x400100);
        for _ in 0..4 {
            p.update(addr, Outcome::Taken);
        }
        assert_eq!(p.predict(addr), Outcome::Taken);
    }

    #[test]
    fn distinct_addresses_use_distinct_counters() {
        let mut p = BimodalPredictor::new(10);
        let a = BranchAddr::new(0x1000);
        let b = BranchAddr::new(0x1004);
        for _ in 0..4 {
            p.update(a, Outcome::Taken);
            p.update(b, Outcome::NotTaken);
        }
        assert_eq!(p.predict(a), Outcome::Taken);
        assert_eq!(p.predict(b), Outcome::NotTaken);
    }

    #[test]
    fn aliasing_occurs_beyond_table_reach() {
        let mut p = BimodalPredictor::new(4);
        let a = BranchAddr::new(0x10);
        let alias = BranchAddr::new(0x10 + (16 << 2));
        for _ in 0..4 {
            p.update(a, Outcome::Taken);
        }
        // The aliased branch sees a's counter.
        assert_eq!(p.predict(alias), Outcome::Taken);
    }

    #[test]
    fn paper_sized_table_is_32_kbytes() {
        let p = BimodalPredictor::paper_sized();
        assert_eq!(p.storage_bits() / 8, 32 * 1024);
        assert_eq!(p.len(), 1 << 17);
        assert!(!p.is_empty());
        assert!(p.name().contains("2^17"));
    }

    #[test]
    fn struggles_on_alternating_branch() {
        // A 2-bit counter mispredicts alternating patterns roughly half the
        // time; this is the motivating observation for transition-rate
        // classification.
        let mut p = BimodalPredictor::new(10);
        let addr = BranchAddr::new(0x2000);
        let mut hits = 0;
        let n = 1000;
        for i in 0..n {
            let outcome = Outcome::from_bool(i % 2 == 0);
            if p.access(addr, outcome) {
                hits += 1;
            }
        }
        let accuracy = hits as f64 / n as f64;
        assert!(
            accuracy < 0.6,
            "bimodal should not predict alternation well, got {accuracy}"
        );
    }
}
