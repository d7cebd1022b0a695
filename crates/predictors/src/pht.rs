//! Pattern history tables: direct-mapped arrays of saturating counters.

use crate::counter::SaturatingCounter;
use btr_trace::Outcome;

/// A direct-mapped table of saturating counters indexed by a pattern/address
/// hash computed by the enclosing predictor.
///
/// The paper's GAs configuration uses a PHT of `2^17` 2-bit counters (32 KB);
/// PAs uses `2^16` 2-bit counters (16 KB) with the rest of the budget spent on
/// the per-address history table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHistoryTable {
    index_bits: u32,
    counters: Vec<SaturatingCounter>,
}

impl PatternHistoryTable {
    /// Creates a PHT with `2^index_bits` counters of `counter_bits` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits > 28` or the counter width is invalid.
    pub fn new(index_bits: u32, counter_bits: u8) -> Self {
        assert!(
            index_bits <= 28,
            "PHT larger than 2^28 entries is unsupported"
        );
        let counters = vec![SaturatingCounter::new(counter_bits); 1usize << index_bits];
        PatternHistoryTable {
            index_bits,
            counters,
        }
    }

    /// Creates the conventional table of 2-bit counters.
    pub fn two_bit(index_bits: u32) -> Self {
        PatternHistoryTable::new(index_bits, 2)
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the table has zero counters (never true for a valid table).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Number of index bits.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    #[inline]
    fn slot(&self, index: u64) -> usize {
        (index & ((1u64 << self.index_bits) - 1)) as usize
    }

    /// Predicts the direction stored at `index` (masked to the table size).
    #[inline]
    pub fn predict(&self, index: u64) -> Outcome {
        self.counters[self.slot(index)].predict()
    }

    /// Reads the raw counter at `index`.
    pub fn counter(&self, index: u64) -> SaturatingCounter {
        self.counters[self.slot(index)]
    }

    /// Trains the counter at `index` towards `outcome`.
    #[inline]
    pub fn train(&mut self, index: u64, outcome: Outcome) {
        let slot = self.slot(index);
        self.counters[slot].train(outcome);
    }

    /// Fused predict-then-train at one index: returns the pre-update
    /// prediction and trains the counter towards `outcome`, resolving the
    /// slot once instead of twice. This is the hot-path form the fused
    /// [`crate::predictor::BranchPredictor::access`] overrides use.
    #[inline]
    pub fn predict_and_train(&mut self, index: u64, outcome: Outcome) -> Outcome {
        let slot = self.slot(index);
        let counter = &mut self.counters[slot];
        let prediction = counter.predict();
        counter.train(outcome);
        prediction
    }

    /// Total storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.counters.len() as u64 * u64::from(self.counters[0].bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PatternHistoryTable {
        /// Exports the table as a packed 2-bit counter arena — four counters per
        /// byte, counter `i` in bits `2*(i % 4)..` of byte `i / 4` — the exact
        /// layout of the fused sweep arena and the SWAR replay tier, so
        /// equivalence suites can compare a standalone table against an arena
        /// region byte-for-byte.
        ///
        /// Returns `None` unless the table holds 2-bit counters.
        pub(crate) fn packed_two_bit(&self) -> Option<Vec<u8>> {
            if self.counters[0].bits() != 2 {
                return None;
            }
            let mut packed = vec![0u8; self.counters.len().div_ceil(4)];
            for (i, counter) in self.counters.iter().enumerate() {
                packed[i >> 2] |= counter.value() << ((i & 3) * 2);
            }
            Some(packed)
        }
    }

    #[test]
    fn pht_trains_and_predicts_per_slot() {
        let mut pht = PatternHistoryTable::two_bit(4);
        assert_eq!(pht.len(), 16);
        pht.train(3, Outcome::Taken);
        pht.train(3, Outcome::Taken);
        assert_eq!(pht.predict(3), Outcome::Taken);
        // Other slots are untouched.
        assert_eq!(pht.predict(4), Outcome::NotTaken);
    }

    #[test]
    fn indices_wrap_at_table_size() {
        let mut pht = PatternHistoryTable::two_bit(3);
        pht.train(8 + 1, Outcome::Taken); // aliases with slot 1
        pht.train(1, Outcome::Taken);
        assert_eq!(pht.predict(1), Outcome::Taken);
        assert_eq!(pht.counter(9).value(), pht.counter(1).value());
    }

    #[test]
    fn storage_is_counters_times_width() {
        let pht = PatternHistoryTable::two_bit(17);
        assert_eq!(pht.storage_bits(), (1 << 17) * 2);
        // 2^17 two-bit counters are exactly the paper's 32 KB budget.
        assert_eq!(pht.storage_bits() / 8, 32 * 1024);
        assert!(!pht.is_empty());
        assert_eq!(pht.index_bits(), 17);
    }

    #[test]
    fn packed_export_matches_counter_values() {
        let mut pht = PatternHistoryTable::two_bit(3);
        pht.train(0, Outcome::NotTaken); // slot 0 -> 0
        pht.train(1, Outcome::Taken); // slot 1 -> 2
        pht.train(5, Outcome::Taken); // slot 5 -> 2
        pht.train(5, Outcome::Taken); // slot 5 -> 3
        let packed = pht.packed_two_bit().expect("2-bit table exports");
        assert_eq!(packed.len(), 2);
        // Slots 0..4: 0, 2, 1, 1 -> 0b01_01_10_00; slots 4..8: 1, 3, 1, 1.
        assert_eq!(packed, vec![0b01_01_10_00, 0b01_01_11_01]);
        // Wider counters have no packed 2-bit form.
        assert!(PatternHistoryTable::new(2, 3).packed_two_bit().is_none());
    }

    #[test]
    fn wide_counters_are_supported() {
        let mut pht = PatternHistoryTable::new(2, 3);
        for _ in 0..7 {
            pht.train(0, Outcome::Taken);
        }
        assert_eq!(pht.counter(0).value(), 7);
    }
}
