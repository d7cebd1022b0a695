//! Two-level adaptive branch predictors (Yeh & Patt), including the paper's
//! PAs and GAs configurations with their exact 32 KB sizing rules.
//!
//! A two-level predictor keeps a *first level* of branch history (either one
//! global shift register or a table of per-address registers) and a *second
//! level* pattern history table (PHT) of 2-bit counters indexed by that
//! history, optionally concatenated with branch-address bits.
//!
//! Paper sizing (Section 3):
//!
//! * **GAs** — PHT of `2^17` 2-bit counters (32 KB). For history length `k`,
//!   the PHT index is `k` global-history bits concatenated with `17 - k`
//!   branch-address bits.
//! * **PAs** — PHT of `2^16` 2-bit counters (16 KB) plus a branch history
//!   table (BHT) whose entry count is `2^17 / k` rounded down to a power of
//!   two, each entry `k` bits wide. The PHT index is the `k` per-address
//!   history bits concatenated with `16 - k` address bits.
//! * With `k = 0` both degenerate to a single `2^17`-entry table of 2-bit
//!   counters indexed purely by branch address.

use crate::history::{BranchHistoryTable, GlobalHistory};
use crate::pht::PatternHistoryTable;
use crate::predictor::BranchPredictor;
use btr_trace::{BranchAddr, Outcome};

/// The two members of the two-level family the paper sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TwoLevelScheme {
    /// Global history, set-indexed (per-set / per-address bits) PHT.
    GAs,
    /// Per-address history, set-indexed PHT.
    PAs,
}

impl TwoLevelScheme {
    /// Whether the first level keeps per-address history registers.
    fn is_per_address(self) -> bool {
        self == TwoLevelScheme::PAs
    }

    /// Short uppercase label (`"GAs"` or `"PAs"`).
    fn label(self) -> &'static str {
        match self {
            TwoLevelScheme::GAs => "GAs",
            TwoLevelScheme::PAs => "PAs",
        }
    }
}

/// Full configuration of a [`TwoLevelPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelConfig {
    /// Which scheme to build.
    pub(crate) scheme: TwoLevelScheme,
    /// History length `k` in bits.
    pub history_bits: u32,
    /// log2 of the number of PHT counters.
    pub pht_index_bits: u32,
    /// Width of each PHT counter in bits (2 in the paper).
    pub counter_bits: u8,
    /// log2 of the number of BHT entries (per-address schemes only).
    pub bht_index_bits: u32,
}

impl TwoLevelConfig {
    /// The paper's GAs configuration for history length `k` (0 ..= 17).
    ///
    /// # Panics
    ///
    /// Panics if `k > 17`.
    pub fn gas_paper(k: u32) -> Self {
        assert!(
            k <= 17,
            "GAs history length must be at most 17 under a 32 KB budget"
        );
        TwoLevelConfig {
            scheme: TwoLevelScheme::GAs,
            history_bits: k,
            pht_index_bits: 17,
            counter_bits: 2,
            bht_index_bits: 0,
        }
    }

    /// The paper's PAs configuration for history length `k` (0 ..= 16).
    ///
    /// With `k = 0` this is the same single 2-bit counter table as GAs with
    /// `k = 0`. For `k >= 1` the PHT has `2^16` counters and the BHT has
    /// `2^17 / k` entries rounded down to a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `k > 16`.
    pub fn pas_paper(k: u32) -> Self {
        assert!(
            k <= 16,
            "PAs history length must be at most 16 under a 32 KB budget"
        );
        if k == 0 {
            return TwoLevelConfig {
                scheme: TwoLevelScheme::PAs,
                history_bits: 0,
                pht_index_bits: 17,
                counter_bits: 2,
                bht_index_bits: 0,
            };
        }
        TwoLevelConfig {
            scheme: TwoLevelScheme::PAs,
            history_bits: k,
            pht_index_bits: 16,
            counter_bits: 2,
            bht_index_bits: paper_bht_index_bits(k),
        }
    }

    /// A descriptive label such as `"PAs(h=8)"`.
    pub fn label(&self) -> String {
        format!("{}(h={})", self.scheme.label(), self.history_bits)
    }

    /// Total state this configuration occupies, in bits.
    pub fn storage_bits(&self) -> u64 {
        let pht = (1u64 << self.pht_index_bits) * u64::from(self.counter_bits);
        let bht = if self.scheme.is_per_address() && self.history_bits > 0 {
            (1u64 << self.bht_index_bits) * u64::from(self.history_bits)
        } else {
            0
        };
        pht + bht
    }
}

/// BHT entry-count exponent from the paper: `floor(log2(2^17 / k))`.
fn paper_bht_index_bits(k: u32) -> u32 {
    debug_assert!(k >= 1);
    // floor(log2(2^17 / k)) = 17 - ceil(log2(k))
    let ceil_log2 = 32 - (k - 1).leading_zeros();
    17 - ceil_log2
}

/// A configurable two-level adaptive predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelPredictor {
    config: TwoLevelConfig,
    global_history: GlobalHistory,
    bht: Option<BranchHistoryTable>,
    pht: PatternHistoryTable,
}

impl TwoLevelPredictor {
    /// Builds a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the history length exceeds the PHT index width for a
    /// set-indexed scheme (there would be no room for address bits).
    pub fn new(config: TwoLevelConfig) -> Self {
        assert!(
            config.history_bits <= config.pht_index_bits,
            "history length {} exceeds PHT index width {}",
            config.history_bits,
            config.pht_index_bits
        );
        let bht = if config.scheme.is_per_address() && config.history_bits > 0 {
            Some(BranchHistoryTable::new(
                config.bht_index_bits,
                config.history_bits,
            ))
        } else {
            None
        };
        TwoLevelPredictor {
            config,
            global_history: GlobalHistory::new(config.history_bits),
            bht,
            pht: PatternHistoryTable::new(config.pht_index_bits, config.counter_bits),
        }
    }

    /// The paper's GAs predictor at history length `k`.
    pub fn gas_paper(k: u32) -> Self {
        TwoLevelPredictor::new(TwoLevelConfig::gas_paper(k))
    }

    /// The paper's PAs predictor at history length `k`.
    pub fn pas_paper(k: u32) -> Self {
        TwoLevelPredictor::new(TwoLevelConfig::pas_paper(k))
    }

    /// The configuration this predictor was built from.
    pub fn config(&self) -> &TwoLevelConfig {
        &self.config
    }

    #[inline]
    fn history_pattern(&self, addr: BranchAddr) -> u64 {
        if self.config.history_bits == 0 {
            return 0;
        }
        match &self.bht {
            Some(bht) => bht.pattern(addr),
            None => self.global_history.pattern(),
        }
    }

    #[inline]
    fn pht_index(&self, addr: BranchAddr) -> u64 {
        let k = self.config.history_bits;
        let addr_bits = self.config.pht_index_bits - k;
        let history = self.history_pattern(addr);
        (history << addr_bits) | addr.low_bits(addr_bits)
    }
}

impl BranchPredictor for TwoLevelPredictor {
    #[inline]
    fn predict(&self, addr: BranchAddr) -> Outcome {
        self.pht.predict(self.pht_index(addr))
    }

    #[inline]
    fn update(&mut self, addr: BranchAddr, outcome: Outcome) {
        let index = self.pht_index(addr);
        self.pht.train(index, outcome);
        if self.config.history_bits > 0 {
            match &mut self.bht {
                Some(bht) => bht.push(addr, outcome),
                None => self.global_history.push(outcome),
            }
        }
    }

    #[inline]
    fn access(&mut self, addr: BranchAddr, outcome: Outcome) -> bool {
        // Fused predict+update: the history-table entry and the PHT slot are
        // each resolved once per dynamic branch instead of twice. The PHT
        // index is formed from the pre-push history pattern, exactly as the
        // split predict/update pair does.
        let k = self.config.history_bits;
        let history = if k == 0 {
            0
        } else {
            match &mut self.bht {
                Some(bht) => bht.pattern_and_push(addr, outcome),
                None => self.global_history.pattern_and_push(outcome),
            }
        };
        let addr_bits = self.config.pht_index_bits - k;
        let index = (history << addr_bits) | addr.low_bits(addr_bits);
        self.pht.predict_and_train(index, outcome) == outcome
    }

    fn name(&self) -> String {
        self.config.label()
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bht_sizing_matches_formula() {
        // 2^17 / k rounded down to a power of two.
        assert_eq!(paper_bht_index_bits(1), 17);
        assert_eq!(paper_bht_index_bits(2), 16);
        assert_eq!(paper_bht_index_bits(3), 15);
        assert_eq!(paper_bht_index_bits(4), 15);
        assert_eq!(paper_bht_index_bits(5), 14);
        assert_eq!(paper_bht_index_bits(8), 14);
        assert_eq!(paper_bht_index_bits(9), 13);
        assert_eq!(paper_bht_index_bits(16), 13);
    }

    #[test]
    fn paper_configs_fit_the_32_kb_budget() {
        for k in 0..=17 {
            let cfg = TwoLevelConfig::gas_paper(k);
            assert!(
                cfg.storage_bits() <= 32 * 1024 * 8,
                "GAs k={k} uses {} bits",
                cfg.storage_bits()
            );
        }
        for k in 0..=16 {
            let cfg = TwoLevelConfig::pas_paper(k);
            assert!(
                cfg.storage_bits() <= 32 * 1024 * 8,
                "PAs k={k} uses {} bits",
                cfg.storage_bits()
            );
        }
        // GAs always uses the full budget for its PHT.
        assert_eq!(TwoLevelConfig::gas_paper(8).storage_bits(), 32 * 1024 * 8);
    }

    #[test]
    fn zero_history_configs_are_a_single_address_indexed_table() {
        let gas = TwoLevelConfig::gas_paper(0);
        let pas = TwoLevelConfig::pas_paper(0);
        assert_eq!(gas.pht_index_bits, 17);
        assert_eq!(pas.pht_index_bits, 17);
        assert_eq!(gas.storage_bits(), pas.storage_bits());
        // And they behave identically.
        let mut a = TwoLevelPredictor::new(gas);
        let mut b = TwoLevelPredictor::new(pas);
        let addr = BranchAddr::new(0x400100);
        for i in 0..50u32 {
            let outcome = Outcome::from_bool(i % 3 != 0);
            assert_eq!(a.predict(addr), b.predict(addr));
            a.update(addr, outcome);
            b.update(addr, outcome);
        }
    }

    #[test]
    fn pas_learns_short_alternating_pattern_with_one_history_bit() {
        let mut p = TwoLevelPredictor::pas_paper(1);
        let addr = BranchAddr::new(0x400100);
        let mut hits = 0u32;
        let n = 2000u32;
        for i in 0..n {
            let outcome = Outcome::from_bool(i % 2 == 0);
            if p.access(addr, outcome) {
                hits += 1;
            }
        }
        let accuracy = f64::from(hits) / f64::from(n);
        assert!(
            accuracy > 0.95,
            "PAs(h=1) should nail a perfectly alternating branch, got {accuracy}"
        );
    }

    #[test]
    fn zero_history_predictor_fails_on_alternating_pattern() {
        // With zero history the predictor can only repeat recent behaviour, so
        // an alternating branch hovers near 50% (the observation in §4.2).
        let mut p = TwoLevelPredictor::pas_paper(0);
        let addr = BranchAddr::new(0x400100);
        let mut hits = 0u32;
        let n = 2000u32;
        for i in 0..n {
            let outcome = Outcome::from_bool(i % 2 == 0);
            if p.access(addr, outcome) {
                hits += 1;
            }
        }
        let accuracy = f64::from(hits) / f64::from(n);
        assert!(
            accuracy < 0.6,
            "zero-history predictor should struggle on alternation, got {accuracy}"
        );
    }

    #[test]
    fn pas_learns_loop_pattern_with_enough_history() {
        // Loop with trip count 4: T T T N repeated. Needs >= 3 bits of history
        // to disambiguate; 4 bits is plenty.
        let mut p = TwoLevelPredictor::pas_paper(4);
        let addr = BranchAddr::new(0x400200);
        let mut hits_tail = 0u32;
        let total = 4000u32;
        let warmup = 400u32;
        for i in 0..total {
            let outcome = Outcome::from_bool(i % 4 != 3);
            let hit = p.access(addr, outcome);
            if i >= warmup && hit {
                hits_tail += 1;
            }
        }
        let accuracy = f64::from(hits_tail) / f64::from(total - warmup);
        assert!(
            accuracy > 0.97,
            "PAs(h=4) should learn a trip-count-4 loop, got {accuracy}"
        );
    }

    #[test]
    fn gas_correlates_across_branches() {
        // Branch B always goes the same way as the immediately preceding
        // branch A. GAs with 1+ history bits learns this; a per-address
        // 0-history predictor cannot.
        let a = BranchAddr::new(0x1000);
        let b = BranchAddr::new(0x2000);
        let mut gas = TwoLevelPredictor::gas_paper(2);
        let mut hits_b = 0u32;
        let mut total_b = 0u32;
        let mut state = 0x12345678u64;
        for i in 0..4000u32 {
            // Pseudo-random direction for A (deterministic LCG).
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a_taken = (state >> 33) & 1 == 1;
            gas.access(a, Outcome::from_bool(a_taken));
            let b_outcome = Outcome::from_bool(a_taken);
            let hit = gas.access(b, b_outcome);
            if i > 500 {
                total_b += 1;
                if hit {
                    hits_b += 1;
                }
            }
        }
        let accuracy = f64::from(hits_b) / f64::from(total_b);
        assert!(
            accuracy > 0.9,
            "GAs should capture cross-branch correlation, got {accuracy}"
        );
    }

    #[test]
    fn scheme_labels_and_config_labels() {
        assert_eq!(TwoLevelScheme::GAs.label(), "GAs");
        assert!(TwoLevelScheme::PAs.is_per_address());
        assert!(!TwoLevelScheme::GAs.is_per_address());
        assert_eq!(TwoLevelConfig::pas_paper(8).label(), "PAs(h=8)");
        let p = TwoLevelPredictor::gas_paper(4);
        assert_eq!(p.name(), "GAs(h=4)");
        assert_eq!(p.config().history_bits, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds PHT index width")]
    fn history_longer_than_index_is_rejected() {
        let cfg = TwoLevelConfig {
            scheme: TwoLevelScheme::GAs,
            history_bits: 20,
            pht_index_bits: 17,
            counter_bits: 2,
            bht_index_bits: 0,
        };
        let _ = TwoLevelPredictor::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at most 16")]
    fn pas_history_is_bounded() {
        let _ = TwoLevelConfig::pas_paper(17);
    }
}
