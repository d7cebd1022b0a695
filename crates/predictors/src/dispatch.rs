//! Enum dispatch over the concrete predictor families the harness builds.
//!
//! `Box<dyn BranchPredictor>` costs two virtual calls per dynamic branch (or
//! one with the fused `access`), and — worse — hides the callee from the
//! inliner, so the per-family index computation can never fold into the
//! simulation loop. [`DispatchPredictor`] replaces the vtable with a closed
//! enum: the simulation engine matches on the family **once per run** and
//! executes a fully monomorphized, inlinable loop over the concrete type.
//! The enum also implements [`BranchPredictor`] itself (match-per-call), so
//! it slots into any API that takes the trait.
//!
//! The `dyn` path stays available as the compatibility fallback for exotic
//! predictors (hybrids, confidence-wrapped, user-supplied); tests assert the
//! two paths produce bit-identical results.

use crate::bimodal::BimodalPredictor;
use crate::gshare::GsharePredictor;
use crate::predictor::BranchPredictor;
use crate::staticp::StaticPredictor;
use crate::twolevel::TwoLevelPredictor;
use btr_trace::{BranchAddr, Outcome};

/// A closed union of the predictor families the harness constructs, enabling
/// monomorphized simulation loops without trait objects.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchPredictor {
    /// Two-level adaptive predictors (the paper's PAs and GAs).
    TwoLevel(TwoLevelPredictor),
    /// McFarling's gshare.
    Gshare(GsharePredictor),
    /// Address-indexed bimodal counter table.
    Bimodal(BimodalPredictor),
    /// Static (fixed-rule) predictors.
    Static(StaticPredictor),
}

impl DispatchPredictor {
    /// A short family label (`"two-level"`, `"gshare"`, …), independent of
    /// the configuration details [`BranchPredictor::name`] reports.
    pub fn family_label(&self) -> &'static str {
        match self {
            DispatchPredictor::TwoLevel(_) => "two-level",
            DispatchPredictor::Gshare(_) => "gshare",
            DispatchPredictor::Bimodal(_) => "bimodal",
            DispatchPredictor::Static(_) => "static",
        }
    }
}

impl From<TwoLevelPredictor> for DispatchPredictor {
    fn from(p: TwoLevelPredictor) -> Self {
        DispatchPredictor::TwoLevel(p)
    }
}

impl From<GsharePredictor> for DispatchPredictor {
    fn from(p: GsharePredictor) -> Self {
        DispatchPredictor::Gshare(p)
    }
}

impl From<BimodalPredictor> for DispatchPredictor {
    fn from(p: BimodalPredictor) -> Self {
        DispatchPredictor::Bimodal(p)
    }
}

impl From<StaticPredictor> for DispatchPredictor {
    fn from(p: StaticPredictor) -> Self {
        DispatchPredictor::Static(p)
    }
}

impl BranchPredictor for DispatchPredictor {
    #[inline]
    fn predict(&self, addr: BranchAddr) -> Outcome {
        match self {
            DispatchPredictor::TwoLevel(p) => p.predict(addr),
            DispatchPredictor::Gshare(p) => p.predict(addr),
            DispatchPredictor::Bimodal(p) => p.predict(addr),
            DispatchPredictor::Static(p) => p.predict(addr),
        }
    }

    #[inline]
    fn update(&mut self, addr: BranchAddr, outcome: Outcome) {
        match self {
            DispatchPredictor::TwoLevel(p) => p.update(addr, outcome),
            DispatchPredictor::Gshare(p) => p.update(addr, outcome),
            DispatchPredictor::Bimodal(p) => p.update(addr, outcome),
            DispatchPredictor::Static(p) => p.update(addr, outcome),
        }
    }

    #[inline]
    fn access(&mut self, addr: BranchAddr, outcome: Outcome) -> bool {
        match self {
            DispatchPredictor::TwoLevel(p) => p.access(addr, outcome),
            DispatchPredictor::Gshare(p) => p.access(addr, outcome),
            DispatchPredictor::Bimodal(p) => p.access(addr, outcome),
            DispatchPredictor::Static(p) => p.access(addr, outcome),
        }
    }

    fn name(&self) -> String {
        match self {
            DispatchPredictor::TwoLevel(p) => p.name(),
            DispatchPredictor::Gshare(p) => p.name(),
            DispatchPredictor::Bimodal(p) => p.name(),
            DispatchPredictor::Static(p) => p.name(),
        }
    }

    fn storage_bits(&self) -> u64 {
        match self {
            DispatchPredictor::TwoLevel(p) => p.storage_bits(),
            DispatchPredictor::Gshare(p) => p.storage_bits(),
            DispatchPredictor::Bimodal(p) => p.storage_bits(),
            DispatchPredictor::Static(p) => p.storage_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut dyn BranchPredictor, addr: u64, pattern: &[bool]) -> Vec<bool> {
        pattern
            .iter()
            .map(|&taken| p.access(BranchAddr::new(addr), Outcome::from_bool(taken)))
            .collect()
    }

    #[test]
    fn enum_matches_its_wrapped_predictor_exactly() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 != 0).collect();
        let mut boxed: Box<dyn BranchPredictor> = Box::new(TwoLevelPredictor::pas_paper(4));
        let mut dispatched = DispatchPredictor::from(TwoLevelPredictor::pas_paper(4));
        assert_eq!(
            drive(&mut *boxed, 0x400100, &pattern),
            drive(&mut dispatched, 0x400100, &pattern)
        );
    }

    #[test]
    fn conversions_cover_every_family() {
        let cases: Vec<DispatchPredictor> = vec![
            TwoLevelPredictor::gas_paper(8).into(),
            GsharePredictor::paper_sized(10).into(),
            BimodalPredictor::paper_sized().into(),
            StaticPredictor::always_taken().into(),
        ];
        let labels: Vec<&str> = cases.iter().map(|c| c.family_label()).collect();
        assert_eq!(labels, vec!["two-level", "gshare", "bimodal", "static"]);
        for mut p in cases {
            let addr = BranchAddr::new(0x40_0040);
            let before = p.predict(addr);
            p.update(addr, Outcome::Taken);
            assert!(!p.name().is_empty());
            let _ = p.storage_bits();
            let _ = before;
        }
    }

    #[test]
    fn fused_access_equals_predict_then_update_for_all_families() {
        let make: Vec<fn() -> DispatchPredictor> = vec![
            || TwoLevelPredictor::pas_paper(6).into(),
            || TwoLevelPredictor::gas_paper(9).into(),
            || GsharePredictor::paper_sized(11).into(),
            || BimodalPredictor::paper_sized().into(),
            || StaticPredictor::always_not_taken().into(),
        ];
        let mut state = 0xdead_beefu64;
        for factory in make {
            let mut fused = factory();
            let mut split = factory();
            for i in 0..3000u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = BranchAddr::new(0x40_0000 + (state >> 50) * 4);
                let outcome = Outcome::from_bool((state >> 33) & 1 == 1 || i % 7 == 0);
                let hit_fused = fused.access(addr, outcome);
                let hit_split = split.predict(addr) == outcome;
                split.update(addr, outcome);
                assert_eq!(hit_fused, hit_split, "{} diverged at {i}", fused.name());
            }
            assert_eq!(fused, split);
        }
    }
}
