//! Classification-guided hybrid predictor design (the paper's §5.4).
//!
//! The paper argues that taken/transition classification makes the hybrid
//! design space tractable: the class of a branch tells you whether it needs a
//! static predictor, a short per-address history, a long history, or
//! non-predictive handling, and the dynamic weight of each class tells you how
//! to size the components. [`HybridAdvisor`] encodes those rules and can
//! materialise an actual `btr_predictors::hybrid::ClassifiedHybrid` from a
//! profile.

use crate::class::{BinningScheme, ClassId};
use crate::joint::JointClassTable;
use crate::profile::ProgramProfile;
use btr_predictors::hybrid::ClassifiedHybrid;
use btr_predictors::predictor::BranchPredictor;
use btr_predictors::staticp::StaticPredictor;
use btr_predictors::twolevel::TwoLevelPredictor;

/// The style of component a class should be routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentStyle {
    /// A static always-taken predictor (for the ~100% taken classes).
    StaticTaken,
    /// A static always-not-taken predictor (for the ~0% taken classes).
    StaticNotTaken,
    /// A per-address two-level predictor with a short history.
    ShortHistoryPAs,
    /// A per-address two-level predictor with a long history.
    LongHistoryPAs,
    /// A global-history two-level predictor with a long history.
    LongHistoryGAs,
    /// No predictor will do well; flag for predication / dual-path handling.
    NonPredictive,
}

/// A per-class recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassRecommendation {
    /// Taken-rate class.
    pub taken_class: ClassId,
    /// Transition-rate class.
    pub transition_class: ClassId,
    /// The component style this class should use.
    pub style: ComponentStyle,
    /// Recommended history length for two-level styles (0 for static).
    pub history_bits: u32,
    /// The class's share of dynamic branch executions (for sizing).
    pub dynamic_percent: f64,
}

/// The §5.4 design advisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridAdvisor {
    scheme: BinningScheme,
}

impl HybridAdvisor {
    /// Creates an advisor for a binning scheme.
    pub fn new(scheme: BinningScheme) -> Self {
        HybridAdvisor { scheme }
    }

    /// The style a joint class should use, following the paper's findings:
    /// extreme taken classes with low transition rates go static, extreme
    /// transition classes need only one or two history bits of per-address
    /// history, mid classes want long histories, and the 50/50 centre is
    /// flagged as non-predictive.
    fn style_for(&self, taken: ClassId, transition: ClassId) -> ComponentStyle {
        let n = self.scheme.class_count();
        let last = n - 1;
        let taken_mid = self.scheme.midpoint(taken);
        let transition_mid = self.scheme.midpoint(transition);
        let taken_dist = (taken_mid - 0.5).abs();
        let transition_dist = (transition_mid - 0.5).abs();
        if taken_dist < 0.1 && transition_dist < 0.1 {
            ComponentStyle::NonPredictive
        } else if transition.index() <= 1 && taken.index() >= last - 1 {
            ComponentStyle::StaticTaken
        } else if transition.index() <= 1 && taken.index() <= 1 {
            ComponentStyle::StaticNotTaken
        } else if transition.index() >= last - 1 {
            // Alternating branches: one or two bits of local history suffice.
            ComponentStyle::ShortHistoryPAs
        } else if transition.index() <= 1 {
            // Low transition but moderate bias: short local history captures
            // the occasional run boundary.
            ComponentStyle::ShortHistoryPAs
        } else if taken_dist >= 0.25 || transition_dist >= 0.25 {
            ComponentStyle::LongHistoryPAs
        } else {
            ComponentStyle::LongHistoryGAs
        }
    }

    /// The recommended history length for a style.
    fn history_for(&self, style: ComponentStyle) -> u32 {
        match style {
            ComponentStyle::StaticTaken | ComponentStyle::StaticNotTaken => 0,
            ComponentStyle::ShortHistoryPAs => 2,
            ComponentStyle::LongHistoryPAs => 10,
            ComponentStyle::LongHistoryGAs => 12,
            ComponentStyle::NonPredictive => 0,
        }
    }

    /// Produces a recommendation for every non-empty cell of a joint table.
    pub fn recommend(&self, table: &JointClassTable) -> Vec<ClassRecommendation> {
        table
            .cells()
            .filter(|(_, _, percent)| *percent > 0.0)
            .map(|(taken, transition, percent)| {
                let style = self.style_for(taken, transition);
                ClassRecommendation {
                    taken_class: taken,
                    transition_class: transition,
                    style,
                    history_bits: self.history_for(style),
                    dynamic_percent: percent,
                }
            })
            .collect()
    }

    /// Builds a working [`ClassifiedHybrid`] from a profile: each branch is
    /// routed to the component matching its class recommendation.
    ///
    /// Component sizes are deliberately modest (this is the qualitative §5.4
    /// design sketch, not a tuned production predictor).
    pub fn build_hybrid(&self, profile: &ProgramProfile) -> ClassifiedHybrid {
        // Component order must match the indices used below.
        let components: Vec<Box<dyn BranchPredictor>> = vec![
            Box::new(StaticPredictor::always_taken()),
            Box::new(StaticPredictor::always_not_taken()),
            Box::new(TwoLevelPredictor::pas_paper(2)),
            Box::new(TwoLevelPredictor::pas_paper(10)),
            Box::new(TwoLevelPredictor::gas_paper(12)),
        ];
        // Default: the long-history GAs component.
        let mut hybrid = ClassifiedHybrid::new(components, 4);
        for branch in profile.iter() {
            let Some((taken, transition)) = branch.joint_class(self.scheme) else {
                continue;
            };
            let component = match self.style_for(taken, transition) {
                ComponentStyle::StaticTaken => 0,
                ComponentStyle::StaticNotTaken => 1,
                ComponentStyle::ShortHistoryPAs => 2,
                ComponentStyle::LongHistoryPAs => 3,
                ComponentStyle::LongHistoryGAs => 4,
                // Non-predictive branches still need *some* dynamic predictor
                // while awaiting predication; use the short-history one.
                ComponentStyle::NonPredictive => 2,
            };
            hybrid.assign(branch.addr(), component);
        }
        hybrid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BranchProfile;
    use btr_trace::BranchAddr;

    #[test]
    fn styles_follow_the_papers_rules() {
        let advisor = HybridAdvisor::new(BinningScheme::Paper11);
        assert_eq!(
            advisor.style_for(ClassId(10), ClassId(0)),
            ComponentStyle::StaticTaken
        );
        assert_eq!(
            advisor.style_for(ClassId(0), ClassId(0)),
            ComponentStyle::StaticNotTaken
        );
        assert_eq!(
            advisor.style_for(ClassId(5), ClassId(10)),
            ComponentStyle::ShortHistoryPAs
        );
        assert_eq!(
            advisor.style_for(ClassId(5), ClassId(5)),
            ComponentStyle::NonPredictive
        );
        // Moderately biased, moderately transitioning branches get history.
        let mid = advisor.style_for(ClassId(8), ClassId(3));
        assert!(matches!(
            mid,
            ComponentStyle::LongHistoryPAs | ComponentStyle::LongHistoryGAs
        ));
        // History length mapping.
        assert_eq!(advisor.history_for(ComponentStyle::StaticTaken), 0);
        assert!(advisor.history_for(ComponentStyle::LongHistoryPAs) > 4);
    }

    #[test]
    fn recommendations_cover_nonempty_cells_and_carry_weights() {
        let profile: ProgramProfile = vec![
            BranchProfile::new(BranchAddr::new(0x10), 700, 690, 10),
            BranchProfile::new(BranchAddr::new(0x20), 300, 150, 150),
        ]
        .into_iter()
        .collect();
        let table = JointClassTable::from_profile(&profile, BinningScheme::Paper11);
        let advisor = HybridAdvisor::new(BinningScheme::Paper11);
        let recs = advisor.recommend(&table);
        assert_eq!(recs.len(), 2);
        let total: f64 = recs.iter().map(|r| r.dynamic_percent).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!(recs
            .iter()
            .any(|r| r.style == ComponentStyle::NonPredictive
                && (r.dynamic_percent - 30.0).abs() < 1e-9));
    }

    #[test]
    fn built_hybrid_routes_branches_and_predicts_well_on_easy_classes() {
        use btr_trace::Outcome;
        let profile: ProgramProfile = vec![
            BranchProfile::new(BranchAddr::new(0x10), 1000, 995, 8), // static taken
            BranchProfile::new(BranchAddr::new(0x20), 1000, 500, 990), // alternator
        ]
        .into_iter()
        .collect();
        let advisor = HybridAdvisor::new(BinningScheme::Paper11);
        let mut hybrid = advisor.build_hybrid(&profile);
        assert_eq!(hybrid.name().split(", ").count(), 5);
        assert!(format!("{hybrid:?}").contains("assigned_branches: 2"));
        // The biased branch goes to the static-taken component (index 0).
        assert_eq!(hybrid.component_of(BranchAddr::new(0x10)), 0);
        // The alternator goes to the short-history PAs component (index 2).
        assert_eq!(hybrid.component_of(BranchAddr::new(0x20)), 2);
        // And both are predicted accurately after a short warm-up.
        let mut hits = 0u32;
        let n = 1000u32;
        for i in 0..n {
            if hybrid.access(BranchAddr::new(0x10), Outcome::Taken) {
                hits += 1;
            }
            if hybrid.access(BranchAddr::new(0x20), Outcome::from_bool(i % 2 == 0)) {
                hits += 1;
            }
        }
        assert!(f64::from(hits) / f64::from(2 * n) > 0.9);
    }
}
