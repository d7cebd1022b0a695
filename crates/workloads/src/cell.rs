//! Joint (taken-rate, transition-rate) class cells and the selection of
//! feasible per-branch rate targets inside a cell.

use rand::Rng;

/// Number of classes per metric.
pub const CLASS_COUNT: usize = 11;

/// The rate interval `[lo, hi)` covered by a class under the paper's
/// 11-class binning: class 0 is `[0, 5%)`, classes 1–9 are 10% wide, and
/// class 10 is `[95%, 100%]`.
///
/// # Panics
///
/// Panics if `class >= 11`.
fn class_bounds(class: usize) -> (f64, f64) {
    assert!(class < CLASS_COUNT, "class index out of range");
    match class {
        0 => (0.0, 0.05),
        10 => (0.95, 1.0),
        c => (0.05 + 0.10 * (c as f64 - 1.0), 0.05 + 0.10 * c as f64),
    }
}

/// One cell of the joint taken/transition class table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JointCell {
    /// Taken-rate class (0–10).
    pub taken_class: usize,
    /// Transition-rate class (0–10).
    pub transition_class: usize,
}

impl JointCell {
    /// Creates a cell, validating both class indices.
    ///
    /// # Panics
    ///
    /// Panics if either index is 11 or larger.
    pub fn new(taken_class: usize, transition_class: usize) -> Self {
        assert!(taken_class < CLASS_COUNT, "taken class out of range");
        assert!(
            transition_class < CLASS_COUNT,
            "transition class out of range"
        );
        JointCell {
            taken_class,
            transition_class,
        }
    }

    /// Taken-rate bounds for this cell.
    fn taken_bounds(&self) -> (f64, f64) {
        class_bounds(self.taken_class)
    }

    /// Transition-rate bounds for this cell.
    fn transition_bounds(&self) -> (f64, f64) {
        class_bounds(self.transition_class)
    }

    /// Iterates over all 121 cells in row-major (transition, taken) order.
    pub fn all() -> impl Iterator<Item = JointCell> {
        (0..CLASS_COUNT).flat_map(|transition_class| {
            (0..CLASS_COUNT).map(move |taken_class| JointCell {
                taken_class,
                transition_class,
            })
        })
    }
}

/// Concrete per-branch rate targets chosen inside a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTarget {
    /// Target taken rate in `[0, 1]`.
    pub taken_rate: f64,
    /// Target transition rate in `[0, 1]`.
    pub transition_rate: f64,
}

impl CellTarget {
    /// The hard upper limit on the transition rate of any branch with taken
    /// rate `p`: every transition needs a minority-direction execution next to
    /// it, so `t <= 2·min(p, 1 - p)` in the long run.
    fn transition_limit(taken_rate: f64) -> f64 {
        2.0 * taken_rate.min(1.0 - taken_rate)
    }

    /// Picks a representative feasible `(taken, transition)` point for `cell`,
    /// preferring bin midpoints and nudging the taken rate towards 50% only as
    /// far as needed to make the requested transition class reachable.
    ///
    /// Returns `None` for cells that are mathematically impossible (e.g.
    /// taken class 0 with transition class 5) — such cells are empty in the
    /// paper's Table 2 as well.
    fn representative(cell: JointCell) -> Option<CellTarget> {
        let (plo, phi) = cell.taken_bounds();
        let (xlo, xhi) = cell.transition_bounds();
        // Margin keeps targets strictly inside half-open bins.
        let margin = 0.004;
        let p_mid = (plo + phi) / 2.0;
        let x_mid = (xlo + xhi) / 2.0;
        // The taken value inside the bin that maximises the transition limit
        // is the one closest to 0.5.
        let p_best = 0.5_f64.clamp(plo + margin, phi - margin);
        if Self::transition_limit(p_best) < xlo + margin {
            return None;
        }
        // Prefer the midpoint, but move towards p_best until the transition
        // midpoint (or at least the bin floor) becomes reachable.
        let mut p = p_mid;
        if Self::transition_limit(p) < xlo + margin {
            // Smallest |p - 0.5| such that 2*min(p,1-p) >= xlo + margin.
            let needed = (xlo + margin) / 2.0;
            p = if p_mid < 0.5 {
                needed.clamp(plo + margin, phi - margin)
            } else {
                (1.0 - needed).clamp(plo + margin, phi - margin)
            };
        }
        let x = x_mid
            .min(Self::transition_limit(p) - margin / 2.0)
            .clamp(xlo, (xhi - margin).max(xlo));
        if x < xlo - 1e-9 {
            return None;
        }
        Some(CellTarget {
            taken_rate: p,
            transition_rate: x.max(0.0),
        })
    }

    /// Samples a feasible target uniformly-ish inside the cell, jittering
    /// around the representative point so that branches in the same cell do
    /// not all share identical rates.
    ///
    /// Returns `None` for infeasible cells.
    pub fn sample_within<R: Rng>(cell: JointCell, rng: &mut R) -> Option<CellTarget> {
        let rep = Self::representative(cell)?;
        let (plo, phi) = cell.taken_bounds();
        let (xlo, xhi) = cell.transition_bounds();
        let margin = 0.002;
        for _ in 0..16 {
            let p_span = (phi - plo) * 0.5;
            let x_span = (xhi - xlo) * 0.5;
            let p = (rep.taken_rate + (rng.gen::<f64>() - 0.5) * p_span)
                .clamp(plo + margin, phi - margin);
            let x_cap = Self::transition_limit(p) - margin;
            let x = (rep.transition_rate + (rng.gen::<f64>() - 0.5) * x_span)
                .clamp(xlo, (xhi - margin).max(xlo))
                .min(x_cap);
            if x >= xlo - 1e-9 && x >= 0.0 {
                return Some(CellTarget {
                    taken_rate: p,
                    transition_rate: x.max(0.0),
                });
            }
        }
        Some(rep)
    }

    /// Heuristic fraction of a cell's dynamic weight that should come from
    /// deterministic (history-predictable) pattern branches rather than
    /// memoryless Markov branches.
    ///
    /// Branches whose taken *or* transition rate sits near an extreme are
    /// overwhelmingly structured control flow (loop exits, guards,
    /// alternators), while branches near the 50%/50% centre are dominated by
    /// data-dependent decisions; interpolating between those endpoints gives
    /// the characteristic bowl shape of the paper's Figures 13–14.
    pub fn predictable_fraction(&self) -> f64 {
        let d_taken = (self.taken_rate - 0.5).abs();
        let d_trans = (self.transition_rate - 0.5).abs();
        let distance = d_taken.max(d_trans) * 2.0; // 0 at centre, 1 at extremes
        (0.12 + 0.88 * distance.powf(1.3)).clamp(0.0, 1.0)
    }
}

/// The class (0–10) a rate in `[0, 1]` falls into under the paper binning;
/// unit tests use it to place hand-written branches in their cell.
///
/// # Panics
///
/// Panics if the rate is outside `[0, 1]`.
#[cfg(test)]
pub(crate) fn class_of(rate: f64) -> usize {
    assert!((0.0..=1.0).contains(&rate), "rate out of range");
    // Work in tenths of a percent to avoid floating-point drift at the 5% /
    // 95% boundaries.
    let permille = (rate * 1000.0).round() as i64;
    if permille < 50 {
        0
    } else if permille >= 950 {
        10
    } else {
        ((permille - 50) / 100) as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn class_bounds_tile_the_unit_interval() {
        let mut upper = 0.0;
        for c in 0..CLASS_COUNT {
            let (lo, hi) = class_bounds(c);
            assert!(
                (lo - upper).abs() < 1e-12,
                "class {c} starts at {lo}, expected {upper}"
            );
            assert!(hi > lo);
            upper = hi;
        }
        assert!((upper - 1.0).abs() < 1e-12);
        assert_eq!(class_bounds(0), (0.0, 0.05));
        assert_eq!(class_bounds(10), (0.95, 1.0));
        assert_eq!(class_bounds(5), (0.45, 0.55));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_bounds_rejects_out_of_range() {
        let _ = class_bounds(11);
    }

    #[test]
    fn class_of_maps_rates_to_paper_classes() {
        assert_eq!(class_of(0.0), 0);
        assert_eq!(class_of(0.049), 0);
        assert_eq!(class_of(0.05), 1);
        assert_eq!(class_of(0.10), 1);
        assert_eq!(class_of(0.1501), 2);
        assert_eq!(class_of(0.5), 5);
        assert_eq!(class_of(0.949), 9);
        assert_eq!(class_of(0.95), 10);
        assert_eq!(class_of(1.0), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_of_rejects_bad_rates() {
        let _ = class_of(1.5);
    }

    #[test]
    fn all_cells_enumerates_121() {
        assert_eq!(JointCell::all().count(), 121);
    }

    #[test]
    fn representative_is_inside_its_cell_and_feasible() {
        for cell in JointCell::all() {
            if let Some(target) = CellTarget::representative(cell) {
                let (plo, phi) = cell.taken_bounds();
                let (xlo, xhi) = cell.transition_bounds();
                assert!(
                    target.taken_rate >= plo && target.taken_rate < phi + 1e-9,
                    "cell {cell:?} taken {}",
                    target.taken_rate
                );
                assert!(
                    target.transition_rate >= xlo - 1e-9 && target.transition_rate < xhi + 1e-9,
                    "cell {cell:?} transition {}",
                    target.transition_rate
                );
                assert!(
                    target.transition_rate
                        <= CellTarget::transition_limit(target.taken_rate) + 1e-9,
                    "cell {cell:?} violates the transition limit"
                );
            }
        }
    }

    #[test]
    fn impossible_corner_cells_are_rejected() {
        // A branch taken < 5% of the time cannot transition 45-55% of the time.
        assert!(CellTarget::representative(JointCell::new(0, 5)).is_none());
        assert!(CellTarget::representative(JointCell::new(10, 5)).is_none());
        assert!(CellTarget::representative(JointCell::new(0, 10)).is_none());
    }

    #[test]
    fn paper_nonzero_cells_are_all_feasible() {
        use crate::table2::PAPER_TABLE2;
        for (transition_class, row) in PAPER_TABLE2.iter().enumerate() {
            for (taken_class, weight) in row.iter().enumerate() {
                if *weight > 0.0 {
                    let cell = JointCell::new(taken_class, transition_class);
                    assert!(
                        CellTarget::representative(cell).is_some(),
                        "paper cell {cell:?} with weight {weight} must be generatable"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_respects_cell_and_feasibility() {
        let mut rng = StdRng::seed_from_u64(17);
        for cell in JointCell::all() {
            if CellTarget::representative(cell).is_none() {
                continue;
            }
            for _ in 0..20 {
                let t = CellTarget::sample_within(cell, &mut rng).unwrap();
                let (plo, phi) = cell.taken_bounds();
                assert!(t.taken_rate >= plo && t.taken_rate <= phi);
                assert!(t.transition_rate <= CellTarget::transition_limit(t.taken_rate) + 1e-9);
                assert!(t.transition_rate >= 0.0 && t.transition_rate <= 1.0);
            }
        }
    }

    #[test]
    fn predictable_fraction_is_low_at_the_hard_centre_and_high_at_extremes() {
        let centre = CellTarget {
            taken_rate: 0.5,
            transition_rate: 0.5,
        };
        let biased = CellTarget {
            taken_rate: 0.97,
            transition_rate: 0.03,
        };
        let alternating = CellTarget {
            taken_rate: 0.5,
            transition_rate: 0.97,
        };
        assert!(centre.predictable_fraction() < 0.2);
        assert!(biased.predictable_fraction() > 0.9);
        assert!(alternating.predictable_fraction() > 0.9);
        for t in [centre, biased, alternating] {
            let f = t.predictable_fraction();
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn transition_limit_is_symmetric() {
        assert!((CellTarget::transition_limit(0.3) - 0.6).abs() < 1e-12);
        assert!((CellTarget::transition_limit(0.7) - 0.6).abs() < 1e-12);
        assert!((CellTarget::transition_limit(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(CellTarget::transition_limit(0.0), 0.0);
    }
}
