//! Hard-to-predict branch identification and the inter-occurrence distance
//! analysis of the paper's Figure 15.

use crate::class::{BinningScheme, ClassId};
use crate::profile::ProgramProfile;
use btr_trace::BranchAddr;
use std::collections::BTreeSet;

/// Which joint classes count as "hard to predict".
///
/// The paper's Figure 15 uses exactly the 5/5 class; a slightly wider window
/// around the centre is useful for sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardBranchCriteria {
    /// Lowest taken class considered hard (inclusive).
    pub taken_min: usize,
    /// Highest taken class considered hard (inclusive).
    pub taken_max: usize,
    /// Lowest transition class considered hard (inclusive).
    pub transition_min: usize,
    /// Highest transition class considered hard (inclusive).
    pub transition_max: usize,
}

impl HardBranchCriteria {
    /// The paper's definition: exactly the joint 5/5 class.
    pub fn paper_5_5() -> Self {
        HardBranchCriteria {
            taken_min: 5,
            taken_max: 5,
            transition_min: 5,
            transition_max: 5,
        }
    }

    /// Whether a joint class satisfies the criteria.
    pub fn matches(&self, taken: ClassId, transition: ClassId) -> bool {
        (self.taken_min..=self.taken_max).contains(&taken.index())
            && (self.transition_min..=self.transition_max).contains(&transition.index())
    }
}

impl Default for HardBranchCriteria {
    fn default() -> Self {
        HardBranchCriteria::paper_5_5()
    }
}

/// The set of static branches classified as hard to predict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HardBranchSet {
    addrs: BTreeSet<BranchAddr>,
    dynamic_executions: u64,
    total_dynamic: u64,
}

impl HardBranchSet {
    /// Selects hard branches from a profile.
    pub fn from_profile(
        profile: &ProgramProfile,
        scheme: BinningScheme,
        criteria: HardBranchCriteria,
    ) -> Self {
        let mut addrs = BTreeSet::new();
        let mut dynamic_executions = 0u64;
        for branch in profile.iter() {
            if let Some((taken, transition)) = branch.joint_class(scheme) {
                if criteria.matches(taken, transition) {
                    addrs.insert(branch.addr());
                    dynamic_executions += branch.executions();
                }
            }
        }
        HardBranchSet {
            addrs,
            dynamic_executions,
            total_dynamic: profile.total_dynamic(),
        }
    }

    /// Number of static hard branches.
    pub fn static_count(&self) -> usize {
        self.addrs.len()
    }

    /// Hard branches as a percentage of all dynamic executions.
    pub fn dynamic_percent(&self) -> f64 {
        if self.total_dynamic == 0 {
            0.0
        } else {
            self.dynamic_executions as f64 / self.total_dynamic as f64 * 100.0
        }
    }

    /// Whether a branch address is in the hard set.
    pub fn contains(&self, addr: BranchAddr) -> bool {
        self.addrs.contains(&addr)
    }

    /// Iterates over the hard branch addresses.
    pub fn iter(&self) -> impl Iterator<Item = BranchAddr> + '_ {
        self.addrs.iter().copied()
    }
}

/// Histogram of the dynamic-branch distance between consecutive occurrences
/// of hard branches (the paper's Figure 15).
///
/// A distance of 1 means the very next conditional branch executed was also a
/// hard branch; the final bucket pools every distance of `max_distance` or
/// more ("8+" in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceHistogram {
    max_distance: usize,
    counts: Vec<u64>,
    total: u64,
}

impl DistanceHistogram {
    /// Measures the histogram over a conditional address column: the
    /// addresses of a stream's conditional branches in execution order
    /// (an interned trace's `records().addrs()`).
    ///
    /// # Panics
    ///
    /// Panics if `max_distance` is zero.
    fn from_addrs(addrs: &[BranchAddr], hard: &HardBranchSet, max_distance: usize) -> Self {
        assert!(max_distance > 0, "max distance must be positive");
        let mut counts = vec![0u64; max_distance];
        let mut total = 0u64;
        let mut since_last: Option<usize> = None;
        for &addr in addrs {
            if let Some(d) = since_last.as_mut() {
                *d += 1;
            }
            if hard.contains(addr) {
                if let Some(distance) = since_last {
                    let bucket = distance.min(max_distance) - 1;
                    counts[bucket] += 1;
                    total += 1;
                }
                since_last = Some(0);
            }
        }
        DistanceHistogram {
            max_distance,
            counts,
            total,
        }
    }

    /// The paper's 8-bucket histogram (distances 1–7 and "8+").
    pub fn paper_buckets(addrs: &[BranchAddr], hard: &HardBranchSet) -> Self {
        DistanceHistogram::from_addrs(addrs, hard, 8)
    }

    /// Total number of hard-branch pairs measured.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of pairs at distance `d` (1-based; the last bucket pools longer
    /// distances).
    fn count_at(&self, distance: usize) -> u64 {
        if distance == 0 || distance > self.max_distance {
            0
        } else {
            self.counts[distance - 1]
        }
    }

    /// Percentage of pairs at distance `d`.
    fn percent_at(&self, distance: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count_at(distance) as f64 / self.total as f64 * 100.0
        }
    }

    /// All bucket percentages, in distance order (Figure 15's bars for one
    /// benchmark).
    pub fn percentages(&self) -> Vec<f64> {
        (1..=self.max_distance)
            .map(|d| self.percent_at(d))
            .collect()
    }

    /// Percentage of pairs closer than `distance` (exclusive). A low value at
    /// small distances is the paper's argument that dual-path execution is
    /// feasible for these branches.
    pub fn percent_closer_than(&self, distance: usize) -> f64 {
        (1..distance.min(self.max_distance + 1))
            .map(|d| self.percent_at(d))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BranchProfile;

    fn column(raw: &[u64]) -> Vec<BranchAddr> {
        raw.iter().copied().map(BranchAddr::new).collect()
    }

    fn hard_set_for(addrs: &[u64], total_dynamic: u64) -> HardBranchSet {
        HardBranchSet {
            addrs: addrs.iter().map(|a| BranchAddr::new(*a)).collect(),
            dynamic_executions: addrs.len() as u64,
            total_dynamic,
        }
    }

    #[test]
    fn criteria_match_expected_cells() {
        let paper = HardBranchCriteria::paper_5_5();
        assert!(paper.matches(ClassId(5), ClassId(5)));
        assert!(!paper.matches(ClassId(5), ClassId(6)));
        assert!(!paper.matches(ClassId(4), ClassId(5)));
        assert_eq!(HardBranchCriteria::default(), paper);
    }

    #[test]
    fn hard_set_selection_from_profile() {
        let profile: ProgramProfile = vec![
            BranchProfile::new(BranchAddr::new(0x10), 100, 50, 50), // 5/5
            BranchProfile::new(BranchAddr::new(0x20), 300, 291, 6), // 10/0
            BranchProfile::new(BranchAddr::new(0x30), 100, 48, 52), // 5/5
        ]
        .into_iter()
        .collect();
        let hard = HardBranchSet::from_profile(
            &profile,
            BinningScheme::Paper11,
            HardBranchCriteria::paper_5_5(),
        );
        assert_eq!(hard.static_count(), 2);
        assert!((hard.dynamic_percent() - 40.0).abs() < 1e-9);
        assert!(hard.contains(BranchAddr::new(0x10)));
        assert!(!hard.contains(BranchAddr::new(0x20)));
        assert_eq!(hard.iter().count(), 2);
    }

    #[test]
    fn distance_histogram_counts_gaps_between_hard_occurrences() {
        // Sequence of conditional branches: H . . H H . . . . . H
        // Distances: 3, 1, 6.
        let hard_addr = 0x100;
        let easy_addr = 0x200;
        let addrs = column(&[
            hard_addr, easy_addr, easy_addr, hard_addr, hard_addr, easy_addr, easy_addr, easy_addr,
            easy_addr, easy_addr, hard_addr,
        ]);
        let hard = hard_set_for(&[hard_addr], addrs.len() as u64);
        let hist = DistanceHistogram::paper_buckets(&addrs, &hard);
        assert_eq!(hist.total(), 3);
        assert_eq!(hist.count_at(3), 1);
        assert_eq!(hist.count_at(1), 1);
        assert_eq!(hist.count_at(6), 1);
        assert_eq!(hist.count_at(8), 0);
        assert!((hist.percent_at(1) - 100.0 / 3.0).abs() < 1e-9);
        assert!((hist.percentages().iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((hist.percent_closer_than(4) - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn long_gaps_pool_into_the_last_bucket() {
        let hard_addr = 0x100;
        let mut raw = vec![hard_addr];
        raw.extend((0..20u64).map(|i| 0x200 + i * 4));
        raw.push(hard_addr);
        let addrs = column(&raw);
        let hard = hard_set_for(&[hard_addr], addrs.len() as u64);
        let hist = DistanceHistogram::paper_buckets(&addrs, &hard);
        assert_eq!(hist.total(), 1);
        assert_eq!(hist.count_at(8), 1);
        assert!((hist.percent_at(8) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_or_singleton_traces_have_no_pairs() {
        let hard = hard_set_for(&[0x100], 0);
        let hist = DistanceHistogram::paper_buckets(&[], &hard);
        assert_eq!(hist.total(), 0);
        assert_eq!(hist.percent_at(1), 0.0);
        assert_eq!(hist.percent_closer_than(8), 0.0);
        let single = DistanceHistogram::paper_buckets(&column(&[0x100]), &hard);
        assert_eq!(single.total(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_distance_rejected() {
        let hard = HardBranchSet::default();
        let _ = DistanceHistogram::from_addrs(&[], &hard, 0);
    }
}
