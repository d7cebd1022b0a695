//! The joint taken/transition class table (the paper's Table 2).

use crate::class::{BinningScheme, ClassId};
use crate::profile::ProgramProfile;
use btr_wire::{MapBuilder, Value, Wire, WireError};

/// Dynamic-weighted joint distribution of branches over
/// (taken class, transition class) cells.
#[derive(Debug, Clone, PartialEq)]
pub struct JointClassTable {
    scheme: BinningScheme,
    /// `counts[transition][taken]`, dynamic execution counts.
    counts: Vec<Vec<u64>>,
    /// Static branch counts per cell.
    static_counts: Vec<Vec<u64>>,
    total: u64,
}

impl JointClassTable {
    /// Builds the joint table from a program profile, weighting each cell by
    /// the dynamic execution counts of the branches in it.
    pub fn from_profile(profile: &ProgramProfile, scheme: BinningScheme) -> Self {
        let n = scheme.class_count();
        let mut counts = vec![vec![0u64; n]; n];
        let mut static_counts = vec![vec![0u64; n]; n];
        let mut total = 0u64;
        for branch in profile.iter() {
            if let Some((taken, transition)) = branch.joint_class(scheme) {
                counts[transition.index()][taken.index()] += branch.executions();
                static_counts[transition.index()][taken.index()] += 1;
                total += branch.executions();
            }
        }
        JointClassTable {
            scheme,
            counts,
            static_counts,
            total,
        }
    }

    /// The binning scheme used.
    pub fn scheme(&self) -> BinningScheme {
        self.scheme
    }

    /// Total dynamic executions counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Dynamic execution count in the cell (taken class, transition class).
    pub fn count(&self, taken: ClassId, transition: ClassId) -> u64 {
        self.counts[transition.index()][taken.index()]
    }

    /// Static branch count in a cell.
    pub fn static_count(&self, taken: ClassId, transition: ClassId) -> u64 {
        self.static_counts[transition.index()][taken.index()]
    }

    /// Percentage of dynamic executions in a cell (one entry of Table 2).
    pub fn percent(&self, taken: ClassId, transition: ClassId) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(taken, transition) as f64 / self.total as f64 * 100.0
        }
    }

    /// Percentage totals per transition class (Table 2's rightmost column).
    pub fn transition_totals(&self) -> Vec<f64> {
        self.scheme
            .classes()
            .map(|transition| {
                self.scheme
                    .classes()
                    .map(|taken| self.percent(taken, transition))
                    .sum()
            })
            .collect()
    }

    /// Percentage totals per taken class (Table 2's bottom row).
    pub fn taken_totals(&self) -> Vec<f64> {
        self.scheme
            .classes()
            .map(|taken| {
                self.scheme
                    .classes()
                    .map(|transition| self.percent(taken, transition))
                    .sum()
            })
            .collect()
    }

    /// Sum of all cell percentages (100 for a non-empty profile).
    pub fn total_percentage(&self) -> f64 {
        self.scheme
            .classes()
            .map(|taken| {
                self.scheme
                    .classes()
                    .map(|transition| self.percent(taken, transition))
                    .sum::<f64>()
            })
            .sum()
    }

    /// Percentage of dynamic executions whose *transition* class is in
    /// `classes` (used for the easy-branch coverage computations).
    pub fn transition_coverage(&self, classes: &[ClassId]) -> f64 {
        let totals = self.transition_totals();
        classes.iter().map(|c| totals[c.index()]).sum()
    }

    /// Percentage of dynamic executions whose *taken* class is in `classes`.
    pub fn taken_coverage(&self, classes: &[ClassId]) -> f64 {
        let totals = self.taken_totals();
        classes.iter().map(|c| totals[c.index()]).sum()
    }

    /// Percentage of dynamic executions in cells that are easy by transition
    /// rate but *not* easy by taken rate — the branches Table 2 bolds as
    /// "wrongly classified as hard-to-predict if only taken rate is used".
    pub fn misclassified_percent(
        &self,
        transition_easy: &[ClassId],
        taken_easy: &[ClassId],
    ) -> f64 {
        let mut sum = 0.0;
        for transition in transition_easy {
            for taken in self.scheme.classes() {
                if !taken_easy.contains(&taken) {
                    sum += self.percent(taken, *transition);
                }
            }
        }
        sum
    }

    /// Iterates over `(taken, transition, percent)` for every cell.
    pub fn cells(&self) -> impl Iterator<Item = (ClassId, ClassId, f64)> + '_ {
        self.scheme.classes().flat_map(move |transition| {
            self.scheme
                .classes()
                .map(move |taken| (taken, transition, self.percent(taken, transition)))
        })
    }
}

/// Encodes a square `counts[transition][taken]` grid as a list of dense
/// unsigned rows.
fn grid_to_value(grid: &[Vec<u64>]) -> Value {
    Value::List(grid.iter().map(|row| Value::U64s(row.clone())).collect())
}

/// Decodes a square grid, validating that it is `n × n`.
fn grid_from_value(value: &Value, n: usize, what: &str) -> Result<Vec<Vec<u64>>, WireError> {
    let rows = value.as_list()?;
    if rows.len() != n {
        return Err(WireError::schema(format!(
            "{what} has {} rows for a {n}-class scheme",
            rows.len()
        )));
    }
    rows.iter()
        .map(|row| {
            let row = row.as_u64_seq()?;
            if row.len() != n {
                return Err(WireError::schema(format!(
                    "{what} row has {} cells for a {n}-class scheme",
                    row.len()
                )));
            }
            Ok(row)
        })
        .collect()
}

/// [`JointClassTable`] encodes its dynamic and static count grids row by row
/// (`counts[transition][taken]`, matching the in-memory layout); the stored
/// total must equal the dynamic grid sum, which decode re-validates.
impl Wire for JointClassTable {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("scheme", self.scheme.to_value())
            .field("counts", grid_to_value(&self.counts))
            .field("static_counts", grid_to_value(&self.static_counts))
            .field("total", self.total)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let scheme = BinningScheme::from_value(value.get("scheme")?)?;
        let n = scheme.class_count();
        let counts = grid_from_value(value.get("counts")?, n, "joint count grid")?;
        let static_counts = grid_from_value(value.get("static_counts")?, n, "joint static grid")?;
        let total = value.get("total")?.as_u64()?;
        let sum = counts
            .iter()
            .flatten()
            .try_fold(0u64, |acc, c| acc.checked_add(*c))
            .ok_or_else(|| WireError::schema("joint counts overflow u64"))?;
        if sum != total {
            return Err(WireError::schema(format!(
                "joint table total {total} does not match cell sum {sum}"
            )));
        }
        Ok(JointClassTable {
            scheme,
            counts,
            static_counts,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{ClassDistribution, Metric};
    use crate::profile::BranchProfile;
    use btr_trace::BranchAddr;

    fn profile_with(branches: &[(u64, u64, u64, u64)]) -> ProgramProfile {
        branches
            .iter()
            .map(|(addr, execs, taken, trans)| {
                BranchProfile::new(BranchAddr::new(*addr), *execs, *taken, *trans)
            })
            .collect()
    }

    fn sample_profile() -> ProgramProfile {
        profile_with(&[
            (0x10, 400, 392, 8),   // taken 98%, transition 2%  -> (10, 0)
            (0x20, 300, 9, 12),    // taken 3%, transition 4%   -> (0, 0)
            (0x30, 200, 100, 100), // 50% / 50%                -> (5, 5)
            (0x40, 100, 50, 97),   // 50% / 97%                 -> (5, 10)
        ])
    }

    #[test]
    fn cell_percentages_match_hand_computation() {
        let table = JointClassTable::from_profile(&sample_profile(), BinningScheme::Paper11);
        assert_eq!(table.total(), 1000);
        assert!((table.percent(ClassId(10), ClassId(0)) - 40.0).abs() < 1e-9);
        assert!((table.percent(ClassId(0), ClassId(0)) - 30.0).abs() < 1e-9);
        assert!((table.percent(ClassId(5), ClassId(5)) - 20.0).abs() < 1e-9);
        assert!((table.percent(ClassId(5), ClassId(10)) - 10.0).abs() < 1e-9);
        assert_eq!(table.static_count(ClassId(5), ClassId(5)), 1);
        assert_eq!(table.count(ClassId(10), ClassId(0)), 400);
        assert!((table.total_percentage() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn marginals_match_direct_distributions() {
        let profile = sample_profile();
        let scheme = BinningScheme::Paper11;
        let table = JointClassTable::from_profile(&profile, scheme);
        let taken = ClassDistribution::from_profile(&profile, Metric::TakenRate, scheme);
        let transition = ClassDistribution::from_profile(&profile, Metric::TransitionRate, scheme);
        let taken_totals = table.taken_totals();
        let transition_totals = table.transition_totals();
        for class in scheme.classes() {
            assert!((taken_totals[class.index()] - taken.percent(class)).abs() < 1e-9);
            assert!((transition_totals[class.index()] - transition.percent(class)).abs() < 1e-9);
        }
    }

    #[test]
    fn coverage_and_misclassification() {
        let table = JointClassTable::from_profile(&sample_profile(), BinningScheme::Paper11);
        let scheme = BinningScheme::Paper11;
        // Taken-easy: classes 0 and 10 -> 30% + 40% = 70%.
        let taken_easy = table.taken_coverage(&scheme.taken_easy_classes());
        assert!((taken_easy - 70.0).abs() < 1e-9);
        // Transition-easy (GAs): classes 0 and 1 -> 70%.
        let gas_easy = table.transition_coverage(&scheme.transition_easy_classes_gas());
        assert!((gas_easy - 70.0).abs() < 1e-9);
        // Transition-easy (PAs) adds classes 9 and 10 -> +10% for the alternator.
        let pas_easy = table.transition_coverage(&scheme.transition_easy_classes_pas());
        assert!((pas_easy - 80.0).abs() < 1e-9);
        // The alternating branch is misclassified as hard by taken rate.
        let mis = table.misclassified_percent(
            &scheme.transition_easy_classes_pas(),
            &scheme.taken_easy_classes(),
        );
        assert!((mis - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cells_iterator_covers_all_cells() {
        let table = JointClassTable::from_profile(&sample_profile(), BinningScheme::Paper11);
        let cells: Vec<_> = table.cells().collect();
        assert_eq!(cells.len(), 121);
        let sum: f64 = cells.iter().map(|(_, _, p)| p).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn joint_tables_roundtrip_on_the_wire() {
        for scheme in [BinningScheme::Paper11, BinningScheme::Uniform(3)] {
            let table = JointClassTable::from_profile(&sample_profile(), scheme);
            assert_eq!(
                JointClassTable::from_json(&table.to_json().unwrap()).unwrap(),
                table
            );
            assert_eq!(JointClassTable::from_btrw(&table.to_btrw()).unwrap(), table);
        }
        // A wrong-shaped grid or tampered total is rejected.
        let table = JointClassTable::from_profile(&sample_profile(), BinningScheme::Uniform(3));
        let mut v = table.to_value();
        if let Value::Map(entries) = &mut v {
            for (k, field) in entries.iter_mut() {
                if k == "total" {
                    *field = Value::U64(1);
                }
            }
        }
        assert!(JointClassTable::from_value(&v).is_err());
        let bad =
            "{\"scheme\":\"uniform-2\",\"counts\":[[1,2]],\"static_counts\":[[1,2],[0,0]],\"total\":3}";
        assert!(JointClassTable::from_json(bad).is_err());
    }

    #[test]
    fn empty_profile_gives_empty_table() {
        let table = JointClassTable::from_profile(&ProgramProfile::new(), BinningScheme::Paper11);
        assert_eq!(table.total(), 0);
        assert_eq!(table.total_percentage(), 0.0);
        assert_eq!(table.scheme(), BinningScheme::Paper11);
    }
}
