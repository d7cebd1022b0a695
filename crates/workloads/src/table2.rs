//! The paper's Table 2: percentage of dynamic branches in each joint
//! (taken-rate class, transition-rate class) cell, aggregated over the whole
//! SPECint95 suite.
//!
//! These constants are the calibration target of the synthetic workload
//! generator: a full suite generated at any scale reproduces this joint
//! distribution (up to sampling noise), and therefore also reproduces the
//! paper's Figures 1 and 2 (the marginals) and the misclassification
//! percentages derived from the table.

/// Number of classes per metric (classes 0 through 10).
pub const CLASS_COUNT: usize = 11;

/// `PAPER_TABLE2[transition_class][taken_class]` = percent of dynamic
/// branches, exactly as printed in the paper.
pub(crate) const PAPER_TABLE2: [[f64; CLASS_COUNT]; CLASS_COUNT] = [
    // taken:  0      1      2      3      4      5      6      7      8      9      10
    [
        26.11, 0.71, 0.01, 0.05, 0.04, 0.02, 0.07, 0.32, 0.69, 0.05, 32.73,
    ], // transition 0
    [
        0.46, 2.12, 0.09, 0.09, 0.16, 0.06, 0.07, 0.03, 0.15, 4.00, 3.59,
    ], // transition 1
    [
        0.00, 2.27, 0.45, 0.11, 0.03, 0.04, 0.99, 0.06, 0.57, 2.97, 0.00,
    ], // transition 2
    [
        0.00, 0.10, 1.01, 0.28, 0.13, 0.20, 0.24, 0.30, 0.87, 0.05, 0.00,
    ], // transition 3
    [
        0.00, 0.00, 0.36, 0.70, 1.08, 0.30, 1.72, 0.52, 0.60, 0.00, 0.00,
    ], // transition 4
    [
        0.00, 0.00, 0.01, 1.77, 0.72, 1.34, 0.16, 0.92, 0.56, 0.00, 0.00,
    ], // transition 5
    [
        0.00, 0.00, 0.00, 0.71, 1.59, 0.45, 0.89, 1.21, 0.00, 0.00, 0.00,
    ], // transition 6
    [
        0.00, 0.00, 0.00, 0.03, 0.13, 0.53, 0.11, 0.40, 0.00, 0.00, 0.00,
    ], // transition 7
    [
        0.00, 0.00, 0.00, 0.00, 0.21, 0.06, 0.02, 0.00, 0.00, 0.00, 0.00,
    ], // transition 8
    [
        0.00, 0.00, 0.00, 0.00, 0.03, 0.07, 0.03, 0.00, 0.00, 0.00, 0.00,
    ], // transition 9
    [
        0.00, 0.00, 0.00, 0.00, 0.00, 0.44, 0.00, 0.00, 0.00, 0.00, 0.00,
    ], // transition 10
];

/// Per-transition-class totals as printed in the paper's rightmost column.
pub const PAPER_TRANSITION_TOTALS: [f64; CLASS_COUNT] = [
    60.81, 10.81, 7.50, 3.18, 5.28, 5.49, 4.85, 1.21, 0.29, 0.13, 0.44,
];

/// Per-taken-class totals as printed in the paper's bottom row.
pub const PAPER_TAKEN_TOTALS: [f64; CLASS_COUNT] = [
    26.57, 5.20, 1.94, 3.76, 4.12, 3.53, 4.30, 3.77, 3.42, 7.06, 36.33,
];

/// Dynamic-branch coverage of taken-rate classes 0 and 10 reported by the
/// paper (the Chang-style "easy" set): 26.57 + 36.33.
pub const PAPER_TAKEN_EASY_COVERAGE: f64 = 62.90;

/// Coverage of transition-rate classes 0 and 1 (easy for either predictor):
/// 60.81 + 10.81.
pub const PAPER_TRANSITION_EASY_COVERAGE_GAS: f64 = 71.62;

/// Coverage of transition-rate classes 0, 1, 9 and 10 (easy for PAs):
/// 60.81 + 10.81 + 0.13 + 0.44.
pub const PAPER_TRANSITION_EASY_COVERAGE_PAS: f64 = 72.19;

/// Branches misclassified as hard by taken rate when GAs is the predictor.
pub const PAPER_MISCLASSIFIED_GAS: f64 = 8.72;

/// Branches misclassified as hard by taken rate when PAs is the predictor.
pub const PAPER_MISCLASSIFIED_PAS: f64 = 9.29;

/// The joint-cell weight (percent) for `taken_class`, `transition_class`.
///
/// # Panics
///
/// Panics if either class index is 11 or larger.
pub fn cell_percent(taken_class: usize, transition_class: usize) -> f64 {
    assert!(taken_class < CLASS_COUNT, "taken class out of range");
    assert!(
        transition_class < CLASS_COUNT,
        "transition class out of range"
    );
    PAPER_TABLE2[transition_class][taken_class]
}

/// Sum of all cells (should be close to 100%; the paper's table rounds each
/// cell to two decimals so the exact sum is slightly off 100).
pub fn total_percent() -> f64 {
    PAPER_TABLE2.iter().flatten().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sums_to_roughly_100_percent() {
        let total = total_percent();
        assert!((total - 100.0).abs() < 0.5, "table total {total}");
    }

    #[test]
    fn row_totals_match_the_printed_transition_totals() {
        for (row, expected) in PAPER_TABLE2.iter().zip(PAPER_TRANSITION_TOTALS) {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - expected).abs() < 0.06,
                "row sums to {sum}, paper prints {expected}"
            );
        }
    }

    #[test]
    fn column_totals_match_the_printed_taken_totals() {
        for taken in 0..CLASS_COUNT {
            let sum: f64 = (0..CLASS_COUNT).map(|tr| PAPER_TABLE2[tr][taken]).sum();
            let expected = PAPER_TAKEN_TOTALS[taken];
            assert!(
                (sum - expected).abs() < 0.06,
                "column {taken} sums to {sum}, paper prints {expected}"
            );
        }
    }

    #[test]
    fn headline_coverage_numbers_are_consistent_with_the_table() {
        let taken_easy = PAPER_TAKEN_TOTALS[0] + PAPER_TAKEN_TOTALS[10];
        assert!((taken_easy - PAPER_TAKEN_EASY_COVERAGE).abs() < 0.01);
        let gas_easy = PAPER_TRANSITION_TOTALS[0] + PAPER_TRANSITION_TOTALS[1];
        assert!((gas_easy - PAPER_TRANSITION_EASY_COVERAGE_GAS).abs() < 0.01);
        let pas_easy = gas_easy + PAPER_TRANSITION_TOTALS[9] + PAPER_TRANSITION_TOTALS[10];
        assert!((pas_easy - PAPER_TRANSITION_EASY_COVERAGE_PAS).abs() < 0.01);
        assert!((gas_easy - taken_easy - PAPER_MISCLASSIFIED_GAS).abs() < 0.01);
        assert!((pas_easy - taken_easy - PAPER_MISCLASSIFIED_PAS).abs() < 0.01);
    }

    #[test]
    fn cell_percent_accessor_and_bounds() {
        assert!((cell_percent(0, 0) - 26.11).abs() < 1e-9);
        assert!((cell_percent(10, 0) - 32.73).abs() < 1e-9);
        assert!((cell_percent(5, 10) - 0.44).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_percent_rejects_bad_indices() {
        let _ = cell_percent(11, 0);
    }
}
