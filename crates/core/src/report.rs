//! Plain-text rendering of tables, colormaps and line series, used by the
//! `reproduce` binary and the examples to print paper-style artefacts.
//!
//! These renderers are the *human-facing* half of the artifact story: each
//! returns a `String` ready for stdout, and `reproduce --out-dir` writes the
//! same strings to `.txt` files next to the machine-readable JSON/`BTRW`
//! artifacts (produced via `btr_wire::Wire` from the same structured data,
//! and cross-checked against these renderings by
//! `scripts/check_artifacts.py` in CI). Layout conventions shared by every
//! renderer:
//!
//! * tables right-align cells in columns two spaces apart, with a dashed
//!   separator under the header ([`ascii_table`]);
//! * distributions render one `class | percent bar` line per class, one `#`
//!   per two percentage points ([`render_distribution`]);
//! * miss rates print with three decimals, `-` marking cells no simulated
//!   branch fell into;
//! * colormaps shade cells `.` (≈0% misses) through `#` (≥50%), blank for
//!   empty cells ([`render_joint_miss_matrix`]).

use crate::analysis::{ClassHistoryMatrix, JointMissMatrix};
use crate::distribution::ClassDistribution;
use crate::joint::JointClassTable;

/// Renders a simple aligned table with a header row.
///
/// Column count is the *widest* of the header and every row: a row carrying
/// more cells than the header keeps its extra cells (rendered under empty
/// header space) instead of being silently truncated, and short rows are
/// simply left ragged. Cells are right-aligned, two spaces apart.
pub fn ascii_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let columns = rows
        .iter()
        .map(Vec::len)
        .chain(std::iter::once(headers.len()))
        .max()
        .unwrap_or(0);
    let mut widths = vec![0usize; columns];
    for cells in std::iter::once(headers).chain(rows.iter().map(Vec::as_slice)) {
        for (i, cell) in cells.iter().enumerate() {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(widths.len()) {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    out.push_str(&render_row(headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats an optional miss rate with three decimals, `-` when no branch of
/// the class was simulated (distinct from a genuine 0.000 rate).
fn fmt_opt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:.3}", r),
        None => "-".to_string(),
    }
}

/// Renders a class distribution (Figure 1 / Figure 2) as a bar list: one
/// line per class with its dynamic percentage and a `#` bar (one `#` per two
/// percentage points).
pub fn render_distribution(title: &str, distribution: &ClassDistribution) -> String {
    let mut out = format!("{title}\n");
    for class in distribution.scheme().classes() {
        let pct = distribution.percent(class);
        let bar = "#".repeat((pct / 2.0).round() as usize);
        out.push_str(&format!("{:>2} | {:>6.2}% {}\n", class.index(), pct, bar));
    }
    out
}

/// Renders a joint class table (Table 2) with row and column totals: one
/// row per transition class, one column per taken class, percentages with
/// two decimals, and a `Total` row/column whose grand total reads 100.00 for
/// any non-empty profile.
pub fn render_joint_table(title: &str, table: &JointClassTable) -> String {
    let scheme = table.scheme();
    let mut headers = vec!["trans\\taken".to_string()];
    headers.extend(scheme.classes().map(|c| c.index().to_string()));
    headers.push("Total".to_string());
    let transition_totals = table.transition_totals();
    let mut rows = Vec::new();
    for transition in scheme.classes() {
        let mut row = vec![transition.index().to_string()];
        for taken in scheme.classes() {
            row.push(format!("{:.2}", table.percent(taken, transition)));
        }
        row.push(format!("{:.2}", transition_totals[transition.index()]));
        rows.push(row);
    }
    let mut total_row = vec!["Total".to_string()];
    for t in table.taken_totals() {
        total_row.push(format!("{t:.2}"));
    }
    total_row.push(format!("{:.2}", table.total_percentage()));
    rows.push(total_row);
    format!("{title}\n{}", ascii_table(&headers, &rows))
}

/// Renders a class × history miss-rate matrix (Figures 5–8) as a numeric
/// table: one row per history length, one column per class, `-` for empty
/// cells.
pub fn render_class_history_matrix(title: &str, matrix: &ClassHistoryMatrix) -> String {
    let scheme = matrix.scheme();
    let mut headers = vec!["hist\\class".to_string()];
    headers.extend(scheme.classes().map(|c| c.index().to_string()));
    let mut rows = Vec::new();
    for &history in matrix.history_lengths() {
        let mut row = vec![history.to_string()];
        for class in scheme.classes() {
            row.push(fmt_opt_rate(matrix.miss_at(class, history)));
        }
        rows.push(row);
    }
    format!("{title}\n{}", ascii_table(&headers, &rows))
}

/// Renders selected class curves across history lengths (Figures 9–12): one
/// row per history length, one column per requested class index, so each
/// column reads top to bottom as one curve of the paper's line plots.
pub fn render_history_curves(
    title: &str,
    matrix: &ClassHistoryMatrix,
    classes: &[usize],
) -> String {
    let mut headers = vec!["history".to_string()];
    headers.extend(classes.iter().map(|c| format!("class {c}")));
    let mut rows = Vec::new();
    for (idx, &history) in matrix.history_lengths().iter().enumerate() {
        let mut row = vec![history.to_string()];
        for &c in classes {
            let rate = matrix
                .row(crate::class::ClassId(c))
                .get(idx)
                .copied()
                .flatten();
            row.push(fmt_opt_rate(rate));
        }
        rows.push(row);
    }
    format!("{title}\n{}", ascii_table(&headers, &rows))
}

/// Renders a joint miss-rate matrix (Figures 13–14) as a shaded colormap.
pub fn render_joint_miss_matrix(title: &str, matrix: &JointMissMatrix) -> String {
    let scheme = matrix.scheme();
    const SHADES: [char; 6] = ['.', ':', '+', 'x', 'X', '#'];
    let mut out = format!(
        "{title}\n      taken class 0..{}\n",
        scheme.class_count() - 1
    );
    for transition in scheme.classes() {
        out.push_str(&format!("tr {:>2} ", transition.index()));
        for taken in scheme.classes() {
            let shade = match matrix.miss_at(taken, transition) {
                None => ' ',
                Some(rate) => {
                    let idx = ((rate / 0.5) * (SHADES.len() as f64 - 1.0))
                        .round()
                        .clamp(0.0, SHADES.len() as f64 - 1.0)
                        as usize;
                    SHADES[idx]
                }
            };
            out.push(shade);
        }
        out.push('\n');
    }
    out.push_str("legend: '.'≈0% misses … '#'≥50% misses, blank = no branches\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{BranchMissMap, ClassMissRates};
    use crate::class::BinningScheme;
    use crate::distribution::Metric;
    use crate::profile::{BranchProfile, ProgramProfile};
    use btr_predictors::predictor::PredictionStats;
    use btr_trace::BranchAddr;

    fn sample_profile() -> ProgramProfile {
        vec![
            BranchProfile::new(BranchAddr::new(0x10), 700, 690, 10),
            BranchProfile::new(BranchAddr::new(0x20), 300, 150, 150),
        ]
        .into_iter()
        .collect()
    }

    fn sample_misses() -> BranchMissMap {
        let mut m = BranchMissMap::new();
        let mut a = PredictionStats::new();
        for i in 0..100 {
            a.record(i < 95);
        }
        m.insert(BranchAddr::new(0x10), a);
        let mut b = PredictionStats::new();
        for i in 0..100 {
            b.record(i < 55);
        }
        m.insert(BranchAddr::new(0x20), b);
        m
    }

    #[test]
    fn ascii_table_aligns_columns() {
        let out = ascii_table(
            &["name".to_string(), "value".to_string()],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["long-name".to_string(), "12345".to_string()],
            ],
        );
        assert!(out.contains("name"));
        assert!(out.contains("long-name"));
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    fn ascii_table_keeps_cells_of_rows_wider_than_the_header() {
        // Regression: rows wider than the header used to lose their extra
        // cells to a `.take(headers.len())`.
        let out = ascii_table(
            &["only".to_string()],
            &[
                vec!["a".to_string(), "extra-cell".to_string()],
                vec!["b".to_string()],
            ],
        );
        assert!(out.contains("extra-cell"), "{out}");
        // The ragged short row still renders, and the separator spans both
        // columns.
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].len(), "only".len() + 2 + "extra-cell".len());
        assert!(lines[3].trim_end().ends_with('b'));
    }

    #[test]
    fn distribution_and_table_renderings_contain_all_classes() {
        let profile = sample_profile();
        let scheme = BinningScheme::Paper11;
        let dist = ClassDistribution::from_profile(&profile, Metric::TakenRate, scheme);
        let rendered = render_distribution("Figure 1", &dist);
        assert!(rendered.contains("Figure 1"));
        assert_eq!(rendered.lines().count(), 12);

        let table = JointClassTable::from_profile(&profile, scheme);
        let rendered = render_joint_table("Table 2", &table);
        assert!(rendered.contains("Table 2"));
        assert!(rendered.contains("Total"));
        assert!(rendered.contains("70.00"));
    }

    #[test]
    fn matrix_renderings_include_history_lengths() {
        let profile = sample_profile();
        let scheme = BinningScheme::Paper11;
        let rates =
            ClassMissRates::aggregate(&profile, Metric::TakenRate, scheme, &sample_misses());
        let matrix = ClassHistoryMatrix::from_runs(&[(0, rates.clone()), (4, rates)]);
        let rendered = render_class_history_matrix("Figure 5", &matrix);
        assert!(rendered.contains("Figure 5"));
        assert!(rendered.lines().count() >= 4);
        let curves = render_history_curves("Figure 9", &matrix, &[0, 10]);
        assert!(curves.contains("class 10"));

        let joint = JointMissMatrix::from_history_runs(
            &profile,
            scheme,
            &[(0, sample_misses()), (4, sample_misses())],
        );
        let rendered = render_joint_miss_matrix("Figure 13", &joint);
        assert!(rendered.contains("Figure 13"));
        assert!(rendered.contains("legend"));
        assert_eq!(rendered.lines().count(), 2 + 11 + 1);
    }
}
