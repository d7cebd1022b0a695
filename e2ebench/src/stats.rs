//! The benchmark's own arithmetic: nearest-rank percentiles over latency
//! samples, the median-of-cold-starts rule for set-up time, and the ratios
//! and residuals the traced run reports.

use std::time::Duration;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample such that at least `p` percent of all samples are at or
/// below it. Always one of the samples, never an interpolation. `None` for
/// an empty set.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly above the nearest-rank `p`-th percentile:
/// the tail a percentile rests on. Fewer than ten means the percentile is
/// closer to a maximum than to a stable tail estimate.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The median cold-start time in seconds. Set-up time is never a single
/// start: one start is dominated by scheduler and page-cache luck, the
/// median of several is not. An even count takes the lower middle sample
/// (nearest rank), so the reported value is always a start that happened.
pub fn median_setup_s(starts: &[Duration]) -> Option<f64> {
    let secs: Vec<f64> = starts.iter().map(Duration::as_secs_f64).collect();
    nearest_rank(&secs, 50.0)
}

/// Latency samples of one timed phase, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    /// Records one sample.
    pub fn push(&mut self, elapsed: Duration) {
        self.ms.push(elapsed.as_secs_f64() * 1e3);
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Appends another phase's samples.
    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// The nearest-rank percentile in milliseconds.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        nearest_rank(&self.ms, p)
    }
}

/// One segment of a run's timed phase.
#[derive(Debug, Default)]
pub struct Segment {
    /// Latency of every verified request or job.
    pub latencies: Latencies,
    /// Records covered by verified responses.
    pub records: u64,
    /// Wall time of the segment.
    pub wall: Duration,
}

impl Segment {
    /// Verified records per second of wall time.
    pub fn records_per_s(&self) -> Option<f64> {
        ratio(self.records as f64, self.wall.as_secs_f64())
    }
}

/// The median over segments of a per-segment figure; `None` if any
/// segment lacks it. A run's figures are medians over its segments, so a
/// burst of interference on the host that spoils a few segments does not
/// move them.
pub fn median_over(segments: &[Segment], figure: impl Fn(&Segment) -> Option<f64>) -> Option<f64> {
    let values: Option<Vec<f64>> = segments.iter().map(figure).collect();
    nearest_rank(&values?, 50.0)
}

/// What is left of `total` after the named stages: the part of an
/// end-to-end time no stage accounts for (socket, parse, scheduling).
/// Negative when the stages, measured in isolation, overshoot the total.
pub fn residual(total: f64, stages: &[f64]) -> f64 {
    total - stages.iter().sum::<f64>()
}

/// `part / whole`, or `None` when the whole is not positive.
pub fn ratio(part: f64, whole: f64) -> Option<f64> {
    (whole > 0.0).then(|| part / whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank_sample() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&samples, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&samples, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&samples, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&samples, 1.0), Some(1.0));
    }

    #[test]
    fn nearest_rank_ignores_input_order_and_rejects_empty_sets() {
        let samples = [9.0, 2.0, 7.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&samples, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&samples, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&samples, 0.0), None);
        assert_eq!(nearest_rank(&samples, 101.0), None);
    }

    #[test]
    fn percentiles_are_always_observed_samples() {
        let samples = [1.5, 2.5];
        // An interpolating median would say 2.0.
        assert_eq!(nearest_rank(&samples, 50.0), Some(1.5));
    }

    #[test]
    fn tail_sample_counts_follow_the_rank() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(3000, 99.0), 30);
        assert_eq!(samples_beyond(80, 90.0), 8);
        assert_eq!(samples_beyond(1, 90.0), 0);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn latencies_report_milliseconds_and_counts() {
        let mut lat = Latencies::default();
        for ms in [4u64, 1, 3, 2, 100] {
            lat.push(Duration::from_millis(ms));
        }
        assert_eq!(lat.len(), 5);
        assert_eq!(lat.percentile(50.0), Some(3.0));
        assert_eq!(lat.percentile(90.0), Some(100.0));
    }

    #[test]
    fn setup_is_the_median_start_not_the_first_or_the_mean() {
        let starts: Vec<Duration> = [29.0, 1.4, 1.5, 1.6, 1.45]
            .iter()
            .map(|ms| Duration::from_secs_f64(ms / 1e3))
            .collect();
        let median = median_setup_s(&starts).expect("non-empty");
        assert!((median - 1.5e-3).abs() < 1e-12, "{median}");
        assert_eq!(median_setup_s(&[]), None);
        let even: Vec<Duration> = [4u64, 1, 3, 2].map(Duration::from_millis).to_vec();
        assert_eq!(median_setup_s(&even), Some(0.002));
    }

    fn segment(ms: &[u64], records: u64, wall_ms: u64) -> Segment {
        let mut latencies = Latencies::default();
        for &m in ms {
            latencies.push(Duration::from_millis(m));
        }
        Segment {
            latencies,
            records,
            wall: Duration::from_millis(wall_ms),
        }
    }

    #[test]
    fn run_figures_are_medians_over_segments() {
        let segments = [
            segment(&[10, 11, 12], 300, 1000),
            segment(&[50, 60, 70], 100, 1000),
            segment(&[9, 10, 13], 310, 1000),
        ];
        let p50 = median_over(&segments, |s| s.latencies.percentile(50.0));
        assert_eq!(p50, Some(11.0), "the disturbed segment does not set it");
        assert_eq!(median_over(&segments, Segment::records_per_s), Some(300.0));
        let empty = [segment(&[], 0, 1000), segment(&[5], 1, 1000)];
        assert_eq!(median_over(&empty, |s| s.latencies.percentile(50.0)), None);
        assert_eq!(median_over(&[], Segment::records_per_s), None);
    }

    #[test]
    fn residuals_and_ratios() {
        assert!((residual(10.0, &[2.0, 3.0, 4.5]) - 0.5).abs() < 1e-12);
        assert!(residual(1.0, &[0.7, 0.6]) < 0.0);
        assert_eq!(residual(3.0, &[]), 3.0);
        assert_eq!(ratio(3.0, 4.0), Some(0.75));
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(1.0, -2.0), None);
    }
}
