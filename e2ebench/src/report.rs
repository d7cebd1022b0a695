//! One run's result: the metrics, the operation counts, and the JSON line
//! the benchmark ends with.

use crate::stats::{self, Segment};
use btr_wire::MapBuilder;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "records/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run prints, with their units, in
/// `BENCHMARK.json` order. Each is prefixed by the workload it measures.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("classify.serve.digest_ms", "ms"),
    ("classify.trace.decode_ms", "ms"),
    ("classify.trace.decode_records_per_s", "records/s"),
    ("classify.trace.stats_ms", "ms"),
    ("classify.core.profile_ms", "ms"),
    ("classify.core.classify_doc_ms", "ms"),
    ("classify.wire.json_encode_ms", "ms"),
    ("classify.wire.response_bytes", "bytes"),
    ("classify.serve.run_classify_ms", "ms"),
    ("classify.serve.http_residual_ms", "ms"),
    ("classify.trace.static_branches", "count"),
    ("classify.e2e_p50_ms", "ms"),
    ("classify.stage_coverage", "ratio"),
    ("classify.tracing_overhead_ms", "ms"),
    ("sweep.serve.digest_ms", "ms"),
    ("sweep.serve.materialize_ms", "ms"),
    ("sweep.serve.materialize_peak_heap_mib", "MiB"),
    ("sweep.sim.run_batch_ms", "ms"),
    ("sweep.sim.batch_history_records_per_s", "records/s"),
    ("sweep.core.sweep_doc_ms", "ms"),
    ("sweep.wire.json_encode_ms", "ms"),
    ("sweep.serve.run_sweep_streamed_ms", "ms"),
    ("sweep.serve.run_sweep_streamed_peak_heap_mib", "MiB"),
    ("sweep.serve.http_residual_ms", "ms"),
    ("sweep.serve.batched_lanes", "count"),
    ("sweep.serve.busy_503", "count"),
    ("sweep.e2e_p50_ms", "ms"),
    ("sweep.stage_coverage", "ratio"),
    ("sweep.tracing_overhead_ms", "ms"),
    ("shard.workloads.generate_ms", "ms"),
    ("shard.workloads.regenerations_per_trace", "count"),
    ("shard.trace.intern_ms", "ms"),
    ("shard.sim.window_dispatch_ms", "ms"),
    ("shard.sim.window_replay_ratio", "ratio"),
    ("shard.sim.fused_ms", "ms"),
    ("shard.shard.unit_execute_ms", "ms"),
    ("shard.shard.commit_ms", "ms"),
    ("shard.shard.coordinator_residual_ms", "ms"),
    ("shard.e2e_p50_ms", "ms"),
    ("shard.stage_coverage", "ratio"),
    ("shard.tracing_overhead_ms", "ms"),
];

/// The declared unit of a metric.
///
/// # Panics
///
/// Panics on a name neither table declares: a bug in this benchmark.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations sent, warm-up and consistency checks included.
    pub attempted: u64,
    /// Operations that failed: a non-200, a transport error or timeout, an
    /// oracle mismatch, or a `/metrics` count that disagrees with the
    /// traffic sent.
    pub failed: u64,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// mismatch reasons).
    pub notes: Vec<String>,
    /// Whether a declared metric could not be measured.
    pub incomplete: bool,
}

impl Outcome {
    /// Records a declared metric; a value that could not be measured is a
    /// failure.
    pub fn metric(&mut self, name: &str, value: Option<f64>) {
        match value.filter(|v| v.is_finite()) {
            Some(value) => self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit: unit_of(name),
            }),
            None => self.missing(format!("metric {name} could not be measured")),
        }
    }

    /// Records the end-to-end metrics of an untraced run from its segments,
    /// the peak resident set and the set-up samples.
    pub fn end_to_end(
        &mut self,
        segments: &[Segment],
        peak_rss_mib: Option<f64>,
        starts: &[Duration],
    ) {
        self.metric(
            "records_per_s",
            stats::median_over(segments, Segment::records_per_s),
        );
        self.metric(
            "latency_p50_ms",
            stats::median_over(segments, |s| s.latencies.percentile(50.0)),
        );
        self.metric(
            "latency_p90_ms",
            stats::median_over(segments, |s| s.latencies.percentile(90.0)),
        );
        self.metric("peak_rss_mib", peak_rss_mib);
        self.metric("setup_s", stats::median_setup_s(starts));
        let counts: Vec<usize> = segments.iter().map(|s| s.latencies.len()).collect();
        let fewest = counts.iter().copied().min().unwrap_or(0);
        self.note(format!(
            "{} verified samples in {} segments of {:.2} s total ({}..{} per segment; \
             a segment's p90 rests on at least {} samples beyond it); \
             setup is the median of {} starts",
            counts.iter().sum::<usize>(),
            segments.len(),
            segments.iter().map(|s| s.wall.as_secs_f64()).sum::<f64>(),
            fewest,
            counts.iter().copied().max().unwrap_or(0),
            stats::samples_beyond(fewest, 90.0),
            starts.len()
        ));
        for (i, s) in segments.iter().enumerate() {
            self.note(format!(
                "  segment {i}: {:>12.0} records/s  p50 {:>9.3} ms  p90 {:>9.3} ms",
                s.records_per_s().unwrap_or(f64::NAN),
                s.latencies.percentile(50.0).unwrap_or(f64::NAN),
                s.latencies.percentile(90.0).unwrap_or(f64::NAN),
            ));
        }
    }

    /// Records a failed operation and why.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {reason}"));
    }

    /// Marks the run incomplete: it is not an operation that failed, but
    /// the run cannot be trusted either.
    fn missing(&mut self, reason: String) {
        self.incomplete = true;
        self.notes.push(format!("INCOMPLETE: {reason}"));
    }

    /// Records a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Fails the run unless it measured exactly the `declared` metrics.
    pub fn require(&mut self, declared: &[(&str, &str)]) {
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            self.missing(format!("measured {got:?}, declared {want:?}"));
        }
    }

    /// Whether every operation verified and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && !self.incomplete
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut metrics = MapBuilder::new();
        for m in &self.metrics {
            metrics = metrics.field(
                &m.name,
                MapBuilder::new()
                    .field("value", m.value)
                    .field("unit", m.unit)
                    .build(),
            );
        }
        let line = MapBuilder::new()
            .field("correct", self.correct())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failed)
            .field("metrics", metrics.build())
            .build();
        btr_wire::json::to_string(&line).expect("metric values are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_wire::Value;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("latency_p50_ms", Some(1.25));
        let parsed = btr_wire::json::from_str(&out.to_json()).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_map()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = parsed
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .expect("metric present");
        assert_eq!(metric.get("value").and_then(Value::as_f64).ok(), Some(1.25));
        assert_eq!(metric.get("unit").and_then(Value::as_str).ok(), Some("ms"));
        assert!(out.correct());
    }

    #[test]
    fn unmeasurable_metrics_and_failures_make_the_run_incorrect() {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.metric("records_per_s", None);
        assert_eq!(out.failed, 0, "a missing metric is not a failed operation");
        assert!(!out.correct());
        let mut nan = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        nan.metric("setup_s", Some(f64::NAN));
        assert!(!nan.correct());
        assert!(!Outcome::default().correct(), "nothing attempted");
    }

    #[test]
    fn a_run_missing_a_declared_metric_is_incorrect() {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (name, _) in &END_TO_END[1..] {
            out.metric(name, Some(1.0));
        }
        out.require(END_TO_END);
        assert!(!out.correct());
        let mut full = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            full.metric(name, Some(1.0));
        }
        full.require(END_TO_END);
        assert!(full.correct());
        let mut failing = full;
        failing.fail("one bad reply".into());
        assert!(!failing.correct());
    }

    /// The tables above and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn the_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = btr_wire::json::from_str(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_list)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("a string")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let code: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, code, "{key}");
        }
    }
}
