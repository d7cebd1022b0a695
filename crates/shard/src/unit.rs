//! Sweep partitioning: a [`SweepSpec`] describes one whole experiment, and
//! [`SweepSpec::plan_units`] splits it into self-contained [`UnitSpec`] work
//! units along three axes — benchmark × history-group × trace window.
//!
//! A unit ships *no trace bytes*: the coordinator generates each benchmark
//! once (generation is deterministic per `(Benchmark, SuiteConfig)`, pinned
//! by the workloads crate) and writes it as `BTRT` into the out dir, and
//! [`crate::OutDir::plan_bound`] binds every unit to its benchmark's file.
//! A spec can instead name one captured `BTRT` trace file
//! ([`SweepSpec::trace_file`]), which is how non-synthetic traces are swept.
//! Either way a bound unit decodes its trace through the columnar
//! [`btr_trace::FastBtrtReader`] fast path, so the partial it returns is
//! bit-identical wherever it runs. Only an unbound unit (straight from
//! [`SweepSpec::plan_units`]) regenerates its workload.

use crate::error::{Result, ShardError};
use btr_sim::config::PredictorFamily;
use btr_sim::engine::SimEngine;
use btr_sim::sweep::SweepResult;
use btr_trace::{read_interned_btrt, InternedTrace};
use btr_wire::{MapBuilder, Value, Wire, WireError};
use btr_workloads::{Benchmark, SuiteConfig};

/// One whole sharded sweep: the experiment every unit is a piece of.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Predictor family to sweep.
    pub family: PredictorFamily,
    /// History lengths, strictly increasing (so the merged result's order
    /// matches the sequential [`btr_sim::sweep::HistorySweep`] reference).
    pub histories: Vec<u32>,
    /// Benchmarks to simulate, in suite order.
    pub benchmarks: Vec<Benchmark>,
    /// Workload generation parameters shared by every unit.
    pub config: SuiteConfig,
    /// History lengths per unit: `histories` is chunked into groups of this
    /// size and each group is swept by its own fused predictor pass.
    pub history_group: usize,
    /// Trace windows per benchmark: each trace is split into this many
    /// contiguous windows simulated independently (with full-prefix warmup,
    /// so merged windows stay bit-identical to the sequential run).
    pub window_count: u32,
    /// Path to a shared `BTRT` trace file to sweep instead of generating
    /// the benchmark workload. Requires exactly one benchmark (the label the
    /// results are filed under); every worker must see the file at this path.
    pub trace_file: Option<String>,
}

impl SweepSpec {
    /// Validates the spec: non-empty axes, sorted unique histories within
    /// the family budget, positive partition parameters.
    pub fn validate(&self) -> Result<()> {
        validate_histories(self.family, &self.histories).map_err(ShardError::invalid_spec)?;
        if self.benchmarks.is_empty() {
            return Err(ShardError::invalid_spec("no benchmarks"));
        }
        if self.history_group == 0 {
            return Err(ShardError::invalid_spec("history_group must be positive"));
        }
        if self.window_count == 0 {
            return Err(ShardError::invalid_spec("window_count must be positive"));
        }
        if let Some(path) = &self.trace_file {
            if path.is_empty() {
                return Err(ShardError::invalid_spec("trace_file path is empty"));
            }
            if self.benchmarks.len() != 1 {
                return Err(ShardError::invalid_spec(
                    "trace_file sweeps exactly one trace, so exactly one benchmark label",
                ));
            }
        }
        Ok(())
    }

    /// The history groups, in order: `histories` chunked by `history_group`.
    fn history_groups(&self) -> Vec<Vec<u32>> {
        self.histories
            .chunks(self.history_group)
            .map(<[u32]>::to_vec)
            .collect()
    }

    /// Partitions the sweep into work units, ids assigned contiguously in
    /// (history-group, benchmark, window) order so each group's units are a
    /// contiguous id range and merge order is deterministic.
    pub fn plan_units(&self) -> Result<Vec<UnitSpec>> {
        self.validate()?;
        let mut units = Vec::new();
        for group in self.history_groups() {
            for benchmark in &self.benchmarks {
                for window_index in 0..self.window_count {
                    units.push(UnitSpec {
                        unit_id: units.len() as u32,
                        family: self.family,
                        histories: group.clone(),
                        benchmark: benchmark.clone(),
                        config: self.config,
                        window_index,
                        window_count: self.window_count,
                        trace_file: self.trace_file.clone(),
                    });
                }
            }
        }
        Ok(units)
    }
}

/// [`SweepSpec`] encodes every field verbatim; it is persisted inside the
/// manifest so `resume` needs nothing but the output directory.
impl Wire for SweepSpec {
    fn to_value(&self) -> Value {
        let mut builder = MapBuilder::new()
            .field("family", self.family.to_value())
            .field(
                "histories",
                Value::U64s(self.histories.iter().map(|h| u64::from(*h)).collect()),
            )
            .field(
                "benchmarks",
                Value::List(self.benchmarks.iter().map(Wire::to_value).collect()),
            )
            .field("config", self.config.to_value())
            .field("history_group", self.history_group as u64)
            .field("window_count", u64::from(self.window_count));
        // Encoded only when set, so manifests written before the field
        // existed decode unchanged.
        if let Some(path) = &self.trace_file {
            builder = builder.field("trace_file", path.as_str());
        }
        builder.build()
    }

    fn from_value(value: &Value) -> std::result::Result<Self, WireError> {
        let mut benchmarks = Vec::new();
        for entry in value.get("benchmarks")?.as_list()? {
            benchmarks.push(Benchmark::from_value(entry)?);
        }
        Ok(SweepSpec {
            family: PredictorFamily::from_value(value.get("family")?)?,
            histories: histories_from_value(value.get("histories")?)?,
            benchmarks,
            config: SuiteConfig::from_value(value.get("config")?)?,
            history_group: usize::try_from(value.get("history_group")?.as_u64()?)
                .map_err(|_| WireError::schema("history_group exceeds usize"))?,
            window_count: u32::try_from(value.get("window_count")?.as_u64()?)
                .map_err(|_| WireError::schema("window_count exceeds u32"))?,
            // Absent (as in specs written before the field) means generate.
            trace_file: (value.get_opt("trace_file")?)
                .map(|path| path.as_str().map(str::to_string))
                .transpose()?,
        })
    }
}

/// One self-contained work unit: a benchmark, a group of history lengths and
/// one trace window. Everything a worker needs to produce its partial.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSpec {
    /// Position in the sweep's unit list; names the checkpoint file and the
    /// partial's source label.
    pub unit_id: u32,
    /// Predictor family.
    pub family: PredictorFamily,
    /// The history lengths this unit sweeps (one group of the spec).
    pub histories: Vec<u32>,
    /// The benchmark whose trace this unit sweeps.
    pub benchmark: Benchmark,
    /// Workload generation parameters.
    pub config: SuiteConfig,
    /// Which of the trace's `window_count` contiguous windows to score.
    pub window_index: u32,
    /// Total windows the trace is split into (1 = whole trace).
    pub window_count: u32,
    /// The `BTRT` trace file the unit decodes: the spec's own
    /// ([`SweepSpec::trace_file`]) or, once bound by
    /// [`crate::OutDir::plan_bound`], its benchmark's generated trace. An
    /// unbound unit regenerates the benchmark instead.
    pub trace_file: Option<String>,
}

impl UnitSpec {
    /// The source label the unit's partial carries
    /// (see [`SweepResult::with_source`]).
    pub fn source_label(&self) -> String {
        format!("unit-{}", self.unit_id)
    }

    /// The `[start, end)` record range of window `index` when `len` records
    /// are split into `count` near-equal contiguous windows.
    pub fn window_bounds(len: usize, index: u32, count: u32) -> (usize, usize) {
        let len = len as u64;
        let (index, count) = (u64::from(index), u64::from(count.max(1)));
        let start = (len * index / count) as usize;
        let end = (len * (index + 1) / count) as usize;
        (start, end)
    }

    /// Executes the unit: obtain the trace (decode [`UnitSpec::trace_file`]
    /// through the `BTRT` fast path, or regenerate an unbound unit's
    /// benchmark), sweep this unit's history group over its window, and
    /// return the (unlabeled) partial.
    pub fn execute(&self) -> Result<SweepResult> {
        self.execute_over(&self.load_trace()?)
    }

    /// Sweeps this unit's history group over its window of `trace`.
    ///
    /// The window `[start, end)` is one [`SimEngine::run_prefix`] over the
    /// trace's first `end` records, borrowed in place, with the engine
    /// warmup set to `start`: the fused predictor trains on `[0, start)` and
    /// scores `[start, end)` — exactly what a full-prefix warmup window does,
    /// in one pass for the whole history group. One window is simply
    /// `start = 0, end = len`. Merging every unit of a sweep reproduces the
    /// sequential result bit for bit (pinned by `tests/fault_convergence.rs`).
    pub(crate) fn execute_over(&self, trace: &InternedTrace) -> Result<SweepResult> {
        validate_histories(self.family, &self.histories).map_err(ShardError::invalid_spec)?;
        let (start, end) =
            UnitSpec::window_bounds(trace.len(), self.window_index, self.window_count);
        let results = SimEngine::new().with_warmup(start as u64).run_prefix(
            trace,
            end,
            &mut self.family.fused_paper(&self.histories),
        );
        let parts = self.histories.iter().copied().zip(results).collect();
        Ok(SweepResult::from_parts(self.family, parts))
    }

    /// The unit's interned trace: decoded from [`UnitSpec::trace_file`] via
    /// the columnar fast path when set, regenerated from the benchmark
    /// descriptors otherwise. Both routes intern with first-appearance ids,
    /// so results are bit-identical for identical record streams.
    pub(crate) fn load_trace(&self) -> Result<InternedTrace> {
        match &self.trace_file {
            Some(path) => {
                let (_metadata, interned) = read_interned_btrt(path).map_err(|e| {
                    ShardError::io(
                        format!("decoding trace file {path}"),
                        std::io::Error::other(e.to_string()),
                    )
                })?;
                Ok(interned)
            }
            None => Ok(self.benchmark.generate(&self.config).intern()),
        }
    }
}

/// The history rules every spec and unit obeys: non-empty, strictly
/// increasing (so merged results come out in sweep order) and each within
/// the family's budget (so building the predictor cannot fail).
fn validate_histories(
    family: PredictorFamily,
    histories: &[u32],
) -> std::result::Result<(), String> {
    if histories.is_empty() {
        return Err("no history lengths".to_string());
    }
    if !histories.windows(2).all(|w| w[0] < w[1]) {
        return Err("history lengths must be strictly increasing".to_string());
    }
    match histories.iter().find(|h| **h > family.max_history()) {
        Some(h) => Err(format!(
            "history length {h} exceeds the {} budget",
            family.label()
        )),
        None => Ok(()),
    }
}

fn histories_from_value(value: &Value) -> std::result::Result<Vec<u32>, WireError> {
    value
        .as_u64_seq()?
        .into_iter()
        .map(|h| u32::try_from(h).map_err(|_| WireError::schema("history length exceeds u32")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            family: PredictorFamily::PAs,
            histories: vec![0, 1, 2, 4],
            benchmarks: vec![Benchmark::compress(), Benchmark::li()],
            config: SuiteConfig::default().with_scale(2e-7),
            history_group: 3,
            window_count: 2,
            trace_file: None,
        }
    }

    #[test]
    fn planning_partitions_all_three_axes() {
        let units = small_spec().plan_units().expect("spec is valid");
        // 2 history groups ({0,1,2} and {4}) × 2 benchmarks × 2 windows.
        assert_eq!(units.len(), 8);
        assert_eq!(units[0].histories, vec![0, 1, 2]);
        assert_eq!(units[7].histories, vec![4]);
        for (i, unit) in units.iter().enumerate() {
            assert_eq!(unit.unit_id, i as u32);
        }
        // Each group's units are contiguous.
        assert!(units[..4].iter().all(|u| u.histories.len() == 3));
        assert!(units[4..].iter().all(|u| u.histories == vec![4]));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = small_spec();
        spec.histories = vec![2, 2];
        assert!(spec.plan_units().is_err(), "duplicate histories rejected");
        let mut spec = small_spec();
        spec.window_count = 0;
        assert!(spec.plan_units().is_err(), "zero windows rejected");
        let mut spec = small_spec();
        spec.histories = vec![99];
        assert!(spec.plan_units().is_err(), "over-budget history rejected");
    }

    #[test]
    fn window_bounds_cover_the_trace_exactly() {
        for (len, count) in [(0usize, 3u32), (1, 3), (10, 3), (1000, 7), (5, 5)] {
            let mut covered = 0;
            for i in 0..count {
                let (start, end) = UnitSpec::window_bounds(len, i, count);
                assert_eq!(start, covered, "len={len} count={count} window={i}");
                assert!(end >= start);
                covered = end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn specs_roundtrip_on_the_wire() {
        let spec = small_spec();
        assert_eq!(
            SweepSpec::from_btrw(&spec.to_btrw()).expect("sweep spec decodes"),
            spec
        );
    }
}
