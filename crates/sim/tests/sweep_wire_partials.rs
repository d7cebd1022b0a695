//! Persisted sweep partials re-merge bit-identically.
//!
//! The sharded-sweep workflow this pins: split a benchmark suite across
//! workers, run the same [`HistorySweep`] on each shard, persist each
//! worker's [`SweepResult`] through a wire format, then decode and
//! [`SweepResult::merge`] the partials. Because prediction statistics are
//! plain hit/lookup counters and each benchmark gets a fresh predictor
//! instance, the merged result must equal — `==`, not approximately — the
//! sweep run in one process over the whole suite, through either codec and
//! any sharding.

use btr_sim::config::PredictorFamily;
use btr_sim::experiments::ExperimentContext;
use btr_sim::sweep::{HistorySweep, SweepResult};
use btr_trace::InternedTrace;
use btr_wire::Wire;
use btr_workloads::spec::{Benchmark, SuiteConfig};

fn suite_traces() -> Vec<InternedTrace> {
    let config = SuiteConfig::default().with_scale(4e-6).with_seed(11);
    [Benchmark::compress(), Benchmark::li(), Benchmark::vortex()]
        .iter()
        .map(|b| b.generate(&config).intern())
        .collect()
}

#[test]
fn btrw_persisted_partials_remerge_bit_identically() {
    let traces = suite_traces();
    let refs: Vec<&InternedTrace> = traces.iter().collect();
    for family in [PredictorFamily::PAs, PredictorFamily::GAs] {
        let sweep = HistorySweep::new(family, vec![0, 2, 4]);
        let joint = sweep.run(&refs);

        // Shard 1 benchmark / 2 benchmarks, persist each partial as BTRW
        // bytes, decode, merge.
        let mut shards = vec![sweep.run(&refs[..1]), sweep.run(&refs[1..])];
        let mut merged: Option<SweepResult> = None;
        for shard in shards.drain(..) {
            let bytes = shard.to_btrw();
            let decoded = SweepResult::from_btrw(&bytes).expect("partial must decode");
            assert_eq!(decoded, shard, "persistence must be lossless");
            match merged.as_mut() {
                None => merged = Some(decoded),
                Some(acc) => acc.merge(&decoded),
            }
        }
        assert_eq!(
            merged.unwrap(),
            joint,
            "{} partials must re-merge bit-identically",
            family.label()
        );
    }
}

#[test]
fn json_persisted_partials_remerge_bit_identically() {
    let traces = suite_traces();
    let refs: Vec<&InternedTrace> = traces.iter().collect();
    let sweep = HistorySweep::new(PredictorFamily::PAs, vec![0, 4]);
    let joint = sweep.run(&refs);

    // One partial per benchmark this time, shipped as JSON text.
    let mut merged: Option<SweepResult> = None;
    for trace in &traces {
        let text = sweep.run(&[trace]).to_json().expect("encodable");
        let decoded = SweepResult::from_json(&text).expect("partial must decode");
        match merged.as_mut() {
            None => merged = Some(decoded),
            Some(acc) => acc.merge(&decoded),
        }
    }
    assert_eq!(merged.unwrap(), joint);
}

#[test]
fn grid_runner_sweeps_also_persist_losslessly() {
    // The work-stealing grid produces SweepResults via from_parts; those
    // must persist exactly too (they are what the serving layer will ship).
    let ctx = ExperimentContext {
        suite: SuiteConfig::default().with_scale(4e-6).with_seed(11),
        benchmarks: vec![Benchmark::compress(), Benchmark::li()],
        threads: 2,
        ..ExperimentContext::quick()
    };
    let (interned, _) = ctx.intern_suite();
    let result = ctx.run_sweep_interned(&interned, PredictorFamily::GAs, &[0, 2, 4]);
    assert_eq!(SweepResult::from_btrw(&result.to_btrw()).unwrap(), result);
    assert_eq!(
        SweepResult::from_json(&result.to_json().unwrap()).unwrap(),
        result
    );
}
