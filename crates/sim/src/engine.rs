//! The trace → predictor simulation engine.
//!
//! [`SimEngine`] has five entry points, one per caller:
//!
//! * [`SimEngine::run`] — the `dyn` path: virtual predict-then-update calls
//!   and an address-keyed map per record. It takes any predictor (the hybrid
//!   ablation and the examples use it) and is the oracle the faster paths
//!   are pinned against.
//! * [`SimEngine::run_fused`] — the scalar fused tier: every history length
//!   of one family from a single pass over an [`InternedTrace`]. The
//!   sequential [`crate::sweep::HistorySweep`] reference runs on it.
//! * [`SimEngine::run_fused_streamed`] — the same sweep from a
//!   [`ChunkStream`], without materialising the trace (`btrd`'s streamed
//!   `/sweep`).
//! * [`SimEngine::run_batch`] — the planner: each lane, one fused predictor
//!   over one trace, runs on its own, on the bit-sliced SWAR tier when it
//!   fits and on [`SimEngine::run_fused`] otherwise (`btrd`'s materialized
//!   `/sweep`, the suite runner and every `btr-shard` unit).
//! * [`SimEngine::run_window_dispatch`] — one window of a trace on a fresh
//!   [`DispatchPredictor`] after a warmup replay ([`WarmupWindow`]); the
//!   suite runner's per-predictor windowed path. Over the full range with
//!   [`WarmupWindow::FullPrefix`] it is the monomorphized per-predictor
//!   reference the fused tiers are tested against.
//!
//! Every path but [`SimEngine::run`] reads one record layout: the
//! conditional columns of [`btr_trace::ConditionalColumns`] (address, dense
//! id, outcome — 13 B per record), borrowed as a [`ConditionalView`] from an
//! [`InternedTrace`] or straight from each streamed chunk, and cut into
//! blocks with [`ConditionalView::slice`]. Every path is bit-identical to
//! the others where they overlap; the equivalence suites under `tests/` pin
//! it.

use crate::config::WarmupWindow;
use btr_core::analysis::{miss_map_from_value, miss_map_to_value, BranchMissMap, DenseMissTable};
use btr_predictors::dispatch::DispatchPredictor;
use btr_predictors::fused::FusedSweepPredictor;
use btr_predictors::predictor::{BranchPredictor, PredictionStats};
use btr_predictors::swar::{self, CounterLut, SwarScratch};
use btr_trace::{BranchAddr, ChunkStream, ConditionalView, InternedTrace, Trace};
use btr_wire::{MapBuilder, Value, Wire, WireError};

/// Number of records per [`FusedBlock`] in the fused engine paths: small
/// enough that the block scratch plus one slot's PHT plus one slot's hit row
/// stay cache-resident during a replay phase, large enough to amortise the
/// per-block slot-phase setup.
const FUSED_BLOCK_RECORDS: usize = 512;

/// One lane of a [`SimEngine::run_batch`] call: a fused sweep predictor
/// bound (by index) to the batch trace it replays.
#[derive(Debug, Clone)]
pub struct BatchLane {
    /// Index into the batch's trace slice.
    pub trace_index: usize,
    /// The lane's fused predictor (fresh state; trained by the run).
    pub fused: FusedSweepPredictor,
}

impl BatchLane {
    /// A lane replaying `traces[trace_index]` with `fused`.
    pub fn new(trace_index: usize, fused: FusedSweepPredictor) -> Self {
        BatchLane { trace_index, fused }
    }
}

/// Drives `records` through a fused predictor on the SWAR tier, block by
/// block: one first-level pass per block
/// ([`FusedSweepPredictor::load_swar_block`]), then every slot replays it
/// through the two-phase SWAR kernel ([`FusedSweepPredictor::replay_swar`]).
/// Warmup handling matches [`drive_fused_blocks`]: blocks are split at the
/// warmup boundary, warm blocks train without scoring.
///
/// The replay ORs each slot's hit bits into a per-record hit-lane column
/// (sequential stores — the counter pass carries no random writes);
/// [`swar::drain_hit_lanes`] then folds the column once per block into
/// id-major `u16` staging, flushed into the wide accumulator before
/// [`swar::MAX_STAGED_RECORDS`] scored records accumulate (one id could hit
/// every record, so that bound keeps staging within `u16`).
fn drive_swar_blocks(
    fused: &mut FusedSweepPredictor,
    records: ConditionalView<'_>,
    warmup: u64,
    acc: &mut FusedMissAccumulator,
) {
    let lut = CounterLut::new();
    let mut block = fused.new_swar_block(FUSED_BLOCK_RECORDS);
    // Packed-word kernel buffer, one allocation reused across every block.
    let mut scratch = SwarScratch::new();
    // Per-record hit-mask column; each drain re-zeroes it for the next block.
    let mut hit_lanes = vec![0u64; FUSED_BLOCK_RECORDS];
    // Id-major hit staging: slot `s` of id `d` accumulates at
    // `staged[d * stride + s]`.
    let stride = swar::hit_stage_stride(fused.slot_count());
    let mut staged = vec![0u16; acc.lookups.len() * stride];
    let mut staged_records = 0usize;
    let mut offset = 0usize;
    while offset < records.len() {
        let pos = offset as u64;
        let end = block_end(offset, records.len(), pos, warmup);
        let batch = records.slice(offset..end);
        fused.load_swar_block(
            batch.iter().map(|(addr, id, outcome)| (addr, outcome, id)),
            &mut block,
        );
        if pos >= warmup {
            if staged_records + batch.len() > swar::MAX_STAGED_RECORDS {
                flush_swar_stage(acc, stride, &mut staged);
                staged_records = 0;
            }
            staged_records += batch.len();
            for &id in batch.ids() {
                acc.lookups[id as usize] += 1;
            }
            fused.replay_swar(&block, &lut, Some(&mut hit_lanes), &mut scratch);
            swar::drain_hit_lanes(&block, &mut hit_lanes, stride, &mut staged);
        } else {
            fused.replay_swar(&block, &lut, None, &mut scratch);
        }
        offset = end;
    }
    flush_swar_stage(acc, stride, &mut staged);
}

/// The end of the block starting at `offset` (absolute stream position
/// `pos`) in a run of `len` records: at most [`FUSED_BLOCK_RECORDS`] long,
/// and cut at the warmup boundary so a block is either fully trained-only or
/// fully scored.
fn block_end(offset: usize, len: usize, pos: u64, warmup: u64) -> usize {
    let end = offset + FUSED_BLOCK_RECORDS.min(len - offset);
    if pos < warmup {
        let to_boundary = usize::try_from(warmup - pos).unwrap_or(usize::MAX);
        end.min(offset.saturating_add(to_boundary))
    } else {
        end
    }
}

/// Adds every staged hit count into the wide accumulator rows and clears
/// the staging.
fn flush_swar_stage(acc: &mut FusedMissAccumulator, stride: usize, staged: &mut [u16]) {
    for (id, row) in staged.chunks_exact(stride).enumerate() {
        for (acc_row, &count) in acc.hits.iter_mut().zip(row.iter()) {
            acc_row[id] += u64::from(count);
        }
    }
    staged.fill(0);
}

/// Per-(branch, history-slot) statistics accumulator for the fused sweep
/// paths.
///
/// Every history slot of a fused run scores every record, so the per-id
/// lookup count is *shared* across slots and stored once; only the hit counts
/// differ per slot. Hit rows are slot-major — a slot's replay phase updates
/// one contiguous per-id row, matching the blocked replay's access pattern.
#[derive(Debug, Clone)]
struct FusedMissAccumulator {
    /// Per-id lookup counts (identical for every slot).
    lookups: Vec<u64>,
    /// Per-slot, per-id hit counts.
    hits: Vec<Vec<u64>>,
}

impl FusedMissAccumulator {
    fn new(slots: usize, static_count: usize) -> Self {
        FusedMissAccumulator {
            lookups: vec![0; static_count],
            hits: vec![vec![0; static_count]; slots],
        }
    }

    /// Grows every row so ids `0 .. static_count` are valid (the streamed
    /// path discovers static branches incrementally).
    fn grow_to(&mut self, static_count: usize) {
        if static_count > self.lookups.len() {
            self.lookups.resize(static_count, 0);
            for row in &mut self.hits {
                row.resize(static_count, 0);
            }
        }
    }

    /// Splits the accumulator into one per-slot [`RunResult`], in slot order.
    fn into_results(self, addrs: &[BranchAddr]) -> Vec<RunResult> {
        self.hits
            .into_iter()
            .map(|row| {
                let stats: Vec<PredictionStats> = self
                    .lookups
                    .iter()
                    .zip(row)
                    .map(|(&lookups, hits)| PredictionStats { lookups, hits })
                    .collect();
                result_from_dense(DenseMissTable::from_stats(stats), addrs)
            })
            .collect()
    }
}

/// Folds a dense per-id statistics table into a [`RunResult`], computing the
/// overall statistics as the table's column sums (exact, since every scored
/// record lands in the table) and resolving ids through `addrs`. Shared by
/// every dense-table path (fused, windowed-merge) so they cannot drift
/// apart; public so callers of [`SimEngine::run_window_dispatch`] fold their
/// partials through the same code.
pub fn result_from_dense(dense: DenseMissTable, addrs: &[BranchAddr]) -> RunResult {
    let mut overall = PredictionStats::new();
    for stats in dense.stats() {
        overall.merge(stats);
    }
    RunResult {
        overall,
        per_branch: dense.into_map(addrs),
    }
}

/// Drives `records` through a fused predictor block by block: load a block
/// (advancing the shared history registers and capturing pre-push patterns),
/// then replay every history slot's PHT over it in a cache-resident phase.
///
/// `start_pos` is the absolute stream position of the first record; the
/// record at absolute position `p` is scored only when `p >= warmup` (see
/// [`block_end`]).
fn drive_fused_blocks(
    fused: &mut FusedSweepPredictor,
    block: &mut btr_predictors::fused::FusedBlock,
    records: ConditionalView<'_>,
    start_pos: u64,
    warmup: u64,
    acc: &mut FusedMissAccumulator,
) {
    let mut offset = 0usize;
    while offset < records.len() {
        let pos = start_pos + offset as u64;
        let end = block_end(offset, records.len(), pos, warmup);
        let batch = records.slice(offset..end);
        fused.load_block(
            batch.iter().map(|(addr, _, outcome)| (addr, outcome)),
            block,
        );
        if pos >= warmup {
            for &id in batch.ids() {
                acc.lookups[id as usize] += 1;
            }
            for slot in 0..fused.slot_count() {
                fused.replay_slot_scored(slot, block, batch.ids(), &mut acc.hits[slot]);
            }
        } else {
            // Warmup block: train every slot, record nothing.
            for slot in 0..fused.slot_count() {
                fused.replay_slot(slot, block, |_, _| {});
            }
        }
        offset = end;
    }
}

/// The result of running one predictor over one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Aggregate hit/miss statistics over the whole trace.
    pub overall: PredictionStats,
    /// Per-static-branch hit/miss statistics.
    pub per_branch: BranchMissMap,
}

impl RunResult {
    /// Overall miss rate, or `None` for an empty run.
    pub fn miss_rate(&self) -> Option<f64> {
        self.overall.miss_rate()
    }

    /// Merges another run result into this one (used to aggregate a suite of
    /// benchmarks simulated with separate predictor instances, as the paper
    /// does).
    pub fn merge(&mut self, other: &RunResult) {
        self.overall.merge(&other.overall);
        for (addr, stats) in &other.per_branch {
            self.per_branch.entry(*addr).or_default().merge(stats);
        }
    }
}

/// [`RunResult`] encodes its overall statistics plus the per-branch miss map
/// in columnar form, so persisted partials can be re-merged exactly.
impl Wire for RunResult {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("overall", self.overall.to_value())
            .field("per_branch", miss_map_to_value(&self.per_branch))
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let result = RunResult {
            overall: PredictionStats::from_value(value.get("overall")?)?,
            per_branch: miss_map_from_value(value.get("per_branch")?)?,
        };
        // `overall` is derivable: every engine path computes it as the
        // per-branch column sums (see `result_from_dense`), so decode
        // re-validates rather than trusts — a tampered partial whose suite
        // statistics disagree with its per-branch data must not merge.
        let mut expected = PredictionStats::new();
        for stats in result.per_branch.values() {
            expected.merge(stats);
        }
        if expected != result.overall {
            return Err(WireError::schema(format!(
                "overall statistics ({}/{} hits/lookups) do not match the \
                 per-branch sums ({}/{})",
                result.overall.hits, result.overall.lookups, expected.hits, expected.lookups
            )));
        }
        Ok(result)
    }
}

/// Drives conditional branches of a trace through a predictor using the
/// standard predict-then-update protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimEngine {
    /// Number of initial conditional branches whose outcomes train the
    /// predictor but are excluded from the statistics (0 by default; the
    /// paper runs benchmarks to completion so cold-start effects wash out).
    pub warmup: u64,
}

impl SimEngine {
    /// Creates an engine with no warm-up exclusion.
    pub fn new() -> Self {
        SimEngine { warmup: 0 }
    }

    /// Sets the number of initial conditional branches excluded from the
    /// reported statistics.
    #[must_use]
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Runs the predictor over every conditional branch of the trace.
    ///
    /// This is the compatibility path: virtual predict/update calls and an
    /// address-keyed map per record. Prefer [`SimEngine::run_batch`] for
    /// sweeps — it is many times faster and produces bit-identical results.
    pub fn run(&self, trace: &Trace, predictor: &mut dyn BranchPredictor) -> RunResult {
        let mut result = RunResult::default();
        let mut seen = 0u64;
        for record in trace.conditional_records() {
            let hit = predictor.predict(record.addr()) == record.outcome();
            predictor.update(record.addr(), record.outcome());
            seen += 1;
            if seen <= self.warmup {
                continue;
            }
            result.overall.record(hit);
            result
                .per_branch
                .entry(record.addr())
                .or_default()
                .record(hit);
        }
        result
    }

    /// Runs a fused multi-history predictor over an interned trace, producing
    /// one [`RunResult`] per history slot (in `fused.histories()` order) from
    /// a **single** trace traversal.
    ///
    /// This is the sweep hot path: where a per-history sweep walks the trace
    /// once per history length, the fused run drives every slot's pattern
    /// table from one shared history register read per record (see
    /// [`FusedSweepPredictor`]), so the whole history curve costs one pass.
    /// Results are bit-identical to one full-range
    /// [`SimEngine::run_window_dispatch`] per history length with the
    /// standalone paper predictor — pinned by `tests/fused_equivalence.rs`.
    ///
    /// The engine's warmup exclusion applies to every slot identically, just
    /// as it would to each standalone run.
    pub fn run_fused(
        &self,
        trace: &InternedTrace,
        fused: &mut FusedSweepPredictor,
    ) -> Vec<RunResult> {
        let mut acc = FusedMissAccumulator::new(fused.slot_count(), trace.static_count());
        let mut block = fused.new_block(FUSED_BLOCK_RECORDS);
        drive_fused_blocks(fused, &mut block, trace.records(), 0, self.warmup, &mut acc);
        acc.into_results(trace.addrs())
    }

    /// Runs each lane's fused sweep over its trace — up to
    /// [`MAX_FUSED_SLOTS`] history slots per lane — returning one
    /// `Vec<RunResult>` per lane (slot order), in lane order.
    ///
    /// Every lane runs on its own. A lane replays on the bit-sliced SWAR
    /// tier when its geometry and its trace's static-branch count fit it
    /// ([`FusedSweepPredictor::swar_ready`]), and on the scalar
    /// [`SimEngine::run_fused`] path otherwise. Either way its results — and
    /// its final predictor state — are bit-identical to a standalone
    /// [`SimEngine::run_fused`] of that lane over its trace (pinned by
    /// `tests/batch_equivalence.rs`); the tier choice is purely a
    /// performance decision. The engine's warmup exclusion applies per
    /// trace, exactly as in [`SimEngine::run_fused`].
    ///
    /// [`MAX_FUSED_SLOTS`]: btr_predictors::fused::MAX_FUSED_SLOTS
    ///
    /// # Panics
    ///
    /// Panics if a lane's `trace_index` is outside `traces`.
    pub fn run_batch(
        &self,
        traces: &[&InternedTrace],
        lanes: Vec<BatchLane>,
    ) -> Vec<Vec<RunResult>> {
        lanes
            .into_iter()
            .map(|lane| {
                let trace = traces[lane.trace_index];
                let mut fused = lane.fused;
                if fused.swar_ready(trace.static_count()) {
                    let mut acc =
                        FusedMissAccumulator::new(fused.slot_count(), trace.static_count());
                    drive_swar_blocks(&mut fused, trace.records(), self.warmup, &mut acc);
                    acc.into_results(trace.addrs())
                } else {
                    self.run_fused(trace, &mut fused)
                }
            })
            .collect()
    }

    /// [`SimEngine::run_fused`] over a [`ChunkStream`]: the whole history
    /// curve from **one** chunked decode pass, without materialising the
    /// trace (peak memory is one chunk plus the per-slot tables). Consumed
    /// chunks are recycled back to the stream, so a recycling reader (e.g.
    /// [`btr_trace::FastBtrtReader`]) streams with zero per-chunk allocation.
    ///
    /// The chunks must arrive in stream order with ids assigned by one
    /// persistent interner (what [`btr_trace::ChunkedTraceReader`] and
    /// [`btr_trace::FastBtrtReader`] produce); the per-id accumulator grows
    /// with the stream's [`ChunkStream::addrs`] table. Results are bit-identical to the eager
    /// [`SimEngine::run_fused`] over the same records — pinned by
    /// `tests/fused_equivalence.rs`.
    ///
    /// # Errors
    ///
    /// Propagates the first decode error the chunk stream yields.
    pub fn run_fused_streamed<S>(
        &self,
        mut chunks: S,
        fused: &mut FusedSweepPredictor,
    ) -> btr_trace::Result<Vec<RunResult>>
    where
        S: ChunkStream,
    {
        let mut acc = FusedMissAccumulator::new(fused.slot_count(), 0);
        let mut block = fused.new_block(FUSED_BLOCK_RECORDS);
        let mut seen = 0u64;
        while let Some(chunk) = chunks.pull() {
            let chunk = chunk?;
            let conditional = chunk.conditional();
            acc.grow_to(chunks.addrs().len());
            drive_fused_blocks(fused, &mut block, conditional, seen, self.warmup, &mut acc);
            seen += conditional.len() as u64;
            chunks.recycle(chunk);
        }
        Ok(acc.into_results(chunks.addrs()))
    }

    /// The monomorphized body of [`SimEngine::run_window_dispatch`].
    fn run_window<P: BranchPredictor>(
        &self,
        trace: &InternedTrace,
        predictor: &mut P,
        start: usize,
        end: usize,
        warmup_window: WarmupWindow,
    ) -> DenseMissTable {
        let records = trace.records();
        let end = end.min(records.len());
        let start = start.min(end);
        for (addr, _, outcome) in records.slice(warmup_window.warm_start(start)..start).iter() {
            predictor.access(addr, outcome);
        }
        let mut dense = DenseMissTable::new(trace.static_count());
        for (offset, (addr, id, outcome)) in records.slice(start..end).iter().enumerate() {
            let hit = predictor.access(addr, outcome);
            if ((start + offset) as u64) < self.warmup {
                continue;
            }
            dense.record(id, hit);
        }
        dense
    }

    /// Simulates one window `[start, end)` of an interned trace on a fresh
    /// predictor, replaying a warmup region first, and returns the window's
    /// per-id statistics partial (merge partials with
    /// [`DenseMissTable::merge`], fold them with [`result_from_dense`]). The
    /// concrete family is selected once per window, so the record loop is
    /// monomorphized.
    ///
    /// The predictor is trained on `[warmup_window.warm_start(start), start)`
    /// without recording statistics, then scored on `[start, end)`. With
    /// [`WarmupWindow::FullPrefix`] the predictor enters the scored region in
    /// exactly the sequential state, so merging all window partials is
    /// bit-identical to one sequential run. The engine's own
    /// [`SimEngine::warmup`] exclusion applies to *absolute* record indices,
    /// so it composes with windowing exactly as in the sequential paths.
    ///
    /// Out-of-range bounds are clamped to the trace length.
    pub fn run_window_dispatch(
        &self,
        trace: &InternedTrace,
        predictor: &mut DispatchPredictor,
        start: usize,
        end: usize,
        warmup_window: WarmupWindow,
    ) -> DenseMissTable {
        match predictor {
            DispatchPredictor::TwoLevel(p) => self.run_window(trace, p, start, end, warmup_window),
            DispatchPredictor::Gshare(p) => self.run_window(trace, p, start, end, warmup_window),
            DispatchPredictor::Bimodal(p) => self.run_window(trace, p, start, end, warmup_window),
            DispatchPredictor::Static(p) => self.run_window(trace, p, start, end, warmup_window),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorKind;
    use btr_trace::{BranchAddr, BranchRecord, Outcome, TraceBuilder};

    fn alternating_trace(n: u32) -> Trace {
        let mut b = TraceBuilder::new("alt");
        let addr = BranchAddr::new(0x1000);
        for i in 0..n {
            b.push(BranchRecord::conditional(
                addr,
                Outcome::from_bool(i % 2 == 0),
            ));
        }
        b.build()
    }

    #[test]
    fn static_taken_scores_exactly_the_taken_fraction() {
        let mut b = TraceBuilder::new("biased");
        let addr = BranchAddr::new(0x2000);
        for i in 0..100u32 {
            b.push(BranchRecord::conditional(
                addr,
                Outcome::from_bool(i % 10 != 0),
            ));
        }
        let trace = b.build();
        let result = SimEngine::new().run(&trace, &mut *PredictorKind::StaticTaken.build());
        assert_eq!(result.overall.lookups, 100);
        assert_eq!(result.overall.hits, 90);
        assert!((result.miss_rate().unwrap() - 0.10).abs() < 1e-12);
        assert_eq!(result.per_branch.len(), 1);
    }

    #[test]
    fn pas_with_history_beats_zero_history_on_alternation() {
        let trace = alternating_trace(2000);
        let engine = SimEngine::new();
        let with_history = engine.run(&trace, &mut *PredictorKind::PAsPaper { history: 2 }.build());
        let without = engine.run(&trace, &mut *PredictorKind::PAsPaper { history: 0 }.build());
        assert!(with_history.miss_rate().unwrap() < 0.1);
        assert!(without.miss_rate().unwrap() > 0.4);
    }

    #[test]
    fn warmup_excludes_initial_branches_from_statistics() {
        let trace = alternating_trace(1000);
        let engine = SimEngine::new().with_warmup(500);
        let result = engine.run(&trace, &mut *PredictorKind::PAsPaper { history: 2 }.build());
        assert_eq!(result.overall.lookups, 500);
        // After warm-up the alternating pattern is learned almost perfectly.
        assert!(result.miss_rate().unwrap() < 0.02);
    }

    #[test]
    fn merge_combines_per_branch_statistics() {
        let t1 = alternating_trace(100);
        let mut t2_builder = TraceBuilder::new("other");
        t2_builder.push(BranchRecord::conditional(
            BranchAddr::new(0x9000),
            Outcome::Taken,
        ));
        let t2 = t2_builder.build();
        let engine = SimEngine::new();
        let mut a = engine.run(&t1, &mut *PredictorKind::StaticTaken.build());
        let b = engine.run(&t2, &mut *PredictorKind::StaticTaken.build());
        a.merge(&b);
        assert_eq!(a.overall.lookups, 101);
        assert_eq!(a.per_branch.len(), 2);
    }

    /// A trace mixing biased, alternating and pseudo-random branches over
    /// many addresses, exercising BHT/PHT aliasing on every path.
    fn mixed_trace(n: u32) -> Trace {
        let mut b = TraceBuilder::new("mixed");
        let mut state = 0x0123_4567_89ab_cdefu64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = BranchAddr::new(0x40_0000 + ((state >> 45) & 0xff) * 4);
            let taken = match i % 3 {
                0 => i % 2 == 0,
                1 => true,
                _ => (state >> 33) & 1 == 1,
            };
            b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
        }
        b.build()
    }

    /// A full-range [`SimEngine::run_window_dispatch`] folded into a
    /// [`RunResult`]: the monomorphized per-predictor reference.
    fn run_full_window(engine: SimEngine, trace: &InternedTrace, kind: PredictorKind) -> RunResult {
        let mut predictor = kind.build_dispatch();
        let dense = engine.run_window_dispatch(
            trace,
            &mut predictor,
            0,
            trace.len(),
            WarmupWindow::FullPrefix,
        );
        result_from_dense(dense, trace.addrs())
    }

    #[test]
    fn interned_and_dispatch_paths_match_dyn_path_bit_for_bit() {
        let trace = mixed_trace(5000);
        let interned = trace.intern();
        let engine = SimEngine::new();
        for kind in [
            PredictorKind::PAsPaper { history: 8 },
            PredictorKind::PAsPaper { history: 0 },
            PredictorKind::GAsPaper { history: 12 },
            PredictorKind::Gshare { history: 10 },
            PredictorKind::Bimodal { index_bits: 12 },
            PredictorKind::StaticTaken,
            PredictorKind::StaticNotTaken,
        ] {
            let via_dyn = engine.run(&trace, &mut *kind.build());
            let via_dispatch = run_full_window(engine, &interned, kind);
            assert_eq!(via_dyn, via_dispatch, "{} diverged", kind.label());
            // And the generic path with a concrete predictor agrees too.
            if let PredictorKind::GAsPaper { history } = kind {
                let mut concrete = btr_predictors::twolevel::TwoLevelPredictor::gas_paper(history);
                let len = interned.len();
                let dense =
                    engine.run_window(&interned, &mut concrete, 0, len, WarmupWindow::FullPrefix);
                assert_eq!(via_dyn, result_from_dense(dense, interned.addrs()));
            }
        }
    }

    #[test]
    fn warmup_is_identical_across_paths() {
        let trace = mixed_trace(2000);
        let interned = trace.intern();
        for warmup in [0, 1, 500, 1999, 2000, 5000] {
            let engine = SimEngine::new().with_warmup(warmup);
            let kind = PredictorKind::PAsPaper { history: 4 };
            let via_dyn = engine.run(&trace, &mut *kind.build());
            let via_fast = run_full_window(engine, &interned, kind);
            assert_eq!(via_dyn, via_fast, "warmup {warmup} diverged");
        }
    }

    #[test]
    fn empty_trace_produces_empty_result() {
        let trace = TraceBuilder::new("empty").build();
        let kind = PredictorKind::GAsPaper { history: 4 };
        let result = SimEngine::new().run(&trace, &mut *kind.build());
        assert_eq!(result.overall.lookups, 0);
        assert_eq!(result.miss_rate(), None);
        assert!(result.per_branch.is_empty());
        let fast = run_full_window(SimEngine::new(), &trace.intern(), kind);
        assert_eq!(result, fast);
    }
}
