//! The trace → predictor simulation engine.
//!
//! [`SimEngine`] has six entry points, one per caller:
//!
//! * [`SimEngine::run`] — one predictor over a whole [`InternedTrace`],
//!   generic over the predictor so the record loop is monomorphized for a
//!   concrete type (a `&mut dyn BranchPredictor` works too). The hybrid
//!   ablation and the examples use it.
//! * [`SimEngine::run_fused`] — the scalar fused tier alone: every history
//!   length of one family from a single pass over an [`InternedTrace`]. The
//!   sequential [`crate::sweep::HistorySweep`] reference runs on it.
//! * [`SimEngine::run_fused_streamed`] — the same sweep from a
//!   [`ChunkStream`], without materialising the trace (`btrd`'s `/sweep`);
//!   [`SimEngine::run_batch`], one sweep per interned-trace lane (the suite
//!   runner); and [`SimEngine::run_prefix`], one lane over a borrowed
//!   prefix of a trace (every `btr-shard` unit). All three feed one planned
//!   driver that runs the bit-sliced SWAR tier while the sweep fits it and
//!   the scalar fused tier after. The streamed sweep alone runs on more than
//!   one thread: given a width above 1 it cuts the history slots into
//!   contiguous groups, keeps the decoder and group 0 on the calling thread
//!   and replays every other group on a scoped helper, one chunk behind the
//!   decoder. `run_batch` and `run_prefix` stay single-threaded; their
//!   callers parallelise across lanes and units.
//! * [`SimEngine::run_window_dispatch`] — one window of a trace on a fresh
//!   [`DispatchPredictor`] after a warmup replay ([`WarmupWindow`]). Over
//!   the full range it is the monomorphized per-predictor reference the
//!   fused tiers are tested against.
//!
//! Every path reads one record layout: the conditional columns of
//! [`btr_trace::ConditionalColumns`] (address, dense id, outcome — 13 B per
//! record), borrowed as a [`ConditionalView`] from an [`InternedTrace`] or
//! straight from each streamed chunk, and cut into blocks with
//! [`ConditionalView::slice`]. Every path is bit-identical to the others
//! where they overlap, and to a `dyn` predict-then-update oracle over
//! [`btr_trace::Trace`] rows kept in this module's tests; the equivalence
//! suites under `tests/` pin the rest.

use crate::config::WarmupWindow;
use btr_core::analysis::{miss_map_from_value, miss_map_to_value, BranchMissMap, DenseMissTable};
use btr_predictors::dispatch::DispatchPredictor;
use btr_predictors::fused::{FusedBlock, FusedSweepPredictor};
use btr_predictors::predictor::{BranchPredictor, PredictionStats};
use btr_predictors::swar::{self, CounterLut, SwarBlock, SwarScratch};
use btr_trace::io::chunked::TraceChunk;
use btr_trace::{BranchAddr, ChunkStream, ConditionalView, InternedTrace};
use btr_wire::{MapBuilder, Value, Wire, WireError};
use core::ops::Range;
use std::sync::{mpsc, Arc};
use std::thread;

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

/// The planned driver behind [`SimEngine::run_batch`] and
/// [`SimEngine::run_fused_streamed`], the one place that picks a fused
/// sweep's tier. Fed a view at a time in stream order, it stays on the SWAR
/// tier (`swar`) while [`FusedSweepPredictor::swar_ready`] holds for the
/// static-branch count so far, then flushes it and runs the scalar tier to
/// the end. Both tiers advance the same state inside the predictor, so the
/// switch is bit-identical (pinned by `tests/fused_equivalence.rs`).
struct PlannedSweep<'f> {
    fused: &'f mut FusedSweepPredictor,
    warmup: u64,
    /// Absolute stream position of the next view.
    seen: u64,
    acc: FusedMissAccumulator,
    swar: Option<SwarState>,
    block: FusedBlock,
}

/// The SWAR tier's buffers, kept across views. `hit_lanes` holds per-record
/// hit masks; `staged` is the id-major `u16` hit staging (slot `s` of id `d`
/// at `d * stride + s`), holding `staged_records` scored records.
struct SwarState {
    lut: CounterLut,
    block: SwarBlock,
    scratch: SwarScratch,
    hit_lanes: Vec<u64>,
    staged: Vec<u16>,
    stride: usize,
    staged_records: usize,
}

impl SwarState {
    /// Adds the staged hit counts into the wide accumulator and clears them.
    fn flush(&mut self, acc: &mut FusedMissAccumulator) {
        for (id, row) in self.staged.chunks_exact(self.stride).enumerate() {
            for (acc_row, &count) in acc.hits.iter_mut().zip(row.iter()) {
                acc_row[id] += u64::from(count);
            }
        }
        self.staged.fill(0);
        self.staged_records = 0;
    }
}

impl<'f> PlannedSweep<'f> {
    fn new(fused: &'f mut FusedSweepPredictor, warmup: u64) -> Self {
        // Geometry is fixed up front; ids are checked per view in `feed`.
        let swar = fused.swar_ready(0).then(|| SwarState {
            lut: CounterLut::new(),
            block: fused.new_swar_block(FUSED_BLOCK_RECORDS),
            scratch: SwarScratch::new(),
            hit_lanes: vec![0; FUSED_BLOCK_RECORDS],
            staged: Vec::new(),
            stride: swar::hit_stage_stride(fused.slot_count()),
            staged_records: 0,
        });
        PlannedSweep {
            acc: FusedMissAccumulator::new(fused.slot_count(), 0),
            block: fused.new_block(FUSED_BLOCK_RECORDS),
            fused,
            warmup,
            seen: 0,
            swar,
        }
    }

    /// Runs the next `records`, whose ids are all below `static_count`.
    fn feed(&mut self, records: ConditionalView<'_>, static_count: usize) {
        self.acc.grow_to(static_count);
        if !self.fused.swar_ready(static_count) {
            if let Some(mut swar) = self.swar.take() {
                swar.flush(&mut self.acc);
            }
        }
        let (pos, warmup, acc) = (self.seen, self.warmup, &mut self.acc);
        match &mut self.swar {
            Some(swar) => {
                swar.staged.resize(static_count * swar.stride, 0);
                drive_swar_blocks(self.fused, swar, records, pos, warmup, acc);
            }
            None => drive_fused_blocks(self.fused, &mut self.block, records, pos, warmup, acc),
        }
        self.seen += records.len() as u64;
    }

    /// One [`RunResult`] per slot, in slot order.
    fn finish(mut self, addrs: &[BranchAddr]) -> Vec<RunResult> {
        if let Some(swar) = &mut self.swar {
            swar.flush(&mut self.acc);
        }
        self.acc.into_results(addrs)
    }
}

/// What the decoding thread of a split streamed sweep sends each helper:
/// every chunk with the static-branch count so far, then the final id →
/// address table.
enum GroupJob<'a> {
    Chunk(Arc<TraceChunk>, usize),
    Finish(&'a [BranchAddr]),
}

/// The calling thread's own per-record work in a split streamed sweep
/// (reading and digesting the body, decoding, folding statistics), in
/// history-slot replays: [`slot_groups`] gives group 0 that many fewer
/// slots' worth of the sweep. Tuned on `btrd`'s dense PAs 0..=16 `/sweep`
/// at width 2, digest included: split as 0..=5 | 6..=16 it took 0.725 of
/// the width-1 time, against 0.710 for 0..=4 | 5..=16 and 0.721 for
/// 0..=6 | 7..=16 (within noise) and 0.766 for 0..=8 | 9..=16 (medians of
/// interleaved runs over nine 150k-record uploads on 2 vCPUs).
const DECODE_SLOTS: usize = 4;

/// Cuts a sweep over `histories` into `width.min(histories.len())`
/// contiguous, non-empty slot ranges, in slot order: a fixed function of
/// its inputs. The `g`-th cut balances the groups' slots with
/// [`DECODE_SLOTS`] more on group 0, the decoder's.
fn slot_groups(histories: &[u32], width: usize) -> Vec<Range<usize>> {
    let slots = histories.len();
    let width = width.clamp(1, slots.max(1));
    let mut cuts = vec![0];
    for g in 1..width {
        let ideal = (g * (slots + DECODE_SLOTS) / width).saturating_sub(DECODE_SLOTS);
        let prev = cuts[cuts.len() - 1];
        cuts.push(ideal.clamp(prev + 1, slots - (width - g)));
    }
    cuts.push(slots);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Hands `drive` each block of `records` (the first at absolute stream
/// position `start_pos`) and whether it is scored: blocks hold at most
/// [`FUSED_BLOCK_RECORDS`] and are cut where positions reach `warmup`.
fn for_each_block(
    records: ConditionalView<'_>,
    start_pos: u64,
    warmup: u64,
    mut drive: impl FnMut(ConditionalView<'_>, bool),
) {
    let mut offset = 0usize;
    while offset < records.len() {
        let pos = start_pos + offset as u64;
        let mut end = offset + FUSED_BLOCK_RECORDS.min(records.len() - offset);
        if pos < warmup {
            let to_boundary = usize::try_from(warmup - pos).unwrap_or(usize::MAX);
            end = end.min(offset.saturating_add(to_boundary));
        }
        drive(records.slice(offset..end), pos >= warmup);
        offset = end;
    }
}

/// Drives `records` through a fused predictor on the SWAR tier: one
/// first-level pass per block ([`FusedSweepPredictor::load_swar_block`]),
/// then every slot's two-phase SWAR replay, OR-ing hits into the hit-lane
/// column, which [`swar::drain_hit_lanes`] folds into `swar.staged` (it
/// must cover every id in `records`). Staging is flushed before
/// [`swar::MAX_STAGED_RECORDS`] scored records, keeping it within `u16`.
fn drive_swar_blocks(
    fused: &mut FusedSweepPredictor,
    swar: &mut SwarState,
    records: ConditionalView<'_>,
    start_pos: u64,
    warmup: u64,
    acc: &mut FusedMissAccumulator,
) {
    for_each_block(records, start_pos, warmup, |batch, scored| {
        fused.load_swar_block(
            batch.iter().map(|(addr, id, outcome)| (addr, outcome, id)),
            &mut swar.block,
        );
        if !scored {
            fused.replay_swar(&swar.block, &swar.lut, None, &mut swar.scratch);
            return;
        }
        if swar.staged_records + batch.len() > swar::MAX_STAGED_RECORDS {
            swar.flush(acc);
        }
        swar.staged_records += batch.len();
        for &id in batch.ids() {
            acc.lookups[id as usize] += 1;
        }
        let hit_lanes = Some(swar.hit_lanes.as_mut_slice());
        fused.replay_swar(&swar.block, &swar.lut, hit_lanes, &mut swar.scratch);
        swar::drain_hit_lanes(
            &swar.block,
            &mut swar.hit_lanes,
            swar.stride,
            &mut swar.staged,
        );
    });
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
/// every dense-table path (per-predictor, fused, windowed-merge) so they
/// cannot drift apart; public so callers of
/// [`SimEngine::run_window_dispatch`] fold their partials through the same
/// code.
pub fn result_from_dense(dense: DenseMissTable, addrs: &[BranchAddr]) -> RunResult {
    RunResult {
        overall: column_sums(dense.stats()),
        per_branch: dense.into_map(addrs),
    }
}

/// The sum of per-branch statistics: a run's overall statistics.
pub(crate) fn column_sums<'a>(
    per_branch: impl IntoIterator<Item = &'a PredictionStats>,
) -> PredictionStats {
    let mut overall = PredictionStats::new();
    for stats in per_branch {
        overall.merge(stats);
    }
    overall
}

/// Drives `records` through a fused predictor on the scalar tier: load a
/// block (advancing the shared history registers and capturing pre-push
/// patterns), then replay every history slot's PHT over it in a
/// cache-resident phase. Warm blocks train every slot and record nothing.
fn drive_fused_blocks(
    fused: &mut FusedSweepPredictor,
    block: &mut FusedBlock,
    records: ConditionalView<'_>,
    start_pos: u64,
    warmup: u64,
    acc: &mut FusedMissAccumulator,
) {
    for_each_block(records, start_pos, warmup, |batch, scored| {
        fused.load_block(
            batch.iter().map(|(addr, _, outcome)| (addr, outcome)),
            block,
        );
        if !scored {
            for slot in 0..fused.slot_count() {
                fused.replay_slot(slot, block, |_, _| {});
            }
            return;
        }
        for &id in batch.ids() {
            acc.lookups[id as usize] += 1;
        }
        for slot in 0..fused.slot_count() {
            fused.replay_slot_scored(slot, block, batch.ids(), &mut acc.hits[slot]);
        }
    });
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
        let expected = column_sums(result.per_branch.values());
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

    /// Runs the predictor over every conditional branch of the trace and
    /// returns its overall and per-branch statistics.
    ///
    /// The record loop is monomorphized for `P`, so a concrete predictor pays
    /// no virtual call per record; statistics go to a dense per-id table.
    /// Prefer [`SimEngine::run_batch`] for history sweeps: it runs every
    /// history length of a family in one pass.
    pub fn run<P: BranchPredictor + ?Sized>(
        &self,
        trace: &InternedTrace,
        predictor: &mut P,
    ) -> RunResult {
        let dense = self.run_window(trace, predictor, 0, trace.len(), WarmupWindow::FullPrefix);
        result_from_dense(dense, trace.addrs())
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

    /// Runs each lane's fused sweep over its trace — up to 64 history slots
    /// per lane — returning one
    /// `Vec<RunResult>` per lane (slot order), in lane order.
    ///
    /// Each lane's trace is one view fed to the planned driver: the SWAR
    /// tier when the lane's geometry and its trace's static-branch count fit
    /// it ([`FusedSweepPredictor::swar_ready`]), the scalar fused tier
    /// otherwise. Results and final predictor state are bit-identical to a
    /// standalone [`SimEngine::run_fused`] of the lane (pinned by
    /// `tests/batch_equivalence.rs`), with the warmup applied per trace.
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
            .map(|mut lane| self.run_prefix(traces[lane.trace_index], usize::MAX, &mut lane.fused))
            .collect()
    }

    /// One [`SimEngine::run_batch`] lane over the first `end` conditional
    /// records of `trace` (clamped to its length), borrowed in place. The
    /// prefix keeps the trace's whole id → address table, so the result is
    /// bit-identical to a lane over the trace truncated at `end` (pinned by
    /// `tests/batch_equivalence.rs`); callers sweeping many prefixes of one
    /// trace need neither a copy nor a truncation per prefix.
    pub fn run_prefix(
        &self,
        trace: &InternedTrace,
        end: usize,
        fused: &mut FusedSweepPredictor,
    ) -> Vec<RunResult> {
        let records = trace.records();
        let mut planned = PlannedSweep::new(fused, self.warmup);
        planned.feed(
            records.slice(0..end.min(records.len())),
            trace.static_count(),
        );
        planned.finish(trace.addrs())
    }

    /// The fused sweep over a [`ChunkStream`]: the whole history curve from
    /// **one** chunked decode pass, without materialising the trace (peak
    /// memory is one chunk, two when split, plus the per-slot and per-id
    /// tables).
    /// Consumed chunks are recycled, so a recycling reader (e.g.
    /// [`btr_trace::FastBtrtReader`]) streams with zero per-chunk
    /// allocation. `build` makes the fused predictor for a slice of
    /// `histories` (e.g. [`crate::config::PredictorFamily::fused_paper`]).
    ///
    /// The sweep runs as `width.min(histories.len())` contiguous history-slot
    /// groups (`slot_groups`), each its own predictor and planned driver:
    /// SWAR while [`ChunkStream::addrs`] fits it, scalar fused after. The
    /// calling thread keeps the stream, decodes, and runs group 0; each
    /// other group runs on a scoped helper thread that replays chunk `k`
    /// while the caller decodes chunk `k + 1`, so at most two chunks are in
    /// flight. Width 1 spawns no thread. Chunks must arrive in stream order
    /// with ids from one persistent interner. Results, one per history in
    /// `histories` order, are bit-identical to the eager
    /// [`SimEngine::run_fused`] over the same records at every width —
    /// pinned by `tests/fused_equivalence.rs`.
    ///
    /// # Errors
    ///
    /// Propagates the first decode error the chunk stream yields, after every
    /// helper has stopped.
    pub fn run_fused_streamed<S, B>(
        &self,
        mut chunks: S,
        histories: &[u32],
        width: usize,
        build: B,
    ) -> btr_trace::Result<Vec<RunResult>>
    where
        S: ChunkStream,
        B: Fn(&[u32]) -> FusedSweepPredictor,
    {
        let groups = slot_groups(histories, width);
        if groups.len() > 1 {
            let fused = groups.into_iter().map(|g| build(&histories[g])).collect();
            return self.run_split_streamed(chunks, fused);
        }
        let mut fused = build(histories);
        let mut planned = PlannedSweep::new(&mut fused, self.warmup);
        while let Some(chunk) = chunks.pull() {
            let chunk = chunk?;
            planned.feed(chunk.conditional(), chunks.addrs().len());
            chunks.recycle(chunk);
        }
        Ok(planned.finish(chunks.addrs()))
    }

    /// [`SimEngine::run_fused_streamed`] over two or more slot groups: group
    /// 0 on the calling thread, one scoped helper per other group. Each chunk
    /// goes to every helper as a shared [`Arc`] over a bounded channel, and
    /// is recycled once every helper has acked it; the caller pulls chunk
    /// `k + 1` before it waits for the acks of chunk `k`.
    fn run_split_streamed<S: ChunkStream>(
        &self,
        mut chunks: S,
        mut fused: Vec<FusedSweepPredictor>,
    ) -> btr_trace::Result<Vec<RunResult>> {
        let (lead, rest) = fused.split_first_mut().expect("at least two groups");
        let warmup = self.warmup;
        thread::scope(|scope| {
            let mut helpers = Vec::with_capacity(rest.len());
            for group in rest {
                // Two chunks in flight at most, so sends never block.
                let (job_tx, job_rx) = mpsc::sync_channel::<GroupJob<'_>>(2);
                let (ack_tx, ack_rx) = mpsc::channel::<()>();
                let handle = scope.spawn(move || {
                    let mut planned = PlannedSweep::new(group, warmup);
                    while let Ok(job) = job_rx.recv() {
                        match job {
                            GroupJob::Chunk(chunk, static_count) => {
                                planned.feed(chunk.conditional(), static_count);
                                drop(chunk);
                                if ack_tx.send(()).is_err() {
                                    break;
                                }
                            }
                            GroupJob::Finish(addrs) => return Some(planned.finish(addrs)),
                        }
                    }
                    None
                });
                helpers.push((job_tx, ack_rx, handle));
            }
            let mut planned = PlannedSweep::new(lead, warmup);
            let mut in_flight: Option<Arc<TraceChunk>> = None;
            // Waits for every helper's ack of `chunk`, then recycles it. A
            // helper that is gone (it panicked) never acks; the scope
            // re-raises its panic on exit.
            let retire = |chunks: &mut S, chunk: Arc<TraceChunk>| {
                if helpers.iter().all(|(_, acks, _)| acks.recv().is_ok()) {
                    if let Ok(chunk) = Arc::try_unwrap(chunk) {
                        chunks.recycle(chunk);
                    }
                }
            };
            while let Some(chunk) = chunks.pull() {
                let chunk = Arc::new(chunk?);
                let static_count = chunks.addrs().len();
                for (jobs, _, _) in &helpers {
                    let _ = jobs.send(GroupJob::Chunk(Arc::clone(&chunk), static_count));
                }
                planned.feed(chunk.conditional(), static_count);
                if let Some(done) = in_flight.replace(chunk) {
                    retire(&mut chunks, done);
                }
            }
            if let Some(done) = in_flight.take() {
                retire(&mut chunks, done);
            }
            let addrs = chunks.addrs();
            for (jobs, _, _) in &helpers {
                let _ = jobs.send(GroupJob::Finish(addrs));
            }
            let mut results = planned.finish(addrs);
            for (jobs, _, handle) in helpers {
                drop(jobs);
                let group = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                results.extend(group.expect("a finished helper returns its group"));
            }
            Ok(results)
        })
    }

    /// The monomorphized body of [`SimEngine::run`] and
    /// [`SimEngine::run_window_dispatch`].
    fn run_window<P: BranchPredictor + ?Sized>(
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
    use btr_predictors::bimodal::BimodalPredictor;
    use btr_predictors::gshare::GsharePredictor;
    use btr_predictors::staticp::StaticPredictor;
    use btr_predictors::twolevel::TwoLevelPredictor;
    use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceBuilder};

    /// Builds `kind` behind a `Box<dyn BranchPredictor>`, for the `dyn`
    /// oracle and the `?Sized` path of [`SimEngine::run`].
    fn boxed(kind: PredictorKind) -> Box<dyn BranchPredictor> {
        match kind {
            PredictorKind::PAsPaper { history } => Box::new(TwoLevelPredictor::pas_paper(history)),
            PredictorKind::GAsPaper { history } => Box::new(TwoLevelPredictor::gas_paper(history)),
            PredictorKind::Gshare { history } => Box::new(GsharePredictor::paper_sized(history)),
            PredictorKind::Bimodal { index_bits } => Box::new(BimodalPredictor::new(index_bits)),
            PredictorKind::StaticTaken => Box::new(StaticPredictor::always_taken()),
            PredictorKind::StaticNotTaken => Box::new(StaticPredictor::always_not_taken()),
        }
    }

    /// The `dyn` oracle: virtual predict-then-update calls over the trace's
    /// conditional rows and an address-keyed map per record, sharing no code
    /// with the interned drivers it checks.
    fn run_dyn(engine: SimEngine, trace: &Trace, predictor: &mut dyn BranchPredictor) -> RunResult {
        let mut result = RunResult::default();
        let mut seen = 0u64;
        for record in trace.iter().filter(|r| r.kind().is_conditional()) {
            let hit = predictor.predict(record.addr()) == record.outcome();
            predictor.update(record.addr(), record.outcome());
            seen += 1;
            if seen <= engine.warmup {
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
        let trace = b.build().intern();
        let result = SimEngine::new().run(&trace, &mut *boxed(PredictorKind::StaticTaken));
        assert_eq!(result.overall.lookups, 100);
        assert_eq!(result.overall.hits, 90);
        assert!((result.miss_rate().unwrap() - 0.10).abs() < 1e-12);
        assert_eq!(result.per_branch.len(), 1);
    }

    #[test]
    fn pas_with_history_beats_zero_history_on_alternation() {
        let trace = alternating_trace(2000).intern();
        let engine = SimEngine::new();
        let with_history = engine.run(&trace, &mut *boxed(PredictorKind::PAsPaper { history: 2 }));
        let without = engine.run(&trace, &mut *boxed(PredictorKind::PAsPaper { history: 0 }));
        assert!(with_history.miss_rate().unwrap() < 0.1);
        assert!(without.miss_rate().unwrap() > 0.4);
    }

    #[test]
    fn warmup_excludes_initial_branches_from_statistics() {
        let trace = alternating_trace(1000).intern();
        let engine = SimEngine::new().with_warmup(500);
        let result = engine.run(&trace, &mut *boxed(PredictorKind::PAsPaper { history: 2 }));
        assert_eq!(result.overall.lookups, 500);
        // After warm-up the alternating pattern is learned almost perfectly.
        assert!(result.miss_rate().unwrap() < 0.02);
    }

    #[test]
    fn merge_combines_per_branch_statistics() {
        let t1 = alternating_trace(100).intern();
        let mut t2_builder = TraceBuilder::new("other");
        t2_builder.push(BranchRecord::conditional(
            BranchAddr::new(0x9000),
            Outcome::Taken,
        ));
        let t2 = t2_builder.build().intern();
        let engine = SimEngine::new();
        let mut a = engine.run(&t1, &mut *boxed(PredictorKind::StaticTaken));
        let b = engine.run(&t2, &mut *boxed(PredictorKind::StaticTaken));
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
            let via_dyn = run_dyn(engine, &trace, &mut *boxed(kind));
            let via_dispatch = run_full_window(engine, &interned, kind);
            assert_eq!(via_dyn, via_dispatch, "{} diverged", kind.label());
            let via_run = engine.run(&interned, &mut *boxed(kind));
            assert_eq!(via_dyn, via_run, "{} diverged on run", kind.label());
            // And the driver monomorphized for a concrete predictor agrees too.
            if let PredictorKind::GAsPaper { history } = kind {
                let mut concrete = btr_predictors::twolevel::TwoLevelPredictor::gas_paper(history);
                assert_eq!(via_dyn, engine.run(&interned, &mut concrete));
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
            let via_dyn = run_dyn(engine, &trace, &mut *boxed(kind));
            let via_fast = run_full_window(engine, &interned, kind);
            assert_eq!(via_dyn, via_fast, "warmup {warmup} diverged");
            assert_eq!(via_dyn, engine.run(&interned, &mut *boxed(kind)));
        }
    }

    #[test]
    fn slot_groups_are_contiguous_non_empty_and_balanced() {
        let dense: Vec<u32> = (0..=16).collect();
        assert_eq!(slot_groups(&dense, 1), vec![0..17]);
        assert_eq!(slot_groups(&dense, 2), vec![0..6, 6..17]);
        assert_eq!(slot_groups(&dense, 3), vec![0..3, 3..10, 10..17]);
        assert_eq!(slot_groups(&[0, 3, 16], 2), vec![0..1, 1..3]);
        assert_eq!(slot_groups(&[5], 4), vec![0..1]);
        assert_eq!(slot_groups(&[0, 3, 16], 0), vec![0..3]);
        for histories in [
            dense,
            vec![0, 3, 16],
            vec![12, 0, 7],
            vec![1, 2],
            (0..=17).collect(),
        ] {
            for width in 1..=6 {
                let groups = slot_groups(&histories, width);
                assert_eq!(
                    groups.len(),
                    width.min(histories.len()),
                    "{histories:?} w{width}"
                );
                assert_eq!(groups[0].start, 0);
                assert_eq!(groups[groups.len() - 1].end, histories.len());
                for pair in groups.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
                assert!(
                    groups.iter().all(|g| !g.is_empty()),
                    "{histories:?} w{width}"
                );
            }
        }
    }

    #[test]
    fn empty_trace_produces_empty_result() {
        let trace = TraceBuilder::new("empty").build();
        let kind = PredictorKind::GAsPaper { history: 4 };
        let result = run_dyn(SimEngine::new(), &trace, &mut *boxed(kind));
        assert_eq!(result.overall.lookups, 0);
        assert_eq!(result.miss_rate(), None);
        assert!(result.per_branch.is_empty());
        let interned = trace.intern();
        let fast = run_full_window(SimEngine::new(), &interned, kind);
        assert_eq!(result, fast);
        assert_eq!(result, SimEngine::new().run(&interned, &mut *boxed(kind)));
    }
}
