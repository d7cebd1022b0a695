//! Raw per-address and whole-trace statistics.
//!
//! These are the *counts* from which the paper's two metrics are later
//! derived by `btr-core`:
//!
//! * **taken rate** = `taken / executions`
//! * **transition rate** = `transitions / executions`
//!
//! A *transition* is counted whenever execution *i* of a static branch goes in
//! the opposite direction from execution *i−1* of the same branch. The first
//! execution of a branch can never be a transition, so
//! `transitions <= executions - 1` always holds for an executed branch.

use crate::interned::{ConditionalView, InternedTrace};
use crate::record::{BranchAddr, Outcome};
use std::collections::BTreeMap;

/// Raw outcome counts for a single static (per-address) conditional branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddrStats {
    executions: u64,
    taken: u64,
    transitions: u64,
    last_outcome: Option<Outcome>,
}

impl AddrStats {
    /// Total dynamic executions observed.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Number of executions that were taken.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Number of executions that were not taken.
    pub fn not_taken(&self) -> u64 {
        self.executions - self.taken
    }

    /// Number of direction changes relative to the immediately preceding
    /// execution of the same branch.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The outcome of the most recent execution, if any.
    pub fn last_outcome(&self) -> Option<Outcome> {
        self.last_outcome
    }

    /// Fraction of executions that were taken, or `None` if never executed.
    pub fn taken_fraction(&self) -> Option<f64> {
        if self.executions == 0 {
            None
        } else {
            Some(self.taken as f64 / self.executions as f64)
        }
    }

    /// Fraction of executions that were transitions, or `None` if never
    /// executed.
    ///
    /// The denominator is the execution count (as in the paper), not
    /// `executions - 1`, so a branch executed exactly once has transition
    /// fraction 0.
    pub fn transition_fraction(&self) -> Option<f64> {
        if self.executions == 0 {
            None
        } else {
            Some(self.transitions as f64 / self.executions as f64)
        }
    }
}

/// Raw statistics for an entire trace, keyed by static branch address.
///
/// Only conditional branches contribute to the per-address table; other
/// control-transfer kinds are tallied in aggregate so that tools can report
/// trace composition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    per_addr: BTreeMap<BranchAddr, AddrStats>,
    total_conditional: u64,
    total_other: u64,
}

impl TraceStats {
    /// The statistics of an interned trace's conditional stream: one
    /// [`DenseTraceStats`] fold over its columns, converted once.
    pub fn from_interned(trace: &InternedTrace) -> Self {
        let mut dense = DenseTraceStats::new();
        dense.observe_conditional(trace.records());
        dense.into_trace_stats()
    }

    /// Total number of dynamic conditional branches observed.
    pub fn total_conditional(&self) -> u64 {
        self.total_conditional
    }

    /// Total number of non-conditional control transfers observed.
    pub fn total_other(&self) -> u64 {
        self.total_other
    }

    /// Number of distinct static conditional branches.
    pub fn static_conditional_count(&self) -> usize {
        self.per_addr.len()
    }

    /// Looks up the accumulator for one static branch.
    pub fn addr(&self, addr: BranchAddr) -> Option<&AddrStats> {
        self.per_addr.get(&addr)
    }

    /// Iterates over `(address, stats)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchAddr, &AddrStats)> {
        self.per_addr.iter().map(|(a, s)| (*a, s))
    }

    /// The address with the most dynamic executions, if any.
    pub fn hottest_branch(&self) -> Option<(BranchAddr, &AddrStats)> {
        self.iter().max_by_key(|(_, s)| s.executions())
    }
}

/// `DenseTraceStats`' last outcome before a branch's first execution.
const NO_OUTCOME: u32 = 2;

/// The most records folded between two flushes, so no `u32` count overflows.
const FLUSH_AT: u64 = u32::MAX as u64;

/// Id-indexed statistics accumulator, the one statistics fold: it folds
/// conditional columns — decoded chunks in streamed classification, a whole
/// [`InternedTrace`] in [`TraceStats::from_interned`] — into flat per-id
/// counters and converts to the map-keyed [`TraceStats`] once at the end,
/// bit-identically to the per-record, address-keyed row fold kept as the
/// oracle in `tests/support/stats_reference.rs`
/// (`tests/dense_stats_equivalence.rs`).
///
/// * **Layout.** One `[u32; 4]` per dense interned id (16 B): executions,
///   taken, transitions and the last outcome (0 or 1; 2 before the first
///   execution), beside the id → address table.
/// * **Update.** Branch-free per record, with `t` the outcome bit:
///   `taken += t`, `transitions += (last ^ t == 1)`, `last = t`. The one
///   branch is the first-appearance push (`id == len`).
/// * **Overflow.** A count grows by at most one per record, so the fold
///   checks once per chunk (or column run) whether the records since the
///   last flush could pass `u32::MAX`, and if so splits the run there and
///   adds the counts into `u64` totals. The totals are allocated at the
///   first flush, which an upload under 2³² conditional records reaches
///   only in [`DenseTraceStats::into_trace_stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseTraceStats {
    /// Per-id `[executions, taken, transitions, last outcome]` since the
    /// last flush.
    counts: Vec<[u32; 4]>,
    /// Per-id flushed `[executions, taken, transitions]`; empty until the
    /// first flush.
    totals: Vec<[u64; 3]>,
    addrs: Vec<BranchAddr>,
    since_flush: u64,
    total_conditional: u64,
    total_other: u64,
}

impl DenseTraceStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        DenseTraceStats::default()
    }

    /// Folds one chunk's records in: conditionals through the id-indexed
    /// counters, non-conditionals as an aggregate count.
    ///
    /// Chunks must arrive in stream order with ids assigned by one persistent
    /// interner (what [`crate::ChunkedTraceReader`] and
    /// [`crate::FastBtrtReader`] produce) — a dense id first appears on its
    /// defining record.
    pub fn observe_chunk(&mut self, chunk: &crate::TraceChunk) {
        let conditional = chunk.conditional();
        self.total_other += (chunk.len() - conditional.len()) as u64;
        self.observe_conditional(conditional);
    }

    /// Folds a run of conditional columns in, flushing whenever the records
    /// since the last flush reach [`FLUSH_AT`]. Ids must continue this
    /// accumulator's id table: a dense id first appears on its defining
    /// record.
    #[inline]
    fn observe_conditional(&mut self, conditional: ConditionalView<'_>) {
        self.total_conditional += conditional.len() as u64;
        let mut start = 0;
        while start < conditional.len() {
            if self.since_flush == FLUSH_AT {
                self.flush();
            }
            let room = usize::try_from(FLUSH_AT - self.since_flush).unwrap_or(usize::MAX);
            let end = conditional.len().min(start.saturating_add(room));
            self.fold(conditional.slice(start..end));
            start = end;
        }
    }

    /// The per-record update, over at most `FLUSH_AT - since_flush` records.
    #[inline]
    fn fold(&mut self, records: ConditionalView<'_>) {
        let addrs = records.addrs();
        for (i, (&id, &taken)) in records.ids().iter().zip(records.taken()).enumerate() {
            let id = id as usize;
            if id == self.counts.len() {
                self.counts.push([0, 0, 0, NO_OUTCOME]);
                self.addrs.push(addrs[i]);
            }
            let t = u32::from(taken);
            let [executions, taken, transitions, last] = &mut self.counts[id];
            *executions += 1;
            *taken += t;
            *transitions += u32::from(*last ^ t == 1);
            *last = t;
        }
        self.since_flush += records.len() as u64;
    }

    /// Adds every id's counts into its totals and zeroes them.
    fn flush(&mut self) {
        self.totals.resize(self.counts.len(), [0; 3]);
        for (total, count) in self.totals.iter_mut().zip(&mut self.counts) {
            for (total, count) in total.iter_mut().zip(&mut count[..3]) {
                *total += u64::from(*count);
                *count = 0;
            }
        }
        self.since_flush = 0;
    }

    /// Number of distinct static conditional branches.
    pub fn static_conditional_count(&self) -> usize {
        self.counts.len()
    }

    /// Flushes, then converts to the address-keyed [`TraceStats`], building
    /// the map once.
    pub fn into_trace_stats(mut self) -> TraceStats {
        self.flush();
        let per_addr = (self.addrs.into_iter().zip(self.totals).zip(self.counts))
            .map(|((addr, [executions, taken, transitions]), [.., last])| {
                // Every id was pushed by a record, so its last outcome is set.
                let stats = AddrStats {
                    executions,
                    taken,
                    transitions,
                    last_outcome: Some(Outcome::from_bool(last == 1)),
                };
                (addr, stats)
            })
            .collect();
        TraceStats {
            per_addr,
            total_conditional: self.total_conditional,
            total_other: self.total_other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BranchKind, BranchRecord};
    use crate::trace::Trace;

    fn rec(addr: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(BranchAddr::new(addr), Outcome::from_bool(taken))
    }

    /// The folded statistics of one branch executed with `outcomes`.
    fn branch_stats(outcomes: impl IntoIterator<Item = bool>) -> AddrStats {
        let trace: Trace = outcomes.into_iter().map(|taken| rec(0x10, taken)).collect();
        TraceStats::from_interned(&trace.intern())
            .addr(BranchAddr::new(0x10))
            .copied()
            .unwrap_or_default()
    }

    #[test]
    fn addr_stats_count_taken_and_transitions() {
        // T T N T N N  -> taken 3/6, transitions: T->T no, T->N yes, N->T yes, T->N yes, N->N no = 3
        let s = branch_stats([true, true, false, true, false, false]);
        assert_eq!(s.executions(), 6);
        assert_eq!(s.taken(), 3);
        assert_eq!(s.not_taken(), 3);
        assert_eq!(s.transitions(), 3);
        assert_eq!(s.taken_fraction(), Some(0.5));
        assert_eq!(s.transition_fraction(), Some(0.5));
        assert_eq!(s.last_outcome(), Some(Outcome::NotTaken));
    }

    #[test]
    fn first_execution_is_never_a_transition() {
        let s = branch_stats([true]);
        assert_eq!(s.executions(), 1);
        assert_eq!(s.transitions(), 0);
        assert_eq!(s.transition_fraction(), Some(0.0));
    }

    #[test]
    fn perfectly_alternating_branch_has_max_transition_rate() {
        let s = branch_stats((0..100u32).map(|i| i % 2 == 0));
        assert_eq!(s.executions(), 100);
        assert_eq!(s.transitions(), 99);
        let tf = s.transition_fraction().unwrap();
        assert!(tf > 0.98 && tf <= 1.0);
    }

    #[test]
    fn always_taken_branch_has_zero_transitions() {
        let s = branch_stats([true; 50]);
        assert_eq!(s.taken_fraction(), Some(1.0));
        assert_eq!(s.transitions(), 0);
    }

    #[test]
    fn empty_stats_have_no_fractions() {
        let s = AddrStats::default();
        assert_eq!(s.taken_fraction(), None);
        assert_eq!(s.transition_fraction(), None);
        assert_eq!(s.last_outcome(), None);
    }

    #[test]
    fn trace_stats_partition_by_kind_and_address() {
        let mut dense = DenseTraceStats::new();
        let records = [
            rec(0x10, true),
            rec(0x10, false),
            rec(0x20, true),
            BranchRecord::new(BranchAddr::new(0x30), BranchKind::Call, Outcome::Taken),
        ];
        dense.observe_chunk(&chunk_after(&dense, &records));
        let ts = dense.into_trace_stats();
        assert_eq!(ts.total_conditional(), 3);
        assert_eq!(ts.total_other(), 1);
        assert_eq!(ts.static_conditional_count(), 2);
        assert_eq!(ts.iter().map(|(_, s)| s.taken()).sum::<u64>(), 2);
        assert_eq!(ts.iter().map(|(_, s)| s.transitions()).sum::<u64>(), 1);
        assert_eq!(ts.addr(BranchAddr::new(0x10)).unwrap().executions(), 2);
        assert!(ts.addr(BranchAddr::new(0x30)).is_none());
    }

    #[test]
    fn hottest_branch_finds_the_most_executed_address() {
        let mut records = vec![rec(0x40, true); 5];
        records.push(rec(0x80, false));
        let trace = Trace::from_records(crate::TraceMetadata::named("hot"), records);
        let ts = TraceStats::from_interned(&trace.intern());
        let (addr, stats) = ts.hottest_branch().unwrap();
        assert_eq!(addr, BranchAddr::new(0x40));
        assert_eq!(stats.executions(), 5);
    }

    /// One chunk of `records`, conditional ids assigned in first-appearance
    /// order continuing from `stats`' id table.
    fn chunk_after(stats: &DenseTraceStats, records: &[BranchRecord]) -> crate::TraceChunk {
        let mut addrs = stats.addrs.clone();
        let mut chunk = crate::TraceChunk::empty();
        for record in records {
            chunk.push(record, |addr| {
                let id = addrs.iter().position(|&a| a == addr).unwrap_or_else(|| {
                    addrs.push(addr);
                    addrs.len() - 1
                });
                id as u32
            });
        }
        chunk
    }

    #[test]
    fn dense_fold_flushes_exactly_next_to_u32_max() {
        let max = u64::from(u32::MAX);
        let mut dense = DenseTraceStats::new();
        dense.observe_chunk(&chunk_after(&dense, &[rec(0x10, true), rec(0x20, false)]));
        assert!(dense.totals.is_empty(), "no flush below the bound");

        // Put both counters and the records since the last flush just under
        // the bound, consistently: the two ids' executions sum to
        // `since_flush`.
        dense.counts[0] = [u32::MAX - 5, u32::MAX - 6, u32::MAX - 6, 1];
        dense.counts[1] = [2, 1, 1, 0];
        dense.since_flush = max - 3;
        dense.total_conditional = max - 3;
        let mut oracle = [
            AddrStats {
                executions: max - 5,
                taken: max - 6,
                transitions: max - 6,
                last_outcome: Some(Outcome::Taken),
            },
            AddrStats {
                executions: 2,
                taken: 1,
                transitions: 1,
                last_outcome: Some(Outcome::NotTaken),
            },
            AddrStats::default(),
        ];

        // 15 records: the first 3 reach the bound, the flush lands inside
        // the chunk, and a third branch first appears after it. Branch 0x10
        // alternates, so its executions and transitions both pass u32::MAX.
        let mut records = Vec::new();
        for i in 0..10u32 {
            records.push((0x10, i % 2 == 1));
            if i % 3 == 0 {
                records.push((0x20, i > 3));
            }
        }
        records.insert(5, (0x30, true));
        assert_eq!(records.len(), 15);
        for &(addr, taken) in &records {
            let slot = match addr {
                0x10 => 0,
                0x20 => 1,
                _ => 2,
            };
            // The per-record update, written out independently of the fold.
            let s = &mut oracle[slot];
            s.executions += 1;
            s.taken += u64::from(taken);
            s.transitions += u64::from(s.last_outcome.is_some_and(|last| last.is_taken() != taken));
            s.last_outcome = Some(Outcome::from_bool(taken));
        }
        let records: Vec<BranchRecord> = records
            .into_iter()
            .map(|(addr, taken)| rec(addr, taken))
            .collect();
        dense.observe_chunk(&chunk_after(&dense, &records));

        assert_eq!(dense.totals.len(), 2, "flushed once, before 0x30 appeared");
        assert_eq!(dense.since_flush, 12);
        assert!(oracle[0].executions() > max && oracle[0].transitions() > max);
        let stats = dense.into_trace_stats();
        assert_eq!(stats.total_conditional(), max + 12);
        for (slot, addr) in [0x10, 0x20, 0x30].into_iter().enumerate() {
            assert_eq!(
                stats.addr(BranchAddr::new(addr)),
                Some(&oracle[slot]),
                "{addr:#x}"
            );
        }
    }

    #[test]
    fn empty_trace_stats_queries() {
        let ts = TraceStats::default();
        assert!(ts.hottest_branch().is_none());
        assert_eq!(ts.static_conditional_count(), 0);
    }
}
