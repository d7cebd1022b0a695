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

use crate::record::{BranchAddr, BranchRecord, Outcome};
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
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        AddrStats::default()
    }

    /// Records one dynamic execution with the given outcome.
    pub fn observe(&mut self, outcome: Outcome) {
        self.executions += 1;
        if outcome.is_taken() {
            self.taken += 1;
        }
        if let Some(prev) = self.last_outcome {
            if prev != outcome {
                self.transitions += 1;
            }
        }
        self.last_outcome = Some(outcome);
    }

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

    /// Merges the counts of `other` into `self`.
    ///
    /// Merging is intended for combining statistics of the *same* static
    /// branch gathered over consecutive trace segments: the transition between
    /// the last outcome of `self` and the first outcome of `other` is not
    /// recoverable from the summaries alone, so the merged transition count is
    /// a lower bound (off by at most one per merge).
    pub fn merge(&mut self, other: &AddrStats) {
        self.executions += other.executions;
        self.taken += other.taken;
        self.transitions += other.transitions;
        if other.last_outcome.is_some() {
            self.last_outcome = other.last_outcome;
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
    /// Creates an empty statistics table.
    pub fn new() -> Self {
        TraceStats::default()
    }

    /// Records one trace record.
    pub fn observe(&mut self, record: &BranchRecord) {
        if record.kind().is_conditional() {
            self.total_conditional += 1;
            self.per_addr
                .entry(record.addr())
                .or_default()
                .observe(record.outcome());
        } else {
            self.total_other += 1;
        }
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

    /// Sum of per-address taken counts.
    pub fn total_taken(&self) -> u64 {
        self.per_addr.values().map(|s| s.taken()).sum()
    }

    /// Sum of per-address transition counts.
    pub fn total_transitions(&self) -> u64 {
        self.per_addr.values().map(|s| s.transitions()).sum()
    }

    /// Overall taken fraction across all conditional executions.
    pub fn overall_taken_fraction(&self) -> Option<f64> {
        if self.total_conditional == 0 {
            None
        } else {
            Some(self.total_taken() as f64 / self.total_conditional as f64)
        }
    }

    /// The address with the most dynamic executions, if any.
    pub fn hottest_branch(&self) -> Option<(BranchAddr, &AddrStats)> {
        self.iter().max_by_key(|(_, s)| s.executions())
    }

    /// Merges another statistics table into this one (see
    /// [`AddrStats::merge`] for the transition-count caveat).
    pub fn merge(&mut self, other: &TraceStats) {
        self.total_conditional += other.total_conditional;
        self.total_other += other.total_other;
        for (addr, stats) in other.iter() {
            self.per_addr.entry(addr).or_default().merge(stats);
        }
    }
}

/// Id-indexed statistics accumulator for streamed classification.
///
/// [`TraceStats::observe`] pays a `BTreeMap` traversal per record, which
/// co-dominates a streamed classify once decode is fast. `DenseTraceStats`
/// keeps one [`AddrStats`] slot per dense interned id instead — chunk columns
/// feed straight into a flat vector index — and converts to the map-keyed
/// [`TraceStats`] once at the end. Because each static branch sees exactly
/// the same outcome sequence either way, the conversion is bit-identical to
/// having observed every record through [`TraceStats`] directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseTraceStats {
    /// Per-id accumulators; the id → address table is rebuilt from the
    /// defining (first-appearance) records.
    per_id: Vec<AddrStats>,
    addrs: Vec<BranchAddr>,
    total_conditional: u64,
    total_other: u64,
}

impl DenseTraceStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        DenseTraceStats::default()
    }

    /// Folds one chunk's records in: conditionals through the id-indexed
    /// columns, non-conditionals as an aggregate count.
    ///
    /// Chunks must arrive in stream order with ids assigned by one persistent
    /// interner (what [`crate::ChunkedTraceReader`] and
    /// [`crate::FastBtrtReader`] produce) — a dense id first appears on its
    /// defining record.
    pub fn observe_chunk(&mut self, chunk: &crate::TraceChunk) {
        let conditional = chunk.conditional();
        self.total_conditional += conditional.len() as u64;
        self.total_other += (chunk.len() - conditional.len()) as u64;
        for (addr, id, outcome) in conditional.iter() {
            let id = id as usize;
            if id == self.per_id.len() {
                self.per_id.push(AddrStats::new());
                self.addrs.push(addr);
            }
            self.per_id[id].observe(outcome);
        }
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
        self.per_id.len()
    }

    /// Converts to the address-keyed [`TraceStats`], building the map once.
    pub fn into_trace_stats(self) -> TraceStats {
        TraceStats {
            per_addr: self.addrs.into_iter().zip(self.per_id).collect(),
            total_conditional: self.total_conditional,
            total_other: self.total_other,
        }
    }
}

impl<'a> IntoIterator for &'a TraceStats {
    type Item = (BranchAddr, &'a AddrStats);
    type IntoIter = std::vec::IntoIter<(BranchAddr, &'a AddrStats)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchKind;

    fn rec(addr: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(BranchAddr::new(addr), Outcome::from_bool(taken))
    }

    #[test]
    fn addr_stats_count_taken_and_transitions() {
        let mut s = AddrStats::new();
        // T T N T N N  -> taken 3/6, transitions: T->T no, T->N yes, N->T yes, T->N yes, N->N no = 3
        for taken in [true, true, false, true, false, false] {
            s.observe(Outcome::from_bool(taken));
        }
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
        let mut s = AddrStats::new();
        s.observe(Outcome::Taken);
        assert_eq!(s.executions(), 1);
        assert_eq!(s.transitions(), 0);
        assert_eq!(s.transition_fraction(), Some(0.0));
    }

    #[test]
    fn perfectly_alternating_branch_has_max_transition_rate() {
        let mut s = AddrStats::new();
        for i in 0..100u32 {
            s.observe(Outcome::from_bool(i % 2 == 0));
        }
        assert_eq!(s.executions(), 100);
        assert_eq!(s.transitions(), 99);
        let tf = s.transition_fraction().unwrap();
        assert!(tf > 0.98 && tf <= 1.0);
    }

    #[test]
    fn always_taken_branch_has_zero_transitions() {
        let mut s = AddrStats::new();
        for _ in 0..50 {
            s.observe(Outcome::Taken);
        }
        assert_eq!(s.taken_fraction(), Some(1.0));
        assert_eq!(s.transitions(), 0);
    }

    #[test]
    fn empty_stats_have_no_fractions() {
        let s = AddrStats::new();
        assert_eq!(s.taken_fraction(), None);
        assert_eq!(s.transition_fraction(), None);
        assert_eq!(s.last_outcome(), None);
    }

    #[test]
    fn trace_stats_partition_by_kind_and_address() {
        let mut ts = TraceStats::new();
        ts.observe(&rec(0x10, true));
        ts.observe(&rec(0x10, false));
        ts.observe(&rec(0x20, true));
        ts.observe(&BranchRecord::new(
            BranchAddr::new(0x30),
            BranchKind::Call,
            Outcome::Taken,
        ));
        assert_eq!(ts.total_conditional(), 3);
        assert_eq!(ts.total_other(), 1);
        assert_eq!(ts.static_conditional_count(), 2);
        assert_eq!(ts.total_taken(), 2);
        assert_eq!(ts.total_transitions(), 1);
        assert_eq!(ts.addr(BranchAddr::new(0x10)).unwrap().executions(), 2);
        assert!(ts.addr(BranchAddr::new(0x30)).is_none());
        assert!((ts.overall_taken_fraction().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hottest_branch_finds_the_most_executed_address() {
        let mut ts = TraceStats::new();
        for _ in 0..5 {
            ts.observe(&rec(0x40, true));
        }
        ts.observe(&rec(0x80, false));
        let (addr, stats) = ts.hottest_branch().unwrap();
        assert_eq!(addr, BranchAddr::new(0x40));
        assert_eq!(stats.executions(), 5);
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = TraceStats::new();
        a.observe(&rec(0x10, true));
        let mut b = TraceStats::new();
        b.observe(&rec(0x10, false));
        b.observe(&rec(0x20, true));
        a.merge(&b);
        assert_eq!(a.total_conditional(), 3);
        assert_eq!(a.static_conditional_count(), 2);
        assert_eq!(a.addr(BranchAddr::new(0x10)).unwrap().executions(), 2);
    }

    #[test]
    fn empty_trace_stats_queries() {
        let ts = TraceStats::new();
        assert_eq!(ts.overall_taken_fraction(), None);
        assert!(ts.hottest_branch().is_none());
        assert_eq!(ts.static_conditional_count(), 0);
    }
}
