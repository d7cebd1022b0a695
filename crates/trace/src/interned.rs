//! Dense branch-address interning for the simulation hot path.
//!
//! A [`crate::Trace`] keys everything by 64-bit [`BranchAddr`]; per-branch
//! bookkeeping during simulation therefore needs an associative lookup
//! (historically a `BTreeMap`) on *every* dynamic branch. Paper-scale sweeps
//! run 10⁸+ dynamic branches × 17 history lengths × 2 families, so that
//! lookup dominates the whole experiment.
//!
//! [`InternedTrace`] removes it: one pass over the trace assigns every static
//! conditional branch a dense `u32` id (in first-appearance order) and lays
//! the conditional records out as a contiguous slice carrying the id inline.
//! Per-branch statistics then live in a plain `Vec` indexed directly by id,
//! and the id → address table converts back to the map-keyed form once per
//! run instead of once per record.

use crate::io::chunked::ChunkStream;
use crate::record::{BranchAddr, BranchRecord, Outcome};
use std::collections::HashMap;

/// One conditional branch execution with its address interned to a dense id.
///
/// The address is kept inline so predictors can index their tables without a
/// side lookup; the id is what per-branch statistics vectors index by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InternedRecord {
    addr: BranchAddr,
    id: u32,
    taken: bool,
}

impl InternedRecord {
    /// Builds an interned record. Crate-internal: ids are only meaningful
    /// relative to the interner that assigned them, so public construction
    /// goes through [`InternedTrace`] or the chunked reader.
    pub(crate) fn new(addr: BranchAddr, id: u32, taken: bool) -> Self {
        InternedRecord { addr, id, taken }
    }

    /// The static branch address.
    #[inline]
    pub fn addr(&self) -> BranchAddr {
        self.addr
    }

    /// The dense static-branch id (`0 ..` [`InternedTrace::static_count`]).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The resolved direction.
    #[inline]
    pub fn outcome(&self) -> Outcome {
        Outcome::from_bool(self.taken)
    }
}

/// Assigns dense `u32` ids to branch addresses in first-appearance order,
/// incrementally — the id table can keep growing across batches of records.
///
/// This is the policy behind [`InternedTrace`] (which interns a whole trace
/// in one pass) factored out so streaming consumers — the chunked trace
/// reader interning records chunk by chunk — assign *identical* ids to the
/// same record sequence no matter how it is split. Determinism here is what
/// lets a streamed simulation merge per-id statistics bit-identically with an
/// eager one.
///
/// ```
/// use btr_trace::{BranchAddr, IncrementalInterner};
/// let mut interner = IncrementalInterner::new();
/// assert_eq!(interner.intern(BranchAddr::new(0x40)), 0);
/// assert_eq!(interner.intern(BranchAddr::new(0x80)), 1);
/// assert_eq!(interner.intern(BranchAddr::new(0x40)), 0); // stable across calls
/// assert_eq!(interner.static_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalInterner {
    ids: HashMap<u64, u32>,
    addrs: Vec<BranchAddr>,
}

impl IncrementalInterner {
    /// An empty interner.
    pub fn new() -> Self {
        IncrementalInterner::default()
    }

    /// Returns the dense id of `addr`, assigning the next free id on first
    /// appearance.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct addresses are interned.
    pub fn intern(&mut self, addr: BranchAddr) -> u32 {
        *self.ids.entry(addr.raw()).or_insert_with(|| {
            let id = u32::try_from(self.addrs.len())
                .expect("more than u32::MAX static branches in one trace");
            self.addrs.push(addr);
            id
        })
    }

    /// The number of distinct addresses interned so far.
    pub fn static_count(&self) -> usize {
        self.addrs.len()
    }

    /// The id → address table, in id (first-appearance) order.
    pub fn addrs(&self) -> &[BranchAddr] {
        &self.addrs
    }

    /// Consumes the interner, returning the id → address table.
    pub fn into_addrs(self) -> Vec<BranchAddr> {
        self.addrs
    }
}

/// The conditional-branch stream of a [`crate::Trace`] with addresses
/// interned to dense `u32` ids.
///
/// Ids are assigned in first-appearance order, so interning is deterministic
/// for a given record sequence; [`InternedTrace::addrs`] maps each id back to
/// its address.
///
/// ```
/// use btr_trace::{BranchAddr, BranchRecord, Outcome, TraceBuilder};
/// let mut b = TraceBuilder::new("t");
/// b.push(BranchRecord::conditional(BranchAddr::new(0x40), Outcome::Taken));
/// b.push(BranchRecord::conditional(BranchAddr::new(0x80), Outcome::NotTaken));
/// b.push(BranchRecord::conditional(BranchAddr::new(0x40), Outcome::NotTaken));
/// let interned = b.build().intern();
/// assert_eq!(interned.static_count(), 2);
/// assert_eq!(interned.records()[2].id(), 0); // 0x40 was seen first
/// assert_eq!(interned.addr_of(1), BranchAddr::new(0x80));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedTrace {
    addrs: Vec<BranchAddr>,
    records: Vec<InternedRecord>,
}

impl InternedTrace {
    /// Collects a chunk stream's conditional columns into an interned trace,
    /// recycling every chunk back to the stream. No record is re-interned:
    /// the stream's persistent interner already assigns exactly the ids
    /// [`crate::Trace::intern`] would, and since a dense id first appears on
    /// its defining record, the id → address table grows whenever
    /// `id == addrs.len()` — the rule the streamed engine paths use.
    ///
    /// # Errors
    ///
    /// Propagates the first error the stream yields.
    pub fn from_chunks<S: ChunkStream>(mut chunks: S) -> crate::Result<Self> {
        let mut addrs = Vec::new();
        let mut records = Vec::new();
        while let Some(chunk) = chunks.pull() {
            let chunk = chunk?;
            records.reserve(chunk.cond_len());
            for ((&addr, &id), &taken) in chunk
                .cond_addrs()
                .iter()
                .zip(chunk.cond_ids())
                .zip(chunk.cond_taken())
            {
                if id as usize == addrs.len() {
                    addrs.push(addr);
                }
                records.push(InternedRecord::new(addr, id, taken));
            }
            chunks.recycle(chunk);
        }
        Ok(InternedTrace { addrs, records })
    }

    /// Interns a slice of records, all of which must be conditional.
    pub(crate) fn from_conditional_records(records: &[BranchRecord]) -> Self {
        let mut interner = IncrementalInterner::new();
        let interned = records
            .iter()
            .map(|r| {
                debug_assert!(r.kind().is_conditional());
                let addr = r.addr();
                InternedRecord::new(addr, interner.intern(addr), r.outcome().is_taken())
            })
            .collect();
        InternedTrace {
            addrs: interner.into_addrs(),
            records: interned,
        }
    }

    /// The number of distinct static conditional branches.
    pub fn static_count(&self) -> usize {
        self.addrs.len()
    }

    /// The number of dynamic conditional records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no conditional records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The interned records as a contiguous slice, in original trace order.
    #[inline]
    pub fn records(&self) -> &[InternedRecord] {
        &self.records
    }

    /// Drops every record from position `len` on, keeping the whole
    /// id → address table, so ids stay valid and [`InternedTrace::static_count`]
    /// is unchanged. Does nothing when `len` is not below [`InternedTrace::len`].
    pub fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
    }

    /// The id → address table, in id (first-appearance) order.
    pub fn addrs(&self) -> &[BranchAddr] {
        &self.addrs
    }

    /// The address a dense id stands for.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn addr_of(&self, id: u32) -> BranchAddr {
        self.addrs[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchKind;
    use crate::trace::TraceBuilder;

    fn rec(addr: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(BranchAddr::new(addr), Outcome::from_bool(taken))
    }

    #[test]
    fn ids_follow_first_appearance_order() {
        let mut b = TraceBuilder::new("t");
        b.push(rec(0x30, true));
        b.push(rec(0x10, false));
        b.push(rec(0x30, false));
        b.push(rec(0x20, true));
        let interned = b.build().intern();
        assert_eq!(interned.static_count(), 3);
        assert_eq!(
            interned.addrs(),
            &[
                BranchAddr::new(0x30),
                BranchAddr::new(0x10),
                BranchAddr::new(0x20)
            ]
        );
        let ids: Vec<u32> = interned.records().iter().map(|r| r.id()).collect();
        assert_eq!(ids, vec![0, 1, 0, 2]);
    }

    #[test]
    fn records_preserve_order_addresses_and_outcomes() {
        let mut b = TraceBuilder::new("t");
        for i in 0..100u64 {
            b.push(rec(0x1000 + (i % 7) * 4, i % 3 == 0));
        }
        let trace = b.build();
        let interned = trace.intern();
        assert_eq!(interned.len(), 100);
        assert!(!interned.is_empty());
        for (original, interned_record) in
            trace.conditional_records().iter().zip(interned.records())
        {
            assert_eq!(interned_record.addr(), original.addr());
            assert_eq!(interned_record.outcome(), original.outcome());
            assert_eq!(interned.addr_of(interned_record.id()), original.addr());
        }
    }

    #[test]
    fn non_conditional_records_are_excluded() {
        let mut b = TraceBuilder::new("t");
        b.push(rec(0x10, true));
        b.push(BranchRecord::new(
            BranchAddr::new(0x14),
            BranchKind::Call,
            Outcome::Taken,
        ));
        b.push(rec(0x18, false));
        let interned = b.build().intern();
        assert_eq!(interned.len(), 2);
        assert_eq!(interned.static_count(), 2);
    }

    #[test]
    fn truncate_keeps_the_address_table() {
        let mut b = TraceBuilder::new("t");
        for addr in [0x10, 0x20, 0x10, 0x30] {
            b.push(rec(addr, true));
        }
        let full = b.build().intern();
        let mut prefix = full.clone();
        prefix.truncate(2);
        assert_eq!(prefix.records(), &full.records()[..2]);
        assert_eq!(prefix.addrs(), full.addrs());
        assert_eq!(prefix.static_count(), 3);
        prefix.truncate(10);
        assert_eq!(prefix.len(), 2);
    }

    #[test]
    fn empty_trace_interns_to_empty() {
        let interned = TraceBuilder::new("empty").build().intern();
        assert!(interned.is_empty());
        assert_eq!(interned.len(), 0);
        assert_eq!(interned.static_count(), 0);
        assert!(interned.addrs().is_empty());
    }
}
