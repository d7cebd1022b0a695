//! Dense branch-address interning and the conditional-record columns.
//!
//! A [`crate::Trace`] keys everything by 64-bit [`BranchAddr`]; per-branch
//! bookkeeping during simulation therefore needs an associative lookup
//! (historically a `BTreeMap`) on *every* dynamic branch. Paper-scale sweeps
//! run 10⁸+ dynamic branches × 17 history lengths × 2 families, so that
//! lookup dominates the whole experiment.
//!
//! Interning removes it: one pass assigns every static conditional branch a
//! dense `u32` id (in first-appearance order). Every analysis reads only
//! three facts per dynamic conditional branch — address, id, outcome — so
//! the stream is held in exactly one layout from the decoder to the engine:
//! three parallel [`ConditionalColumns`] (13 B per record), borrowed as a
//! [`ConditionalView`]. A decoded [`crate::TraceChunk`] carries them, and
//! [`InternedTrace`] holds them for a whole trace next to its id → address
//! table. Per-branch statistics then live in a plain `Vec` indexed directly
//! by id, and the table converts back to the map-keyed form once per run
//! instead of once per record.

use crate::io::chunked::ChunkStream;
use crate::record::{BranchAddr, BranchRecord, Outcome};
use std::collections::HashMap;
use std::ops::Range;

/// Conditional-branch records as three parallel columns — address, dense
/// interned id, outcome — one entry per record, in trace order.
///
/// Ids are only meaningful relative to the interner that assigned them, so
/// columns are filled by the decoders and [`InternedTrace`]; everyone else
/// reads them through [`ConditionalColumns::view`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConditionalColumns {
    addrs: Vec<BranchAddr>,
    ids: Vec<u32>,
    taken: Vec<bool>,
}

impl ConditionalColumns {
    /// Empty columns.
    pub fn new() -> Self {
        ConditionalColumns::default()
    }

    /// Appends one record.
    #[inline]
    pub(crate) fn push(&mut self, addr: BranchAddr, id: u32, taken: bool) {
        self.addrs.push(addr);
        self.ids.push(id);
        self.taken.push(taken);
    }

    /// Appends every record of `view`, in order.
    pub fn extend_from(&mut self, view: ConditionalView<'_>) {
        self.addrs.extend_from_slice(view.addrs);
        self.ids.extend_from_slice(view.ids);
        self.taken.extend_from_slice(view.taken);
    }

    /// Drops every record, keeping the capacity for reuse.
    pub(crate) fn clear(&mut self) {
        self.truncate(0);
    }

    /// Drops every record from position `len` on.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.addrs.truncate(len);
        self.ids.truncate(len);
        self.taken.truncate(len);
    }

    /// The borrowed view of all three columns.
    #[inline]
    pub fn view(&self) -> ConditionalView<'_> {
        ConditionalView {
            addrs: &self.addrs,
            ids: &self.ids,
            taken: &self.taken,
        }
    }
}

/// A borrowed run of [`ConditionalColumns`]: three parallel slices of equal
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConditionalView<'a> {
    addrs: &'a [BranchAddr],
    ids: &'a [u32],
    taken: &'a [bool],
}

impl<'a> ConditionalView<'a> {
    /// The number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the view holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The branch-address column.
    #[inline]
    pub fn addrs(&self) -> &'a [BranchAddr] {
        self.addrs
    }

    /// The dense interned-id column.
    #[inline]
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// The outcome column (`true` = taken).
    #[inline]
    pub fn taken(&self) -> &'a [bool] {
        self.taken
    }

    /// The records in `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> ConditionalView<'a> {
        ConditionalView {
            addrs: &self.addrs[range.clone()],
            ids: &self.ids[range.clone()],
            taken: &self.taken[range],
        }
    }

    /// The records as `(address, id, outcome)` triples, in order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (BranchAddr, u32, Outcome)> + 'a {
        self.addrs
            .iter()
            .zip(self.ids)
            .zip(self.taken)
            .map(|((&addr, &id), &taken)| (addr, id, Outcome::from_bool(taken)))
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

/// log₂ of [`CachedInterner`]'s cache size. 8 Ki entries × 12 bytes cover
/// the static-branch working set of every workload family while the cache
/// itself stays L1/L2-resident.
const CACHE_BITS: u32 = 13;

/// An [`IncrementalInterner`] behind a small direct-mapped cache that
/// short-circuits the hash lookup for hot branches — the interner of the
/// production ingest paths ([`crate::FastBtrtReader`], [`crate::Trace::intern`]).
/// Ids are identical either way; the cache only skips the lookup.
#[derive(Debug)]
pub(crate) struct CachedInterner {
    interner: IncrementalInterner,
    /// `keys[s]` holds the raw address whose id is `ids[s]` (`u32::MAX` =
    /// empty slot).
    keys: Vec<u64>,
    ids: Vec<u32>,
}

impl CachedInterner {
    pub(crate) fn new() -> Self {
        CachedInterner {
            interner: IncrementalInterner::new(),
            keys: vec![0; 1 << CACHE_BITS],
            ids: vec![u32::MAX; 1 << CACHE_BITS],
        }
    }

    /// [`IncrementalInterner::intern`] through the cache, refreshing the
    /// slot on a miss.
    #[inline]
    pub(crate) fn intern(&mut self, addr: BranchAddr) -> u32 {
        let raw = addr.raw();
        let slot = (raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CACHE_BITS)) as usize;
        if self.keys[slot] == raw && self.ids[slot] != u32::MAX {
            return self.ids[slot];
        }
        let id = self.interner.intern(addr);
        self.keys[slot] = raw;
        self.ids[slot] = id;
        id
    }

    /// The id → address table, in id (first-appearance) order.
    pub(crate) fn addrs(&self) -> &[BranchAddr] {
        self.interner.addrs()
    }

    /// Consumes the interner, returning the id → address table.
    pub(crate) fn into_addrs(self) -> Vec<BranchAddr> {
        self.interner.into_addrs()
    }
}

/// The conditional-branch stream of a [`crate::Trace`] as
/// [`ConditionalColumns`], with the id → address table.
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
/// assert_eq!(interned.records().ids()[2], 0); // 0x40 was seen first
/// assert_eq!(interned.addr_of(1), BranchAddr::new(0x80));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedTrace {
    addrs: Vec<BranchAddr>,
    columns: ConditionalColumns,
}

impl InternedTrace {
    /// Collects a chunk stream's conditional columns into an interned trace,
    /// recycling every chunk back to the stream. No record is re-interned:
    /// the stream's persistent interner already assigns exactly the ids
    /// [`crate::Trace::intern`] would, so each chunk's columns are appended
    /// as they are and the id → address table is the stream's
    /// [`ChunkStream::addrs`], copied once at the end.
    ///
    /// # Errors
    ///
    /// Propagates the first error the stream yields.
    pub fn from_chunks<S: ChunkStream>(mut chunks: S) -> crate::Result<Self> {
        let mut columns = ConditionalColumns::new();
        while let Some(chunk) = chunks.pull() {
            let chunk = chunk?;
            columns.extend_from(chunk.conditional());
            chunks.recycle(chunk);
        }
        Ok(InternedTrace {
            addrs: chunks.addrs().to_vec(),
            columns,
        })
    }

    /// Interns a slice of records, all of which must be conditional.
    pub(crate) fn from_conditional_records(records: &[BranchRecord]) -> Self {
        let mut interner = CachedInterner::new();
        let mut columns = ConditionalColumns {
            addrs: Vec::with_capacity(records.len()),
            ids: Vec::with_capacity(records.len()),
            taken: Vec::with_capacity(records.len()),
        };
        for r in records {
            debug_assert!(r.kind().is_conditional());
            let addr = r.addr();
            columns.push(addr, interner.intern(addr), r.outcome().is_taken());
        }
        InternedTrace {
            addrs: interner.into_addrs(),
            columns,
        }
    }

    /// The number of distinct static conditional branches.
    pub fn static_count(&self) -> usize {
        self.addrs.len()
    }

    /// The number of dynamic conditional records.
    pub fn len(&self) -> usize {
        self.columns.addrs.len()
    }

    /// Whether the trace holds no conditional records.
    pub fn is_empty(&self) -> bool {
        self.columns.addrs.is_empty()
    }

    /// The conditional records' columns, in original trace order.
    #[inline]
    pub fn records(&self) -> ConditionalView<'_> {
        self.columns.view()
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
        assert_eq!(interned.records().ids(), &[0, 1, 0, 2]);
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
        for (original, (addr, id, outcome)) in trace
            .conditional_records()
            .iter()
            .zip(interned.records().iter())
        {
            assert_eq!(addr, original.addr());
            assert_eq!(outcome, original.outcome());
            assert_eq!(interned.addr_of(id), original.addr());
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
    fn view_slices_cut_all_three_columns() {
        let mut columns = ConditionalColumns::new();
        for (addr, id) in [(0x10, 0), (0x20, 1), (0x10, 0), (0x30, 2)] {
            columns.push(BranchAddr::new(addr), id, addr == 0x10);
        }
        let middle = columns.view().slice(1..3);
        assert_eq!(middle.len(), 2);
        assert_eq!(
            middle.addrs(),
            &[BranchAddr::new(0x20), BranchAddr::new(0x10)]
        );
        assert_eq!(middle.ids(), &[1, 0]);
        assert_eq!(middle.taken(), &[false, true]);
        assert!(columns.view().slice(2..2).is_empty());
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
