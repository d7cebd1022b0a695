//! In-memory branch traces and their builder.

use crate::interned::CachedInterner;
use crate::record::BranchRecord;
use std::fmt;

/// Descriptive metadata attached to a trace.
///
/// Mirrors the columns of the paper's Table 1: the benchmark name and the
/// input set the trace corresponds to, plus a free-form description and the
/// generator seed when the trace is synthetic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMetadata {
    /// Benchmark name (e.g. `"gcc"`).
    pub benchmark: String,
    /// Input set identifier (e.g. `"amptjp.i"`).
    pub input_set: String,
    /// Free-form description.
    pub description: String,
    /// Seed used to generate the trace, when synthetic.
    pub seed: Option<u64>,
}

impl TraceMetadata {
    /// Creates metadata with just a benchmark name.
    pub fn named(benchmark: impl Into<String>) -> Self {
        TraceMetadata {
            benchmark: benchmark.into(),
            ..TraceMetadata::default()
        }
    }

    /// Sets the input-set field, builder style.
    #[must_use]
    pub fn with_input_set(mut self, input: impl Into<String>) -> Self {
        self.input_set = input.into();
        self
    }

    /// Sets the seed field, builder style.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// A short label of the form `benchmark(input_set)` used in reports.
    pub fn label(&self) -> String {
        if self.input_set.is_empty() {
            self.benchmark.clone()
        } else {
            format!("{}({})", self.benchmark, self.input_set)
        }
    }
}

/// An immutable, in-memory sequence of dynamic branch executions.
///
/// A `Trace` is its metadata and its records, plus a count of the
/// non-conditional records. It keeps nothing derived: analyses read the
/// conditional stream through [`Trace::intern`], whose columns are what
/// every statistics fold and predictor simulation consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    metadata: TraceMetadata,
    records: Vec<BranchRecord>,
    /// Number of non-conditional records.
    other: usize,
}

impl Trace {
    /// Builds a trace directly from records.
    pub fn from_records(metadata: TraceMetadata, records: Vec<BranchRecord>) -> Self {
        let other = records
            .iter()
            .filter(|r| !r.kind().is_conditional())
            .count();
        Trace {
            metadata,
            records,
            other,
        }
    }

    /// The trace metadata.
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    /// The number of records (of any kind) in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace contains no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records as a slice.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Interns the conditional-branch stream, skipping every other record:
    /// each static branch gets a dense `u32` id so per-branch state can live
    /// in flat vectors instead of address-keyed maps (see
    /// [`crate::interned::InternedTrace`]).
    pub fn intern(&self) -> crate::interned::InternedTrace {
        crate::interned::InternedTrace::from_records(&self.records, self.records.len() - self.other)
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchRecord> {
        self.records.iter()
    }

    /// The number of conditional-branch records.
    pub fn conditional_count(&self) -> u64 {
        (self.records.len() - self.other) as u64
    }

    /// The number of distinct static conditional branches: the id table
    /// [`Trace::intern`] would build, without the columns.
    pub fn static_conditional_count(&self) -> usize {
        let mut interner = CachedInterner::new();
        for r in self.records.iter().filter(|r| r.kind().is_conditional()) {
            interner.intern(r.addr());
        }
        interner.addrs().len()
    }

    /// Concatenates another trace onto this one.
    pub fn extend_from(&mut self, other: &Trace) {
        self.records.extend_from_slice(&other.records);
        self.other += other.other;
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace {} [{} records, {} conditional, {} static branches]",
            self.metadata.label(),
            self.len(),
            self.conditional_count(),
            self.static_conditional_count()
        )
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = std::slice::Iter<'a, BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = BranchRecord;
    type IntoIter = std::vec::IntoIter<BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

/// Incremental builder for [`Trace`]: appends records, nothing more.
///
/// ```
/// use btr_trace::{BranchAddr, BranchRecord, Outcome, TraceBuilder};
/// let mut b = TraceBuilder::new("compress").with_input_set("bigtest.in");
/// b.push(BranchRecord::conditional(BranchAddr::new(0x40), Outcome::Taken));
/// let t = b.build();
/// assert_eq!(t.metadata().benchmark, "compress");
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    metadata: TraceMetadata,
    records: Vec<BranchRecord>,
}

impl TraceBuilder {
    /// Creates a builder with the given benchmark name.
    pub fn new(benchmark: impl Into<String>) -> Self {
        TraceBuilder::with_metadata(TraceMetadata::named(benchmark))
    }

    /// Creates a builder with full metadata.
    pub fn with_metadata(metadata: TraceMetadata) -> Self {
        TraceBuilder {
            metadata,
            records: Vec::new(),
        }
    }

    /// Sets the input-set metadata field.
    #[must_use]
    pub fn with_input_set(mut self, input: impl Into<String>) -> Self {
        self.metadata.input_set = input.into();
        self
    }

    /// Sets the seed metadata field.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.metadata.seed = Some(seed);
        self
    }

    /// Reserves capacity for `additional` more records.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Appends a record.
    pub fn push(&mut self, record: BranchRecord) -> &mut Self {
        self.records.push(record);
        self
    }

    /// Appends every record from an iterator.
    pub fn extend<I: IntoIterator<Item = BranchRecord>>(&mut self, records: I) -> &mut Self {
        self.records.extend(records);
        self
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finalizes the builder into an immutable [`Trace`].
    pub fn build(self) -> Trace {
        Trace::from_records(self.metadata, self.records)
    }
}

impl Extend<BranchRecord> for TraceBuilder {
    fn extend<T: IntoIterator<Item = BranchRecord>>(&mut self, iter: T) {
        TraceBuilder::extend(self, iter);
    }
}

impl FromIterator<BranchRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = BranchRecord>>(iter: T) -> Self {
        let mut b = TraceBuilder::new("anonymous");
        b.extend(iter);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BranchAddr, BranchKind, Outcome};

    fn rec(addr: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(BranchAddr::new(addr), Outcome::from_bool(taken))
    }

    #[test]
    fn builder_and_from_records_agree() {
        let records = vec![rec(0x10, true), rec(0x10, false), rec(0x20, true)];
        let mut b = TraceBuilder::new("t");
        b.extend(records.clone());
        let via_builder = b.build();
        let via_records = Trace::from_records(TraceMetadata::named("t"), records);
        assert_eq!(via_builder, via_records);
        assert_eq!(via_builder.intern(), via_records.intern());
        assert_eq!(via_builder.static_conditional_count(), 2);
        assert_eq!(via_builder.records(), via_records.records());
    }

    #[test]
    fn metadata_label_formats() {
        let m = TraceMetadata::named("gcc")
            .with_input_set("cccp.i")
            .with_seed(7);
        assert_eq!(m.label(), "gcc(cccp.i)");
        assert_eq!(m.seed, Some(7));
        assert_eq!(TraceMetadata::named("go").label(), "go");
    }

    #[test]
    fn trace_counters_track_kinds() {
        let mut b = TraceBuilder::new("mix");
        b.push(rec(0x10, true));
        b.push(BranchRecord::new(
            BranchAddr::new(0x14),
            BranchKind::Call,
            Outcome::Taken,
        ));
        b.push(BranchRecord::new(
            BranchAddr::new(0x18),
            BranchKind::Return,
            Outcome::Taken,
        ));
        let t = b.build();
        assert_eq!(t.len(), 3);
        assert_eq!(t.conditional_count(), 1);
        assert_eq!(t.static_conditional_count(), 1);
    }

    #[test]
    fn extend_from_merges_statistics() {
        let a = Trace::from_records(TraceMetadata::named("a"), vec![rec(0x10, true)]);
        let b = Trace::from_records(
            TraceMetadata::named("b"),
            vec![
                rec(0x10, false),
                BranchRecord::new(BranchAddr::new(0x14), BranchKind::Call, Outcome::Taken),
                rec(0x20, true),
            ],
        );
        let mut merged = a.clone();
        merged.extend_from(&b);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.conditional_count(), 3);
        assert_eq!(merged.static_conditional_count(), 2);
        let concatenated = Trace::from_records(
            TraceMetadata::named("a"),
            [a.records(), b.records()].concat(),
        );
        assert_eq!(merged, concatenated);
        let interned = merged.intern();
        assert_eq!(interned, concatenated.intern());
        assert_eq!(interned.records().ids(), &[0, 0, 1]);
        assert_eq!(interned.records().taken(), &[true, false, true]);
    }

    #[test]
    fn iteration_and_display() {
        let t: Trace = vec![rec(0x10, true), rec(0x14, false)]
            .into_iter()
            .collect();
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        let s = t.to_string();
        assert!(s.contains("2 records"));
        let owned: Vec<_> = t.into_iter().collect();
        assert_eq!(owned.len(), 2);
    }

    #[test]
    fn empty_trace_is_empty() {
        let t = TraceBuilder::new("empty").build();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.conditional_count(), 0);
    }
}
