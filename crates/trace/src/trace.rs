//! In-memory branch traces and their builder.

use crate::record::BranchRecord;
use crate::stats::TraceStats;
use std::fmt;
use std::sync::OnceLock;

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
/// non-conditional records. Everything else is derived on first read and
/// kept: the per-address [`TraceStats`] ([`Trace::stats`]) and, for a trace
/// that mixes in non-conditional records, the contiguous conditional subset
/// every predictor simulation consumes ([`Trace::conditional_records`]). A
/// trace that is only generated and interned never pays for either.
#[derive(Debug, Clone)]
pub struct Trace {
    metadata: TraceMetadata,
    records: Vec<BranchRecord>,
    /// Number of non-conditional records. When zero, the conditional subset
    /// is `records` itself and `conditional` is never filled.
    other: usize,
    conditional: OnceLock<Vec<BranchRecord>>,
    stats: OnceLock<TraceStats>,
}

impl Trace {
    /// Builds a trace directly from records. Statistics are computed on
    /// first call to [`Trace::stats`].
    pub fn from_records(metadata: TraceMetadata, records: Vec<BranchRecord>) -> Self {
        let other = records
            .iter()
            .filter(|r| !r.kind().is_conditional())
            .count();
        Trace {
            metadata,
            records,
            other,
            conditional: OnceLock::new(),
            stats: OnceLock::new(),
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

    /// The conditional records as a contiguous slice, in trace order — the
    /// stream predictor simulations iterate. For an all-conditional trace
    /// this is the record vector itself; a mixed trace filters its records
    /// on first call and keeps the copy.
    pub fn conditional_records(&self) -> &[BranchRecord] {
        if self.other == 0 {
            &self.records
        } else {
            self.conditional.get_or_init(|| {
                self.records
                    .iter()
                    .copied()
                    .filter(|r| r.kind().is_conditional())
                    .collect()
            })
        }
    }

    /// Interns the conditional-branch stream: every static branch gets a
    /// dense `u32` id so per-branch simulation state can live in flat vectors
    /// instead of address-keyed maps (see [`crate::interned::InternedTrace`]).
    pub fn intern(&self) -> crate::interned::InternedTrace {
        crate::interned::InternedTrace::from_conditional_records(self.conditional_records())
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, BranchRecord> {
        self.records.iter()
    }

    /// The raw statistics over the whole trace, computed on first call and
    /// kept.
    pub fn stats(&self) -> &TraceStats {
        self.stats.get_or_init(|| {
            let mut stats = TraceStats::new();
            for r in &self.records {
                stats.observe(r);
            }
            stats
        })
    }

    /// The number of conditional-branch records.
    pub fn conditional_count(&self) -> u64 {
        (self.records.len() - self.other) as u64
    }

    /// The number of distinct static conditional branches.
    pub fn static_conditional_count(&self) -> usize {
        self.stats().static_conditional_count()
    }

    /// Concatenates another trace onto this one. Derived state is dropped
    /// and recomputed on the next read.
    pub fn extend_from(&mut self, other: &Trace) {
        self.records.extend_from_slice(&other.records);
        self.other += other.other;
        self.conditional = OnceLock::new();
        self.stats = OnceLock::new();
    }
}

/// Two traces are equal when their metadata and records are; whether a
/// derived value has been computed yet does not matter.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.metadata == other.metadata && self.records == other.records
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
        // Filling one side's derived state does not make the traces differ.
        assert_eq!(via_builder.stats().total_conditional(), 3);
        assert_eq!(via_builder, via_records);
        assert_eq!(via_builder.stats(), via_records.stats());
        assert_eq!(via_builder.records(), via_records.records());
    }

    #[test]
    fn building_and_interning_leave_stats_uncomputed() {
        let records = vec![rec(0x10, true), rec(0x10, false), rec(0x20, true)];
        let mut b = TraceBuilder::new("t");
        b.extend(records.clone());
        let built = b.build();
        let direct = Trace::from_records(TraceMetadata::named("t"), records);
        for t in [&built, &direct] {
            assert_eq!(t.intern().len(), 3);
            assert_eq!(t.conditional_count(), 3);
            assert!(t.stats.get().is_none());
            assert_eq!(t.stats().static_conditional_count(), 2);
            assert!(t.stats.get().is_some());
        }
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
            vec![rec(0x10, false), rec(0x20, true)],
        );
        let mut merged = a.clone();
        // Read the left side's stats first: extend_from must not keep them.
        assert_eq!(merged.stats().total_conditional(), 1);
        merged.extend_from(&b);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.conditional_count(), 3);
        assert_eq!(merged.static_conditional_count(), 2);
        let concatenated = Trace::from_records(
            TraceMetadata::named("a"),
            [a.records(), b.records()].concat(),
        );
        assert_eq!(merged.stats(), concatenated.stats());
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
    fn conditional_cache_is_lazy_for_all_conditional_traces() {
        // All-conditional: the subset is the record vector itself, no copy.
        let t: Trace = vec![rec(0x10, true), rec(0x20, false)]
            .into_iter()
            .collect();
        assert_eq!(t.conditional_records().as_ptr(), t.records().as_ptr());
        assert_eq!(t.conditional_records().len(), 2);

        // First non-conditional record materializes the subset (builder path).
        let mut b = TraceBuilder::new("mixed");
        b.push(rec(0x10, true));
        b.push(BranchRecord::new(
            BranchAddr::new(0x14),
            BranchKind::Call,
            Outcome::Taken,
        ));
        b.push(rec(0x18, false));
        let mixed = b.build();
        assert_ne!(
            mixed.conditional_records().as_ptr(),
            mixed.records().as_ptr()
        );
        assert_eq!(
            mixed.conditional_records(),
            &[rec(0x10, true), rec(0x18, false)]
        );

        // extend_from: appending a mixed trace onto an all-conditional one
        // materializes mid-stream and keeps the subset consistent.
        let mut grown: Trace = vec![rec(0x30, true)].into_iter().collect();
        grown.extend_from(&mixed);
        assert_eq!(
            grown.conditional_records(),
            &[rec(0x30, true), rec(0x10, true), rec(0x18, false)]
        );
        // And all-conditional extension keeps the zero-copy representation.
        let mut still_pure: Trace = vec![rec(0x40, true)].into_iter().collect();
        let more: Trace = vec![rec(0x50, false)].into_iter().collect();
        still_pure.extend_from(&more);
        assert_eq!(
            still_pure.conditional_records().as_ptr(),
            still_pure.records().as_ptr()
        );
    }

    #[test]
    fn empty_trace_is_empty() {
        let t = TraceBuilder::new("empty").build();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.conditional_count(), 0);
    }
}
