//! Classification analyses: easy-branch coverage, misclassification, and
//! per-class miss-rate aggregation across history lengths.
//!
//! The simulation harness (`btr-sim`) produces per-branch prediction
//! statistics for each predictor configuration; the types here fold those
//! statistics over taken-rate, transition-rate or joint classes to produce
//! the numbers behind the paper's Figures 3–14 and the §4.2 coverage
//! comparison.

use crate::class::{BinningScheme, ClassId};
use crate::distribution::Metric;
use crate::joint::JointClassTable;
use crate::profile::{BranchProfile, ProgramProfile};
use btr_predictors::predictor::PredictionStats;
use btr_trace::BranchAddr;
use btr_wire::{MapBuilder, Value, Wire, WireError};
use std::collections::BTreeMap;

/// Per-branch prediction statistics for one predictor configuration, keyed by
/// branch address.
pub type BranchMissMap = BTreeMap<BranchAddr, PredictionStats>;

/// Lowers a [`BranchMissMap`] to the wire data model: three equal-length
/// dense unsigned columns (`addrs` sorted ascending — the map's iteration
/// order — plus per-branch `lookups` and `hits`), so address columns
/// delta-encode compactly in `BTRW`.
///
/// Free functions rather than a [`Wire`] impl because the alias's underlying
/// type (`BTreeMap`) is foreign to this crate.
pub fn miss_map_to_value(map: &BranchMissMap) -> Value {
    let mut addrs = Vec::with_capacity(map.len());
    let mut lookups = Vec::with_capacity(map.len());
    let mut hits = Vec::with_capacity(map.len());
    for (addr, stats) in map {
        addrs.push(addr.raw());
        lookups.push(stats.lookups);
        hits.push(stats.hits);
    }
    MapBuilder::new()
        .field("addrs", addrs)
        .field("lookups", lookups)
        .field("hits", hits)
        .build()
}

/// Rebuilds a [`BranchMissMap`] from the columnar form produced by
/// [`miss_map_to_value`], validating column lengths, per-branch
/// `hits ≤ lookups`, and address uniqueness.
///
/// # Errors
///
/// Returns a schema error on any violated invariant.
pub fn miss_map_from_value(value: &Value) -> Result<BranchMissMap, WireError> {
    let addrs = value.get("addrs")?.as_u64_seq()?;
    let lookups = value.get("lookups")?.as_u64_seq()?;
    let hits = value.get("hits")?.as_u64_seq()?;
    if lookups.len() != addrs.len() || hits.len() != addrs.len() {
        return Err(WireError::schema(format!(
            "miss map columns disagree on length: {} addrs, {} lookups, {} hits",
            addrs.len(),
            lookups.len(),
            hits.len()
        )));
    }
    let mut map = BranchMissMap::new();
    for (i, &addr) in addrs.iter().enumerate() {
        if hits[i] > lookups[i] {
            return Err(WireError::schema(format!(
                "miss map branch {addr:#x}: {} hits out of {} lookups",
                hits[i], lookups[i]
            )));
        }
        let stats = PredictionStats {
            lookups: lookups[i],
            hits: hits[i],
        };
        if map.insert(BranchAddr::new(addr), stats).is_some() {
            return Err(WireError::schema(format!(
                "miss map lists branch {addr:#x} twice"
            )));
        }
    }
    Ok(map)
}

/// Encodes a grid of optional miss rates as a list of lists with `null`
/// marking empty cells.
fn rates_to_value(rates: &[Vec<Option<f64>>]) -> Value {
    Value::List(
        rates
            .iter()
            .map(|row| Value::List(row.iter().map(|r| Value::opt_f64(*r)).collect()))
            .collect(),
    )
}

/// Decodes a grid of optional miss rates, validating each row's width.
fn rates_from_value(
    value: &Value,
    rows: usize,
    cols: usize,
    what: &str,
) -> Result<Vec<Vec<Option<f64>>>, WireError> {
    let grid = value.as_list()?;
    if grid.len() != rows {
        return Err(WireError::schema(format!(
            "{what} has {} rows, expected {rows}",
            grid.len()
        )));
    }
    grid.iter()
        .map(|row| {
            let row = row.as_list()?;
            if row.len() != cols {
                return Err(WireError::schema(format!(
                    "{what} row has {} cells, expected {cols}",
                    row.len()
                )));
            }
            row.iter().map(Value::as_opt_f64).collect()
        })
        .collect()
}

/// Per-branch prediction statistics indexed by a dense static-branch id
/// (see `btr_trace::InternedTrace`) instead of an address-keyed map.
///
/// The simulation hot loop records one hit/miss per dynamic branch; with a
/// `BranchMissMap` that is a `BTreeMap` lookup per record, with this table it
/// is a single vector index. [`DenseMissTable::into_map`] converts to the
/// map-keyed form once per run so every downstream analysis
/// ([`ClassMissRates`], [`JointMissMatrix`], …) is untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseMissTable {
    stats: Vec<PredictionStats>,
}

impl DenseMissTable {
    /// Creates a table covering `static_count` branch ids, all zeroed.
    pub fn new(static_count: usize) -> Self {
        DenseMissTable {
            stats: vec![PredictionStats::new(); static_count],
        }
    }

    /// Wraps already-accumulated per-id statistics in a table (the fused
    /// multi-history engine path accumulates all history slots in one
    /// id-major arena, then splits it into one table per slot).
    ///
    /// Debug builds assert every entry has `hits <= lookups`.
    pub fn from_stats(stats: Vec<PredictionStats>) -> Self {
        debug_assert!(stats.iter().all(|s| s.hits <= s.lookups));
        DenseMissTable { stats }
    }

    /// Records one prediction result for the branch with dense id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the `static_count` the table was built with.
    #[inline]
    pub fn record(&mut self, id: u32, hit: bool) {
        self.stats[id as usize].record(hit);
    }

    /// The per-id statistics slice.
    pub fn stats(&self) -> &[PredictionStats] {
        &self.stats
    }

    /// Grows the table with zeroed entries so ids `0 .. static_count` are
    /// valid. Never shrinks. Streaming consumers discover static branches
    /// incrementally, so their tables grow as new ids first appear instead of
    /// being sized up front.
    pub fn grow_to(&mut self, static_count: usize) {
        if static_count > self.stats.len() {
            self.stats.resize(static_count, PredictionStats::new());
        }
    }

    /// Records one prediction result, growing the table first if `id` is
    /// beyond the current size (the streaming counterpart of
    /// [`DenseMissTable::record`]).
    #[inline]
    pub fn record_growing(&mut self, id: u32, hit: bool) {
        if id as usize >= self.stats.len() {
            self.grow_to(id as usize + 1);
        }
        self.stats[id as usize].record(hit);
    }

    /// Adds another table's per-id counts into this one, index-wise, growing
    /// this table if the other is larger.
    ///
    /// Prediction statistics are plain hit/lookup counters, so merging window
    /// or chunk partials this way is exact: the merged table is bit-identical
    /// to one accumulated sequentially, whatever the partition. This is what
    /// the windowed-parallel simulation path merges its per-window partials
    /// with.
    pub fn merge(&mut self, other: &DenseMissTable) {
        self.grow_to(other.stats.len());
        for (mine, theirs) in self.stats.iter_mut().zip(&other.stats) {
            mine.merge(theirs);
        }
    }

    /// Converts to the address-keyed [`BranchMissMap`], resolving each dense
    /// id through `addrs` (the interned id → address table).
    ///
    /// Ids with zero lookups are omitted, exactly as the map-building
    /// simulation path never creates entries for branches it never counted —
    /// so both paths produce identical maps.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is shorter than the table.
    pub fn into_map(self, addrs: &[BranchAddr]) -> BranchMissMap {
        assert!(
            addrs.len() >= self.stats.len(),
            "id → address table shorter than the statistics table"
        );
        self.stats
            .into_iter()
            .enumerate()
            .filter(|(_, s)| s.lookups > 0)
            .map(|(id, s)| (addrs[id], s))
            .collect()
    }
}

/// Pairs each profiled branch with its statistics in `misses`, in address
/// order: a merge join of two address-sorted sequences. Branches on only one
/// side are skipped.
fn join_by_addr<'a>(
    profile: &'a ProgramProfile,
    misses: &'a BranchMissMap,
) -> impl Iterator<Item = (&'a BranchProfile, &'a PredictionStats)> {
    let mut misses = misses.iter().peekable();
    profile.iter().filter_map(move |branch| {
        let addr = branch.addr();
        while misses.next_if(|(a, _)| **a < addr).is_some() {}
        misses
            .next_if(|(a, _)| **a == addr)
            .map(|(_, s)| (branch, s))
    })
}

/// Miss rates aggregated over the classes of one metric (one bar group of
/// Figure 3 or Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMissRates {
    metric: Metric,
    scheme: BinningScheme,
    stats: Vec<PredictionStats>,
}

impl ClassMissRates {
    /// Aggregates per-branch statistics into per-class statistics, assigning
    /// each branch to its class under `metric` / `scheme`.
    ///
    /// The profile and `misses` are both sorted by address, so they are
    /// merge-joined in one walk rather than probing `misses` per branch; a
    /// branch is classified only when it has statistics.
    pub fn aggregate(
        profile: &ProgramProfile,
        metric: Metric,
        scheme: BinningScheme,
        misses: &BranchMissMap,
    ) -> Self {
        let mut stats = vec![PredictionStats::new(); scheme.class_count()];
        for (branch, s) in join_by_addr(profile, misses) {
            let class = match metric {
                Metric::TakenRate => branch.taken_class(scheme),
                Metric::TransitionRate => branch.transition_class(scheme),
            };
            if let Some(class) = class {
                stats[class.index()].merge(s);
            }
        }
        ClassMissRates {
            metric,
            scheme,
            stats,
        }
    }

    /// The metric branches were classified by.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The binning scheme used.
    pub fn scheme(&self) -> BinningScheme {
        self.scheme
    }

    /// The aggregated statistics for one class.
    pub fn stats(&self, class: ClassId) -> PredictionStats {
        self.stats.get(class.index()).copied().unwrap_or_default()
    }

    /// The miss rate for one class, or `None` if no branch of that class was
    /// simulated.
    pub fn miss_rate(&self, class: ClassId) -> Option<f64> {
        self.stats(class).miss_rate()
    }

    /// Miss rates for every class in order (`None` for empty classes).
    pub fn miss_rates(&self) -> Vec<Option<f64>> {
        self.scheme.classes().map(|c| self.miss_rate(c)).collect()
    }

    /// Overall miss rate across all classes.
    pub fn overall_miss_rate(&self) -> Option<f64> {
        let mut total = PredictionStats::new();
        for s in &self.stats {
            total.merge(s);
        }
        total.miss_rate()
    }
}

/// Miss rates per (class, history length) — the colormaps of Figures 5–8 and
/// the line plots of Figures 9–12.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassHistoryMatrix {
    metric: Metric,
    scheme: BinningScheme,
    history_lengths: Vec<u32>,
    /// `rates[class][history_index]`.
    rates: Vec<Vec<Option<f64>>>,
}

impl ClassHistoryMatrix {
    /// Builds the matrix from one [`ClassMissRates`] per history length.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty or the runs disagree on metric or scheme.
    pub fn from_runs(runs: &[(u32, ClassMissRates)]) -> Self {
        assert!(!runs.is_empty(), "at least one history length is required");
        let metric = runs[0].1.metric();
        let scheme = runs[0].1.scheme();
        assert!(
            runs.iter()
                .all(|(_, r)| r.metric() == metric && r.scheme() == scheme),
            "all runs must use the same metric and binning scheme"
        );
        let history_lengths: Vec<u32> = runs.iter().map(|(h, _)| *h).collect();
        let rates = scheme
            .classes()
            .map(|class| runs.iter().map(|(_, r)| r.miss_rate(class)).collect())
            .collect();
        ClassHistoryMatrix {
            metric,
            scheme,
            history_lengths,
            rates,
        }
    }

    /// The metric branches were classified by.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The binning scheme used.
    pub fn scheme(&self) -> BinningScheme {
        self.scheme
    }

    /// The history lengths covered, in run order.
    pub fn history_lengths(&self) -> &[u32] {
        &self.history_lengths
    }

    /// The miss rate of `class` at history length `history`, if simulated.
    pub fn miss_at(&self, class: ClassId, history: u32) -> Option<f64> {
        let idx = self.history_lengths.iter().position(|h| *h == history)?;
        self.rates.get(class.index())?.get(idx).copied().flatten()
    }

    /// The full row of miss rates for one class (one curve of Figures 9–12).
    pub fn row(&self, class: ClassId) -> Vec<Option<f64>> {
        self.rates.get(class.index()).cloned().unwrap_or_default()
    }

    /// The history length minimising the miss rate of `class`, with that
    /// miss rate.
    pub fn optimal_history(&self, class: ClassId) -> Option<(u32, f64)> {
        let row = self.rates.get(class.index())?;
        let mut best: Option<(u32, f64)> = None;
        for (idx, rate) in row.iter().enumerate() {
            if let Some(rate) = rate {
                if best.map(|(_, b)| *rate < b).unwrap_or(true) {
                    best = Some((self.history_lengths[idx], *rate));
                }
            }
        }
        best
    }

    /// Miss rate of each class at its own optimal history length
    /// (the bars of Figures 3 and 4).
    pub fn optimal_miss_rates(&self) -> Vec<Option<f64>> {
        self.scheme
            .classes()
            .map(|c| self.optimal_history(c).map(|(_, rate)| rate))
            .collect()
    }
}

/// [`ClassHistoryMatrix`] encodes its `rates[class][history_index]` grid with
/// `null` for never-simulated cells.
impl Wire for ClassHistoryMatrix {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("metric", self.metric.to_value())
            .field("scheme", self.scheme.to_value())
            .field(
                "history_lengths",
                self.history_lengths
                    .iter()
                    .map(|h| u64::from(*h))
                    .collect::<Vec<u64>>(),
            )
            .field("rates", rates_to_value(&self.rates))
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let metric = Metric::from_value(value.get("metric")?)?;
        let scheme = BinningScheme::from_value(value.get("scheme")?)?;
        let history_lengths = value
            .get("history_lengths")?
            .as_u64_seq()?
            .into_iter()
            .map(|h| u32::try_from(h).map_err(|_| WireError::schema("history length exceeds u32")))
            .collect::<Result<Vec<u32>, WireError>>()?;
        let rates = rates_from_value(
            value.get("rates")?,
            scheme.class_count(),
            history_lengths.len(),
            "class-history rate grid",
        )?;
        Ok(ClassHistoryMatrix {
            metric,
            scheme,
            history_lengths,
            rates,
        })
    }
}

/// Miss rates per joint (taken, transition) cell at the per-cell optimal
/// history length (Figures 13 and 14).
#[derive(Debug, Clone, PartialEq)]
pub struct JointMissMatrix {
    scheme: BinningScheme,
    /// `rates[transition][taken]`.
    rates: Vec<Vec<Option<f64>>>,
}

impl JointMissMatrix {
    /// Builds the joint matrix from per-branch miss maps, one per history
    /// length: each cell aggregates its branches at every history length and
    /// keeps the best (minimum) miss rate.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn from_history_runs(
        profile: &ProgramProfile,
        scheme: BinningScheme,
        runs: &[(u32, BranchMissMap)],
    ) -> Self {
        assert!(!runs.is_empty(), "at least one history length is required");
        let n = scheme.class_count();
        // stats[history][transition][taken]
        let mut per_history = vec![vec![vec![PredictionStats::new(); n]; n]; runs.len()];
        for ((_, misses), cells) in runs.iter().zip(&mut per_history) {
            for (branch, s) in join_by_addr(profile, misses) {
                if let Some((taken, transition)) = branch.joint_class(scheme) {
                    cells[transition.index()][taken.index()].merge(s);
                }
            }
        }
        let mut rates = vec![vec![None; n]; n];
        for transition in 0..n {
            for taken in 0..n {
                let mut best: Option<f64> = None;
                for h in &per_history {
                    if let Some(rate) = h[transition][taken].miss_rate() {
                        best = Some(best.map_or(rate, |b: f64| b.min(rate)));
                    }
                }
                rates[transition][taken] = best;
            }
        }
        JointMissMatrix { scheme, rates }
    }

    /// The binning scheme used.
    pub fn scheme(&self) -> BinningScheme {
        self.scheme
    }

    /// The (optimal-history) miss rate of one joint cell.
    pub fn miss_at(&self, taken: ClassId, transition: ClassId) -> Option<f64> {
        self.rates
            .get(transition.index())
            .and_then(|row| row.get(taken.index()))
            .copied()
            .flatten()
    }

    /// The worst-predicted cell and its miss rate.
    pub fn worst_cell(&self) -> Option<(ClassId, ClassId, f64)> {
        let mut worst: Option<(ClassId, ClassId, f64)> = None;
        for (t_idx, row) in self.rates.iter().enumerate() {
            for (k_idx, rate) in row.iter().enumerate() {
                if let Some(rate) = rate {
                    if worst.map(|(_, _, w)| *rate > w).unwrap_or(true) {
                        worst = Some((ClassId(k_idx), ClassId(t_idx), *rate));
                    }
                }
            }
        }
        worst
    }
}

/// [`JointMissMatrix`] encodes its `rates[transition][taken]` grid with
/// `null` for empty cells.
impl Wire for JointMissMatrix {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("scheme", self.scheme.to_value())
            .field("rates", rates_to_value(&self.rates))
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let scheme = BinningScheme::from_value(value.get("scheme")?)?;
        let n = scheme.class_count();
        let rates = rates_from_value(value.get("rates")?, n, n, "joint miss-rate grid")?;
        Ok(JointMissMatrix { scheme, rates })
    }
}

/// The §4.2 comparison of the two classification metrics: how much of the
/// dynamic branch stream each metric certifies as "easy" (predictable with
/// little or no history), and how much taken-rate classification therefore
/// mislabels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationAnalysis {
    /// Coverage (percent of dynamic branches) of the taken-rate easy classes
    /// (0 and 10): the paper reports 62.90%.
    pub taken_easy_coverage: f64,
    /// Coverage of transition-rate classes 0–1 (easy for GAs): 71.62%.
    pub transition_easy_coverage_gas: f64,
    /// Coverage of transition-rate classes 0, 1, 9, 10 (easy for PAs): 72.19%.
    pub transition_easy_coverage_pas: f64,
    /// Dynamic branches misclassified as hard by taken rate, GAs view: 8.72%.
    pub misclassified_gas: f64,
    /// Dynamic branches misclassified as hard by taken rate, PAs view: 9.29%.
    pub misclassified_pas: f64,
}

impl ClassificationAnalysis {
    /// Computes the comparison from a joint class table.
    pub fn from_table(table: &JointClassTable) -> Self {
        let scheme = table.scheme();
        let taken_easy = scheme.taken_easy_classes();
        let gas_easy = scheme.transition_easy_classes_gas();
        let pas_easy = scheme.transition_easy_classes_pas();
        ClassificationAnalysis {
            taken_easy_coverage: table.taken_coverage(&taken_easy),
            transition_easy_coverage_gas: table.transition_coverage(&gas_easy),
            transition_easy_coverage_pas: table.transition_coverage(&pas_easy),
            misclassified_gas: table.misclassified_percent(&gas_easy, &taken_easy),
            misclassified_pas: table.misclassified_percent(&pas_easy, &taken_easy),
        }
    }

    /// Relative improvement of PAs-view transition classification over taken
    /// classification (the paper quotes "almost a 15% improvement").
    pub fn relative_improvement_pas(&self) -> f64 {
        if self.taken_easy_coverage == 0.0 {
            0.0
        } else {
            self.misclassified_pas / self.taken_easy_coverage * 100.0
        }
    }
}

/// [`ClassificationAnalysis`] encodes its five coverage percentages
/// field-for-field.
impl Wire for ClassificationAnalysis {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("taken_easy_coverage", self.taken_easy_coverage)
            .field(
                "transition_easy_coverage_gas",
                self.transition_easy_coverage_gas,
            )
            .field(
                "transition_easy_coverage_pas",
                self.transition_easy_coverage_pas,
            )
            .field("misclassified_gas", self.misclassified_gas)
            .field("misclassified_pas", self.misclassified_pas)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        Ok(ClassificationAnalysis {
            taken_easy_coverage: value.get("taken_easy_coverage")?.as_f64()?,
            transition_easy_coverage_gas: value.get("transition_easy_coverage_gas")?.as_f64()?,
            transition_easy_coverage_pas: value.get("transition_easy_coverage_pas")?.as_f64()?,
            misclassified_gas: value.get("misclassified_gas")?.as_f64()?,
            misclassified_pas: value.get("misclassified_pas")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BranchProfile;

    fn profile_with(branches: &[(u64, u64, u64, u64)]) -> ProgramProfile {
        branches
            .iter()
            .map(|(addr, execs, taken, trans)| {
                BranchProfile::new(BranchAddr::new(*addr), *execs, *taken, *trans)
            })
            .collect()
    }

    fn miss_map(entries: &[(u64, u64, u64)]) -> BranchMissMap {
        entries
            .iter()
            .map(|(addr, lookups, hits)| {
                let mut s = PredictionStats::new();
                for i in 0..*lookups {
                    s.record(i < *hits);
                }
                (BranchAddr::new(*addr), s)
            })
            .collect()
    }

    fn sample_profile() -> ProgramProfile {
        profile_with(&[
            (0x10, 100, 97, 4),  // (10, 0) easy
            (0x20, 100, 50, 50), // (5, 5) hard
            (0x30, 100, 50, 97), // (5, 10) alternator
        ])
    }

    #[test]
    fn dense_miss_table_converts_to_identical_map() {
        let addrs = [
            BranchAddr::new(0x30),
            BranchAddr::new(0x10),
            BranchAddr::new(0x20),
        ];
        let mut dense = DenseMissTable::new(addrs.len());
        let mut map = BranchMissMap::new();
        // id 1 never recorded: it must be absent from the converted map.
        for (id, hit) in [(0u32, true), (2, false), (0, false), (2, true), (2, true)] {
            dense.record(id, hit);
            map.entry(addrs[id as usize]).or_default().record(hit);
        }
        assert_eq!(dense.stats().len(), 3);
        assert_eq!(dense.stats()[1], PredictionStats::new());
        let converted = dense.into_map(&addrs);
        assert_eq!(converted, map);
        assert!(!converted.contains_key(&BranchAddr::new(0x10)));
    }

    #[test]
    fn dense_miss_table_merge_matches_sequential_accumulation() {
        // Partition one hit/miss stream into two windows; merging the window
        // partials must equal the sequentially accumulated table.
        let events: Vec<(u32, bool)> = (0..50u32).map(|i| (i % 5, i % 3 == 0)).collect();
        let mut sequential = DenseMissTable::new(5);
        for &(id, hit) in &events {
            sequential.record(id, hit);
        }
        let (first, second) = events.split_at(23);
        let mut a = DenseMissTable::new(5);
        let mut b = DenseMissTable::new(0);
        for &(id, hit) in first {
            a.record(id, hit);
        }
        for &(id, hit) in second {
            b.record_growing(id, hit);
        }
        a.merge(&b);
        assert_eq!(a, sequential);
        // Merging an empty partial is a no-op.
        a.merge(&DenseMissTable::new(0));
        assert_eq!(a, sequential);
        // Merging into the smaller side grows it first.
        let mut c = DenseMissTable::new(0);
        c.merge(&sequential);
        assert_eq!(c, sequential);
    }

    #[test]
    fn dense_miss_table_grows_on_demand() {
        let mut t = DenseMissTable::new(1);
        t.record_growing(4, true);
        assert_eq!(t.stats().len(), 5);
        assert_eq!(t.stats()[4].lookups, 1);
        t.grow_to(3); // never shrinks
        assert_eq!(t.stats().len(), 5);
    }

    #[test]
    #[should_panic(expected = "shorter than the statistics table")]
    fn dense_miss_table_rejects_short_addr_table() {
        let dense = DenseMissTable::new(2);
        let _ = dense.into_map(&[BranchAddr::new(0x10)]);
    }

    #[test]
    fn class_miss_rates_aggregate_by_class() {
        let profile = sample_profile();
        let misses = miss_map(&[(0x10, 100, 98), (0x20, 100, 52), (0x30, 100, 95)]);
        let scheme = BinningScheme::Paper11;
        let by_taken = ClassMissRates::aggregate(&profile, Metric::TakenRate, scheme, &misses);
        // Class 10 contains only the biased branch.
        assert!(
            (by_taken
                .miss_rate(ClassId(10))
                .expect("class 10 holds the biased branch")
                - 0.02)
                .abs()
                < 1e-9
        );
        // Class 5 pools the hard branch and the alternator: (48 + 5) / 200.
        assert!(
            (by_taken
                .miss_rate(ClassId(5))
                .expect("class 5 pools two branches")
                - 53.0 / 200.0)
                .abs()
                < 1e-9
        );
        assert_eq!(by_taken.miss_rate(ClassId(3)), None);

        let by_transition =
            ClassMissRates::aggregate(&profile, Metric::TransitionRate, scheme, &misses);
        // Transition class 10 isolates the alternator: 5/100.
        assert!(
            (by_transition
                .miss_rate(ClassId(10))
                .expect("transition class 10 holds the alternator")
                - 0.05)
                .abs()
                < 1e-9
        );
        assert!(
            (by_transition
                .overall_miss_rate()
                .expect("profile has executions")
                - 55.0 / 300.0)
                .abs()
                < 1e-9
        );
        assert_eq!(by_transition.miss_rates().len(), 11);
    }

    #[test]
    fn class_history_matrix_tracks_optima() {
        let profile = sample_profile();
        let scheme = BinningScheme::Paper11;
        // History 0: alternator is terrible. History 2: alternator is great.
        let h0 = ClassMissRates::aggregate(
            &profile,
            Metric::TransitionRate,
            scheme,
            &miss_map(&[(0x10, 100, 97), (0x20, 100, 50), (0x30, 100, 2)]),
        );
        let h2 = ClassMissRates::aggregate(
            &profile,
            Metric::TransitionRate,
            scheme,
            &miss_map(&[(0x10, 100, 96), (0x20, 100, 52), (0x30, 100, 98)]),
        );
        let matrix = ClassHistoryMatrix::from_runs(&[(0, h0), (2, h2)]);
        assert_eq!(matrix.history_lengths(), &[0, 2]);
        assert!(
            (matrix
                .miss_at(ClassId(10), 0)
                .expect("history 0 recorded for class 10")
                - 0.98)
                .abs()
                < 1e-9
        );
        assert!(
            (matrix
                .miss_at(ClassId(10), 2)
                .expect("history 2 recorded for class 10")
                - 0.02)
                .abs()
                < 1e-9
        );
        let (best_h, best_rate) = matrix
            .optimal_history(ClassId(10))
            .expect("class 10 has an optimum");
        assert_eq!(best_h, 2);
        assert!((best_rate - 0.02).abs() < 1e-9);
        // Class 0 (the biased branch) prefers zero history here.
        let (best_h0, _) = matrix
            .optimal_history(ClassId(0))
            .expect("class 0 has an optimum");
        assert_eq!(best_h0, 0);
        assert_eq!(matrix.optimal_miss_rates().len(), 11);
        assert_eq!(matrix.miss_at(ClassId(10), 7), None);
        assert_eq!(matrix.row(ClassId(3)), vec![None, None]);
    }

    #[test]
    fn joint_miss_matrix_finds_the_hard_centre() {
        let profile = sample_profile();
        let scheme = BinningScheme::Paper11;
        let runs = vec![
            (
                0u32,
                miss_map(&[(0x10, 100, 98), (0x20, 100, 52), (0x30, 100, 2)]),
            ),
            (
                2u32,
                miss_map(&[(0x10, 100, 97), (0x20, 100, 50), (0x30, 100, 97)]),
            ),
        ];
        let matrix = JointMissMatrix::from_history_runs(&profile, scheme, &runs);
        // The 5/5 cell keeps its best (still bad) rate.
        assert!(
            (matrix
                .miss_at(ClassId(5), ClassId(5))
                .expect("5/5 cell is populated")
                - 0.48)
                .abs()
                < 1e-9
        );
        // The alternator cell takes the history-2 rate.
        assert!(
            (matrix
                .miss_at(ClassId(5), ClassId(10))
                .expect("5/10 cell is populated")
                - 0.03)
                .abs()
                < 1e-9
        );
        let (taken, transition, rate) = matrix.worst_cell().expect("matrix has populated cells");
        assert_eq!((taken, transition), (ClassId(5), ClassId(5)));
        assert!(rate > 0.4);
        assert_eq!(matrix.miss_at(ClassId(3), ClassId(3)), None);
        assert_eq!(matrix.scheme(), scheme);
    }

    #[test]
    fn classification_analysis_matches_hand_computation() {
        let profile = sample_profile();
        let table = JointClassTable::from_profile(&profile, BinningScheme::Paper11);
        let analysis = ClassificationAnalysis::from_table(&table);
        // Taken-easy covers only the biased branch: 1/3 of executions.
        assert!((analysis.taken_easy_coverage - 100.0 / 3.0).abs() < 1e-9);
        // Transition classes 0-1 also cover only the biased branch.
        assert!((analysis.transition_easy_coverage_gas - 100.0 / 3.0).abs() < 1e-9);
        // PAs view additionally captures the alternator.
        assert!((analysis.transition_easy_coverage_pas - 200.0 / 3.0).abs() < 1e-9);
        assert!((analysis.misclassified_pas - 100.0 / 3.0).abs() < 1e-9);
        assert!((analysis.misclassified_gas - 0.0).abs() < 1e-9);
        assert!(analysis.relative_improvement_pas() > 99.0);
    }

    #[test]
    #[should_panic(expected = "at least one history length")]
    fn empty_matrix_runs_rejected() {
        let _ = ClassHistoryMatrix::from_runs(&[]);
    }

    #[test]
    fn miss_maps_roundtrip_and_validate_on_the_wire() {
        let map = miss_map(&[(0x10, 100, 98), (0x20, 100, 52), (u64::MAX, 7, 0)]);
        let back =
            miss_map_from_value(&miss_map_to_value(&map)).expect("round-tripped miss map decodes");
        assert_eq!(back, map);
        // Through both codecs via the schemaless Value impl.
        let value = miss_map_to_value(&map);
        let via_json = btr_wire::json::from_str(
            &btr_wire::json::to_string(&value).expect("miss map encodes as JSON"),
        )
        .expect("canonical JSON parses");
        assert_eq!(
            miss_map_from_value(&via_json).expect("JSON round trip decodes"),
            map
        );
        let via_btrw = btr_wire::btrw::from_bytes(&btr_wire::btrw::to_bytes(&value))
            .expect("BTRW round trip parses");
        assert_eq!(
            miss_map_from_value(&via_btrw).expect("BTRW round trip decodes"),
            map
        );
        // hits > lookups and duplicate addresses are rejected.
        let bad = MapBuilder::new()
            .field("addrs", vec![1u64])
            .field("lookups", vec![1u64])
            .field("hits", vec![2u64])
            .build();
        assert!(miss_map_from_value(&bad).is_err());
        let dup = MapBuilder::new()
            .field("addrs", vec![1u64, 1])
            .field("lookups", vec![1u64, 1])
            .field("hits", vec![0u64, 0])
            .build();
        assert!(miss_map_from_value(&dup).is_err());
    }

    #[test]
    fn matrices_and_analysis_roundtrip_on_the_wire() {
        let profile = sample_profile();
        let scheme = BinningScheme::Paper11;
        let h0 = ClassMissRates::aggregate(
            &profile,
            Metric::TransitionRate,
            scheme,
            &miss_map(&[(0x10, 100, 97), (0x20, 100, 50), (0x30, 100, 2)]),
        );
        let h2 = ClassMissRates::aggregate(
            &profile,
            Metric::TransitionRate,
            scheme,
            &miss_map(&[(0x10, 100, 96), (0x20, 100, 52), (0x30, 100, 98)]),
        );
        let matrix = ClassHistoryMatrix::from_runs(&[(0, h0), (2, h2)]);
        assert_eq!(
            ClassHistoryMatrix::from_json(&matrix.to_json().expect("matrix encodes as JSON"))
                .expect("matrix JSON decodes"),
            matrix
        );
        assert_eq!(
            ClassHistoryMatrix::from_btrw(&matrix.to_btrw()).expect("matrix BTRW decodes"),
            matrix
        );

        let runs = vec![
            (
                0u32,
                miss_map(&[(0x10, 100, 98), (0x20, 100, 52), (0x30, 100, 2)]),
            ),
            (
                2u32,
                miss_map(&[(0x10, 100, 97), (0x20, 100, 50), (0x30, 100, 97)]),
            ),
        ];
        let joint = JointMissMatrix::from_history_runs(&profile, scheme, &runs);
        assert_eq!(
            JointMissMatrix::from_json(&joint.to_json().expect("joint matrix encodes as JSON"))
                .expect("joint matrix JSON decodes"),
            joint
        );
        assert_eq!(
            JointMissMatrix::from_btrw(&joint.to_btrw()).expect("joint matrix BTRW decodes"),
            joint
        );

        let table = JointClassTable::from_profile(&profile, scheme);
        let analysis = ClassificationAnalysis::from_table(&table);
        assert_eq!(
            ClassificationAnalysis::from_json(
                &analysis.to_json().expect("analysis encodes as JSON")
            )
            .expect("analysis JSON decodes"),
            analysis
        );
        assert_eq!(
            ClassificationAnalysis::from_btrw(&analysis.to_btrw()).expect("analysis BTRW decodes"),
            analysis
        );
        // A wrong-shaped rate grid is rejected.
        let bad = "{\"scheme\":\"uniform-2\",\"rates\":[[null,0.5]]}";
        assert!(JointMissMatrix::from_json(bad).is_err());
    }
}
