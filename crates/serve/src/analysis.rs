//! Request parameters and the per-request analysis drivers.
//!
//! Every endpoint decodes its upload exactly once, through one
//! `UploadStream`: the body bytes flow through
//! [`crate::digest::DigestReader`] (content addressing) into the format's
//! chunked decoder — [`FastBtrtReader`] for `BTRT` uploads (the columnar
//! slice fast path), [`ChunkedTraceReader`] for text — and every decoded
//! chunk is folded into a [`DenseTraceStats`] on the way past: 16 B of
//! `u32` counters per static branch, indexed by the decoder's dense interned
//! ids and updated without a data-dependent branch, instead of a per-record
//! map lookup. Both formats share that one fold. The counters become the
//! address-keyed [`TraceStats`] once, at the end of the stream, and
//! [`ProgramProfile::from_stats`] bulk-builds the profile from that sorted
//! map. Classification ([`run_classify`]) drains the stream and a sweep
//! ([`run_sweep`]) feeds it to the fused engine: `btrd`'s only two paths.
//! The stream stays on the request's thread; a sweep shares each decoded
//! chunk read-only with one scoped helper per extra group of history slots
//! (the pool's width), one chunk behind the decoder. Both paths hold a
//! chunk (two while a sweep's helpers replay) plus the interning,
//! statistics and per-slot tables, independent of upload length
//! (`tests/serve_memory.rs`); the distinct-branch tables are capped by the
//! static-branch budget.
//!
//! [`materialize_sweep`] and [`sweep_document`] are the in-process sweep
//! reference that the benchmark's oracle and the e2e suite check replies
//! against, not a `btrd` path. [`materialize_sweep`] holds the upload's
//! conditional records in 13 B columns: at most 39 B of peak heap per record
//! plus 2 MiB (`tests/materialize_memory.rs` measures 20.8 B).

use crate::error::ServeError;
use btr_core::advisor::{ClassRecommendation, ComponentStyle, HybridAdvisor};
use btr_core::analysis::{ClassHistoryMatrix, ClassMissRates, ClassificationAnalysis};
use btr_core::class::BinningScheme;
use btr_core::distribution::{ClassDistribution, Metric};
use btr_core::joint::JointClassTable;
use btr_core::profile::ProgramProfile;
use btr_sim::config::PredictorFamily;
use btr_sim::engine::{RunResult, SimEngine};
use btr_sim::sweep::SweepResult;
use btr_trace::io::chunked::TraceChunk;
use btr_trace::io::text::TextRecordReader;
use btr_trace::{
    BranchAddr, ChunkStream, ChunkedTraceReader, DenseTraceStats, FastBtrtReader, InternedTrace,
    TraceError, TraceMetadata, TraceStats,
};
use btr_wire::{MapBuilder, Value, Wire};
use std::io::Read;
use std::sync::Arc;
use stealpool::WorkStealingPool;

/// How an upload body is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFormat {
    /// The `BTRT` binary trace format (`application/x-btrt`, the default).
    Btrt,
    /// The line-oriented text trace format (`text/plain`).
    Text,
}

impl BodyFormat {
    /// Maps a `Content-Type` header to a body format; absent means `BTRT`.
    ///
    /// # Errors
    ///
    /// Unknown content types are a 400 — silently guessing the framing of a
    /// binary upload corrupts the decode in confusing ways.
    pub fn from_content_type(header: Option<&str>) -> Result<BodyFormat, ServeError> {
        let Some(raw) = header else {
            return Ok(BodyFormat::Btrt);
        };
        let essence = raw.split(';').next().unwrap_or_default().trim();
        match essence {
            "" | "application/x-btrt" | "application/octet-stream" => Ok(BodyFormat::Btrt),
            "text/plain" => Ok(BodyFormat::Text),
            other => Err(ServeError::BadRequest(format!(
                "unsupported Content-Type {other:?} (expected application/x-btrt or text/plain)"
            ))),
        }
    }
}

/// Parses a `scheme` query parameter: `paper11` (default), `chang6`, or
/// `uniformN` with `2 <= N <= 64`.
pub fn parse_scheme(raw: Option<&str>) -> Result<BinningScheme, ServeError> {
    match raw {
        None | Some("paper11") => Ok(BinningScheme::Paper11),
        Some("chang6") => Ok(BinningScheme::Chang6),
        Some(text) => {
            if let Some(n) = text.strip_prefix("uniform") {
                let n: usize = n
                    .parse()
                    .map_err(|_| ServeError::BadRequest(format!("unparseable scheme {text:?}")))?;
                if !(2..=64).contains(&n) {
                    return Err(ServeError::BadRequest(format!(
                        "uniform scheme wants 2..=64 classes, got {n}"
                    )));
                }
                Ok(BinningScheme::Uniform(n))
            } else {
                Err(ServeError::BadRequest(format!(
                    "unknown scheme {text:?} (expected paper11, chang6 or uniformN)"
                )))
            }
        }
    }
}

/// Renders a scheme back to its query-parameter form (for cache keys).
pub fn scheme_param(scheme: BinningScheme) -> String {
    match scheme {
        BinningScheme::Paper11 => "paper11".into(),
        BinningScheme::Chang6 => "chang6".into(),
        BinningScheme::Uniform(n) => format!("uniform{n}"),
    }
}

/// Parses a `metric` query parameter: `transition` (default) or `taken`.
pub fn parse_metric(raw: Option<&str>) -> Result<Metric, ServeError> {
    match raw {
        None | Some("transition") => Ok(Metric::TransitionRate),
        Some("taken") => Ok(Metric::TakenRate),
        Some(other) => Err(ServeError::BadRequest(format!(
            "unknown metric {other:?} (expected taken or transition)"
        ))),
    }
}

/// Parses a `family` query parameter: `pas` (default) or `gas`.
pub fn parse_family(raw: Option<&str>) -> Result<PredictorFamily, ServeError> {
    match raw {
        None | Some("pas") => Ok(PredictorFamily::PAs),
        Some("gas") => Ok(PredictorFamily::GAs),
        Some(other) => Err(ServeError::BadRequest(format!(
            "unknown family {other:?} (expected pas or gas)"
        ))),
    }
}

/// Parses a `histories` query parameter: a comma list of history lengths,
/// deduplicated and sorted; defaults to `0,1,2,4,8` when absent. Each entry
/// must fit the family's pattern tables.
pub fn parse_histories(raw: Option<&str>, family: PredictorFamily) -> Result<Vec<u32>, ServeError> {
    let mut histories: Vec<u32> = match raw {
        None | Some("") => vec![0, 1, 2, 4, 8],
        Some(text) => text
            .split(',')
            .map(|part| {
                part.trim().parse::<u32>().map_err(|_| {
                    ServeError::BadRequest(format!("unparseable history length {part:?}"))
                })
            })
            .collect::<Result<Vec<u32>, ServeError>>()?,
    };
    histories.sort_unstable();
    histories.dedup();
    if histories.is_empty() {
        return Err(ServeError::BadRequest("empty history list".into()));
    }
    let max = family.max_history();
    if let Some(&too_big) = histories.iter().find(|&&h| h > max) {
        return Err(ServeError::BadRequest(format!(
            "history {too_big} exceeds {} bits for family {}",
            max,
            family.label()
        )));
    }
    Ok(histories)
}

/// Per-request resource budgets, copied from the server config.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Records per decoded chunk (bounds the chunk buffer).
    pub chunk_records: usize,
    /// Distinct static conditional branches per upload (bounds the
    /// interning, statistics and per-slot predictor tables).
    pub max_static_branches: usize,
}

/// What one streamed analysis produced, plus accounting for the metrics.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// The response document.
    pub value: Value,
    /// Records decoded from the upload.
    pub records: u64,
}

/// Streams `body` once and renders the classification document: metadata,
/// both class distributions, the joint table, the misprediction analysis and
/// the §5.4 advisor recommendations.
///
/// # Errors
///
/// Decode failures surface as 422s, transport failures as 408/500s, budget
/// exhaustion as 413s.
pub fn run_classify<R: Read>(
    body: R,
    format: BodyFormat,
    scheme: BinningScheme,
    budgets: Budgets,
) -> Result<AnalysisOutcome, ServeError> {
    let upload = UploadStream::open(body, format, budgets)?.drain()?;
    let profile = ProgramProfile::from_stats(&upload.stats);
    let table = JointClassTable::from_profile(&profile, scheme);
    let value = MapBuilder::new()
        .field("metadata", upload.metadata.to_value())
        .field("records", upload.records)
        .field("conditional", upload.stats.total_conditional())
        .field("static_branches", profile.static_count() as u64)
        .field("scheme", scheme.to_value())
        .field(
            "taken_distribution",
            ClassDistribution::from_profile(&profile, Metric::TakenRate, scheme).to_value(),
        )
        .field(
            "transition_distribution",
            ClassDistribution::from_profile(&profile, Metric::TransitionRate, scheme).to_value(),
        )
        .field("joint", table.to_value())
        .field(
            "analysis",
            ClassificationAnalysis::from_table(&table).to_value(),
        )
        .field(
            "advisor",
            Value::List(
                HybridAdvisor::new(scheme)
                    .recommend(&table)
                    .iter()
                    .map(recommendation_to_value)
                    .collect(),
            ),
        )
        .build();
    Ok(AnalysisOutcome {
        value,
        records: upload.records,
    })
}

/// Streams `body` once through the fused multi-history engine
/// ([`SimEngine::run_fused_streamed`]) and renders the sweep document: the
/// full [`SweepResult`] plus the class × history miss matrix for the
/// requested metric. The engine runs `pool.threads()` wide: the calling
/// thread reads, decodes and replays the first group of history slots while
/// scoped helpers replay the rest. Per-history class aggregation then fans
/// out across `pool`. The document is byte-identical at every width.
///
/// # Errors
///
/// Same taxonomy as [`run_classify`].
#[allow(clippy::too_many_arguments)]
pub fn run_sweep<R: Read>(
    body: R,
    format: BodyFormat,
    scheme: BinningScheme,
    metric: Metric,
    family: PredictorFamily,
    histories: &[u32],
    budgets: Budgets,
    pool: &WorkStealingPool,
) -> Result<AnalysisOutcome, ServeError> {
    let mut stream = UploadStream::open(body, format, budgets)?;
    let results =
        SimEngine::new().run_fused_streamed(&mut stream, histories, pool.threads(), |h| {
            family.fused_paper(h)
        })?;
    let upload = stream.finish();
    Ok(render_sweep(
        &upload.metadata,
        upload.records,
        upload.stats.total_conditional(),
        &ProgramProfile::from_stats(&upload.stats),
        family,
        histories,
        results,
        metric,
        scheme,
        pool,
    ))
}

/// A `/sweep` upload fully decoded, profiled and interned — the input of
/// one [`SimEngine::run_batch`] lane, and the in-process reference for what
/// [`run_sweep`] computes from the chunk stream in place.
#[derive(Debug)]
pub struct MaterializedSweep {
    /// The upload's trace metadata.
    pub metadata: TraceMetadata,
    /// The per-branch behaviour profile (classification input).
    pub profile: ProgramProfile,
    /// Conditional records observed.
    pub conditional: u64,
    /// Total records decoded.
    pub records: u64,
    /// The interned trace — the upload's conditional columns plus the
    /// id → address table.
    pub interned: Arc<InternedTrace>,
}

/// Decodes a sweep upload into a [`MaterializedSweep`], enforcing the same
/// static-branch budget as [`run_sweep`]. The interned trace appends the
/// decoder's conditional columns chunk by chunk, so peak memory is the
/// upload's conditional records at 13 B each (plus vector growth): fine for
/// the reference side of sweep checks, which is all this is.
///
/// # Errors
///
/// Same taxonomy as [`run_sweep`]: 422 on decode failures, 413 on budget
/// exhaustion.
pub fn materialize_sweep<R: Read>(
    body: R,
    format: BodyFormat,
    budgets: Budgets,
) -> Result<MaterializedSweep, ServeError> {
    let mut stream = UploadStream::open(body, format, budgets)?;
    let interned = InternedTrace::from_chunks(&mut stream)?;
    let upload = stream.finish();
    Ok(MaterializedSweep {
        metadata: upload.metadata,
        profile: ProgramProfile::from_stats(&upload.stats),
        conditional: upload.stats.total_conditional(),
        records: upload.records,
        interned: Arc::new(interned),
    })
}

/// Renders the reference sweep document for a materialized upload whose
/// simulation ran through [`SimEngine::run_batch`]. Bit-identical to
/// [`run_sweep`] over the same bytes: the sim crate's equivalence suites pin
/// both engine entry points to [`SimEngine::run_fused`], and everything
/// else here derives from the same stats pass.
pub fn sweep_document(
    upload: &MaterializedSweep,
    family: PredictorFamily,
    histories: &[u32],
    results: Vec<RunResult>,
    metric: Metric,
    scheme: BinningScheme,
    pool: &WorkStealingPool,
) -> AnalysisOutcome {
    render_sweep(
        &upload.metadata,
        upload.records,
        upload.conditional,
        &upload.profile,
        family,
        histories,
        results,
        metric,
        scheme,
        pool,
    )
}

/// The shared tail of [`run_sweep`] and [`sweep_document`]: per-history
/// class aggregation (fanned out across `pool`) and the response document.
#[allow(clippy::too_many_arguments)]
fn render_sweep(
    metadata: &TraceMetadata,
    records: u64,
    conditional: u64,
    profile: &ProgramProfile,
    family: PredictorFamily,
    histories: &[u32],
    results: Vec<RunResult>,
    metric: Metric,
    scheme: BinningScheme,
    pool: &WorkStealingPool,
) -> AnalysisOutcome {
    let parts: Vec<(u32, RunResult)> = histories.iter().copied().zip(results).collect();
    let sweep = SweepResult::from_parts(family, parts);
    // Per-history class aggregation is independent across histories — the
    // post-processing fan-out the work-stealing pool exists for.
    let rows: Vec<(u32, ClassMissRates)> =
        pool.run(sweep.runs().iter().collect(), |_, (history, misses)| {
            (
                *history,
                ClassMissRates::aggregate(profile, metric, scheme, misses),
            )
        });
    let matrix = ClassHistoryMatrix::from_runs(&rows);
    let value = MapBuilder::new()
        .field("metadata", metadata.to_value())
        .field("records", records)
        .field("conditional", conditional)
        .field("static_branches", profile.static_count() as u64)
        .field("family", family.to_value())
        .field(
            "histories",
            Value::List(
                histories
                    .iter()
                    .map(|&h| Value::from(u64::from(h)))
                    .collect(),
            ),
        )
        .field("scheme", scheme.to_value())
        .field("metric", metric.to_value())
        .field("sweep", sweep.to_value())
        .field("class_history", matrix.to_value())
        .build();
    AnalysisOutcome { value, records }
}

/// The decoder behind an [`UploadStream`], one per body format.
#[derive(Debug)]
enum Decoder<R> {
    Btrt(FastBtrtReader<R>),
    Text(ChunkedTraceReader<TextRecordReader<R>>),
}

/// One upload, decoded once: a [`ChunkStream`] over the body format's
/// decoder that folds every chunk into [`DenseTraceStats`] and counts the
/// records on the way past, and cuts the stream off with
/// [`TraceError::StaticBranchBudget`] (a 413) the moment the upload crosses
/// the static-branch budget. Recycled chunks go back to the decoder, so
/// steady-state decoding allocates nothing.
#[derive(Debug)]
struct UploadStream<R> {
    decoder: Decoder<R>,
    stats: DenseTraceStats,
    records: u64,
    max_static_branches: usize,
}

/// What an [`UploadStream`] observed by the time it was finished.
struct Ingested {
    metadata: TraceMetadata,
    stats: TraceStats,
    records: u64,
}

impl<R: Read> UploadStream<R> {
    /// Opens `body` with its format's decoder (a `BTRT` header is read and
    /// validated here).
    fn open(body: R, format: BodyFormat, budgets: Budgets) -> Result<Self, ServeError> {
        let decoder = match format {
            BodyFormat::Btrt => Decoder::Btrt(FastBtrtReader::new(body, budgets.chunk_records)?),
            BodyFormat::Text => {
                Decoder::Text(ChunkedTraceReader::text(body, budgets.chunk_records))
            }
        };
        Ok(UploadStream {
            decoder,
            stats: DenseTraceStats::new(),
            records: 0,
            max_static_branches: budgets.max_static_branches,
        })
    }

    /// Pulls every chunk through, for consumers that need only the stats.
    fn drain(mut self) -> Result<Ingested, ServeError> {
        while let Some(chunk) = self.pull() {
            let chunk = chunk?;
            self.recycle(chunk);
        }
        Ok(self.finish())
    }

    /// The metadata, statistics and record count seen so far. Text metadata
    /// is read as it stands now, so comment lines between records — folded
    /// in as the stream is read — count once the stream is drained.
    fn finish(self) -> Ingested {
        // Consuming the decoder frees its buffers before the statistics are
        // converted, so the two never add up in a request's peak memory.
        let metadata = match self.decoder {
            Decoder::Btrt(reader) => reader.metadata().clone(),
            Decoder::Text(reader) => reader.source().metadata().clone(),
        };
        Ingested {
            metadata,
            stats: self.stats.into_trace_stats(),
            records: self.records,
        }
    }

    fn decoder(&mut self) -> &mut dyn ChunkStream {
        match &mut self.decoder {
            Decoder::Btrt(reader) => reader,
            Decoder::Text(reader) => reader,
        }
    }

    fn over_budget(&self) -> bool {
        self.stats.static_conditional_count() > self.max_static_branches
    }
}

impl<R: Read> ChunkStream for UploadStream<R> {
    fn pull(&mut self) -> Option<btr_trace::Result<TraceChunk>> {
        // Fused after a budget breach, like the decoders after an error.
        if self.over_budget() {
            return None;
        }
        let chunk = match self.decoder().pull()? {
            Ok(chunk) => chunk,
            Err(e) => return Some(Err(e)),
        };
        self.records += chunk.len() as u64;
        self.stats.observe_chunk(&chunk);
        if self.over_budget() {
            self.decoder().recycle(chunk);
            return Some(Err(TraceError::StaticBranchBudget {
                limit: self.max_static_branches as u64,
            }));
        }
        Some(Ok(chunk))
    }

    fn recycle(&mut self, chunk: TraceChunk) {
        self.decoder().recycle(chunk);
    }

    fn addrs(&self) -> &[BranchAddr] {
        match &self.decoder {
            Decoder::Btrt(reader) => reader.addrs(),
            Decoder::Text(reader) => reader.addrs(),
        }
    }
}

/// Lowers one advisor recommendation to the wire data model.
fn recommendation_to_value(rec: &ClassRecommendation) -> Value {
    MapBuilder::new()
        .field("taken_class", rec.taken_class.index() as u64)
        .field("transition_class", rec.transition_class.index() as u64)
        .field("style", style_label(rec.style))
        .field("history_bits", u64::from(rec.history_bits))
        .field("dynamic_percent", rec.dynamic_percent)
        .build()
}

/// The stable string form of a component style.
fn style_label(style: ComponentStyle) -> &'static str {
    match style {
        ComponentStyle::StaticTaken => "static-taken",
        ComponentStyle::StaticNotTaken => "static-not-taken",
        ComponentStyle::ShortHistoryPAs => "short-history-pas",
        ComponentStyle::LongHistoryPAs => "long-history-pas",
        ComponentStyle::LongHistoryGAs => "long-history-gas",
        ComponentStyle::NonPredictive => "non-predictive",
    }
}

/// A trivial metadata document for error responses (kept here so every
/// response body, success or failure, is rendered through the same writer).
pub fn error_body(err: &ServeError) -> Value {
    MapBuilder::new()
        .field("error", err.code())
        .field("status", u64::from(err.status()))
        .field("detail", err.to_string())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_parsing_accepts_the_documented_forms() {
        assert_eq!(
            parse_scheme(None).expect("default scheme"),
            BinningScheme::Paper11
        );
        assert_eq!(
            parse_scheme(Some("uniform8")).expect("uniform scheme"),
            BinningScheme::Uniform(8)
        );
        assert_eq!(
            parse_scheme(Some("chang6")).expect("chang scheme"),
            BinningScheme::Chang6
        );
        assert_eq!(
            parse_metric(Some("taken")).expect("metric"),
            Metric::TakenRate
        );
        assert_eq!(
            parse_family(Some("gas")).expect("family"),
            PredictorFamily::GAs
        );
        assert_eq!(
            parse_histories(Some("8,0,4,0"), PredictorFamily::PAs).expect("histories"),
            vec![0, 4, 8]
        );
        assert_eq!(
            parse_histories(None, PredictorFamily::PAs).expect("default"),
            vec![0, 1, 2, 4, 8]
        );
    }

    #[test]
    fn parameter_parsing_rejects_junk_with_400s() {
        for err in [
            parse_scheme(Some("uniform1")).expect_err("too few classes"),
            parse_scheme(Some("uniform999")).expect_err("too many classes"),
            parse_scheme(Some("nonsense")).expect_err("unknown scheme"),
            parse_metric(Some("swing")).expect_err("unknown metric"),
            parse_family(Some("sas")).expect_err("unknown family"),
            parse_histories(Some("2,banana"), PredictorFamily::PAs).expect_err("junk entry"),
            parse_histories(Some("99"), PredictorFamily::PAs).expect_err("history too long"),
            BodyFormat::from_content_type(Some("application/json"))
                .map(|_| ())
                .expect_err("json uploads are not traces"),
        ] {
            assert_eq!(err.status(), 400, "{err}");
        }
    }

    #[test]
    fn scheme_params_roundtrip() {
        for scheme in [
            BinningScheme::Paper11,
            BinningScheme::Chang6,
            BinningScheme::Uniform(5),
        ] {
            assert_eq!(
                parse_scheme(Some(&scheme_param(scheme))).expect("roundtrip"),
                scheme
            );
        }
    }
}
