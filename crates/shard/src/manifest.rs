//! The on-disk checkpoint store: output-directory layout, the crash-safe
//! manifest, the generated traces and the unit-partial commit protocol.
//!
//! ## Layout
//!
//! ```text
//! <out-dir>/
//!   manifest.btrw            versioned Manifest (the sweep spec; written once)
//!   trace-<k>.btrt           benchmark k's generated trace, as BTRT
//!   partial-<id>.btrw        one committed SweepResult partial per unit
//!   final.btrw               the merged SweepResult (written last)
//! ```
//!
//! One directory, no subdirectories. A unit is a pure function of the
//! manifest's spec and its id ([`OutDir::plan_bound`]), so no per-unit spec
//! file is written: a worker plans its own unit from the manifest.
//!
//! ## Crash safety
//!
//! Every durable write follows *write-temp-then-rename*: bytes are written
//! to a `.tmp-…` sibling and `rename(2)`d into place, so a reader never
//! observes a half-written manifest, trace or partial — it sees either the
//! old file, the new file, or no file. The manifest is written once, before
//! any unit runs, and never changes: progress lives only in the partials,
//! and resume rebuilds it by validating each one. Traces are regenerated on
//! every resume (generation is deterministic), so a trace file lost or torn
//! between runs cannot reach a unit.
//!
//! ## Duplicate completions
//!
//! Re-issued stragglers can race their first attempt to the checkpoint.
//! Commits resolve deterministically — **first committed wins**: a worker
//! about to rename checks for an existing *valid* partial and yields to it,
//! and only replaces invalid (torn/corrupt) ones. Merging stays idempotent
//! on top of that via the partial's source label
//! (see [`SweepResult::with_source`]).

use crate::error::{Result, ShardError};
use crate::unit::{SweepSpec, UnitSpec};
use btr_sim::sweep::SweepResult;
use btr_wire::{MapBuilder, Value, Wire, WireError};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest schema version written to and expected from disk.
/// Format 1 also carried the completed-unit set, which resume now rebuilds
/// from the partials on disk.
pub const MANIFEST_FORMAT: u64 = 2;

/// The output directory of one sharded sweep.
#[derive(Debug, Clone)]
pub struct OutDir {
    root: PathBuf,
}

impl OutDir {
    /// Wraps a path (no filesystem access).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        OutDir { root: root.into() }
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Creates the directory (one level of the layout; no subdirectories).
    pub fn init(&self) -> Result<()> {
        fs::create_dir_all(&self.root)
            .map_err(|e| ShardError::io(format!("creating {}", self.root.display()), e))
    }

    /// Path of the manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.btrw")
    }

    /// Path of benchmark `k`'s generated trace.
    pub fn trace_path(&self, k: usize) -> PathBuf {
        self.root.join(format!("trace-{k}.btrt"))
    }

    /// Path of one unit's committed partial.
    pub fn partial_path(&self, unit_id: u32) -> PathBuf {
        self.root.join(format!("partial-{unit_id}.btrw"))
    }

    /// Path of the merged final result.
    pub fn final_path(&self) -> PathBuf {
        self.root.join("final.btrw")
    }

    /// Writes `bytes` to `path` atomically: a `.tmp-<nonce>` sibling first,
    /// then `rename` into place.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8], nonce: u32) -> Result<()> {
        let tmp = tmp_sibling(path, nonce);
        fs::write(&tmp, bytes)
            .map_err(|e| ShardError::io(format!("writing {}", tmp.display()), e))?;
        fs::rename(&tmp, path)
            .map_err(|e| ShardError::io(format!("renaming {} into place", tmp.display()), e))
    }

    /// Commits a unit partial under the first-committed-wins rule.
    ///
    /// The labeled result is written to a temp sibling; if a *valid* partial
    /// for the unit already exists the temp file is discarded and the
    /// existing checkpoint stands, otherwise the temp file is renamed into
    /// place (atomically replacing any torn or corrupt leftover). Returns
    /// `true` when this call's bytes became the checkpoint.
    pub fn commit_partial(
        &self,
        unit: &UnitSpec,
        result: &SweepResult,
        nonce: u32,
    ) -> Result<bool> {
        self.commit_encoded(unit, &result.to_btrw(), nonce)
    }

    /// [`OutDir::commit_partial`] for a result already encoded as `BTRW`.
    pub(crate) fn commit_encoded(&self, unit: &UnitSpec, bytes: &[u8], nonce: u32) -> Result<bool> {
        let path = self.partial_path(unit.unit_id);
        let tmp = tmp_sibling(&path, nonce);
        fs::write(&tmp, bytes)
            .map_err(|e| ShardError::io(format!("writing {}", tmp.display()), e))?;
        if self.load_partial(unit).is_ok() {
            // A previous attempt committed first; its checkpoint wins.
            let _ = fs::remove_file(&tmp);
            return Ok(false);
        }
        fs::rename(&tmp, &path)
            .map_err(|e| ShardError::io(format!("committing {}", path.display()), e))?;
        Ok(true)
    }

    /// Loads and validates one unit's committed partial: it must decode (the
    /// wire layer re-validates per-branch sums), belong to this unit's
    /// family and history group, and carry the unit's source label. Torn or
    /// corrupted checkpoints surface as errors and never merge.
    pub fn load_partial(&self, unit: &UnitSpec) -> Result<SweepResult> {
        Self::decode_partial(unit, &self.read_partial(unit.unit_id)?)
    }

    /// The raw bytes of unit `unit_id`'s checkpoint, unvalidated.
    pub(crate) fn read_partial(&self, unit_id: u32) -> Result<Vec<u8>> {
        let path = self.partial_path(unit_id);
        fs::read(&path).map_err(|e| ShardError::io(format!("reading {}", path.display()), e))
    }

    /// Decodes and validates checkpoint `bytes` for `unit`, as
    /// [`OutDir::load_partial`] does.
    pub(crate) fn decode_partial(unit: &UnitSpec, bytes: &[u8]) -> Result<SweepResult> {
        let result = SweepResult::from_btrw(bytes)?;
        if result.family() != unit.family {
            return Err(ShardError::bad_manifest(format!(
                "partial {} belongs to family {}, unit wants {}",
                unit.unit_id,
                result.family().label(),
                unit.family.label()
            )));
        }
        if result.history_lengths() != unit.histories {
            return Err(ShardError::bad_manifest(format!(
                "partial {} covers histories {:?}, unit wants {:?}",
                unit.unit_id,
                result.history_lengths(),
                unit.histories
            )));
        }
        let expected = BTreeSet::from([unit.source_label()]);
        if *result.sources() != expected {
            return Err(ShardError::bad_manifest(format!(
                "partial {} carries sources {:?}, expected {:?}",
                unit.unit_id,
                result.sources(),
                expected
            )));
        }
        Ok(result)
    }

    /// Generates each benchmark of `spec` once and writes it as `BTRT` to
    /// [`OutDir::trace_path`]. A spec that names its own trace file has
    /// nothing to generate.
    pub fn write_traces(&self, spec: &SweepSpec) -> Result<()> {
        if spec.trace_file.is_some() {
            return Ok(());
        }
        for (k, benchmark) in spec.benchmarks.iter().enumerate() {
            let mut bytes = Vec::new();
            btr_trace::io::write_binary(&mut bytes, &benchmark.generate(&spec.config))
                .map_err(|e| ShardError::io("encoding a trace", io::Error::other(e.to_string())))?;
            self.write_atomic(&self.trace_path(k), &bytes, k as u32)?;
        }
        Ok(())
    }

    /// Plans `spec`'s units and binds each to its benchmark's trace file in
    /// this directory; a spec that names its own trace file keeps it. The
    /// coordinator and the process worker both plan through here, so they
    /// agree on every unit.
    pub fn plan_bound(&self, spec: &SweepSpec) -> Result<Vec<UnitSpec>> {
        let mut units = spec.plan_units()?;
        if spec.trace_file.is_none() {
            let paths = (0..spec.benchmarks.len())
                .map(|k| self.trace_path(k).into_os_string().into_string())
                .collect::<std::result::Result<Vec<_>, _>>()
                .map_err(|p| ShardError::invalid_spec(format!("trace path {p:?} is not UTF-8")))?;
            // Units run (group, benchmark, window) in order, so each run of
            // `window_count` units shares one benchmark, cycling per group.
            let per_benchmark = units.chunks_mut(spec.window_count as usize);
            for (chunk, path) in per_benchmark.zip(paths.iter().cycle()) {
                for unit in chunk {
                    unit.trace_file = Some(path.clone());
                }
            }
        }
        Ok(units)
    }
}

fn tmp_sibling(path: &Path, nonce: u32) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp-{nonce}"));
    path.with_file_name(name)
}

/// The durable record of a sweep: its spec, written once before any unit
/// runs. Progress is not recorded here; the partials on disk are the record.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The sweep this manifest tracks.
    pub spec: SweepSpec,
}

impl Manifest {
    /// Saves the manifest atomically (write-temp-then-rename).
    pub fn save(&self, dir: &OutDir) -> Result<()> {
        dir.write_atomic(&dir.manifest_path(), &self.to_btrw(), 0)
    }

    /// Loads a manifest, mapping a missing file or a format other than
    /// [`MANIFEST_FORMAT`] to [`ShardError::BadManifest`] (a torn `.tmp`
    /// sibling left by a killed coordinator is ignored: the rename either
    /// happened or no manifest is in place).
    pub fn load(dir: &OutDir) -> Result<Self> {
        let path = dir.manifest_path();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(ShardError::bad_manifest(format!(
                    "no manifest at {} (nothing to resume)",
                    path.display()
                )));
            }
            Err(e) => return Err(ShardError::io(format!("reading {}", path.display()), e)),
        };
        let manifest = Manifest::from_btrw(&bytes)
            .map_err(|e| ShardError::bad_manifest(format!("{}: {e}", path.display())))?;
        manifest.spec.validate()?;
        Ok(manifest)
    }
}

/// [`Manifest`] encodes a format version and the sweep spec; any other
/// version is rejected on decode.
impl Wire for Manifest {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("format", MANIFEST_FORMAT)
            .field("spec", self.spec.to_value())
            .build()
    }

    fn from_value(value: &Value) -> std::result::Result<Self, WireError> {
        let format = value.get("format")?.as_u64()?;
        if format != MANIFEST_FORMAT {
            return Err(WireError::schema(format!(
                "manifest format {format} not supported (expected {MANIFEST_FORMAT})"
            )));
        }
        Ok(Manifest {
            spec: SweepSpec::from_value(value.get("spec")?)?,
        })
    }
}
