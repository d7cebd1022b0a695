//! # btr-analyzer — workspace static analysis
//!
//! The properties that make this workspace's results trustworthy — sweep
//! output that is bit-identical across chunkings and thread counts, decode
//! paths that return typed errors instead of panicking on untrusted bytes,
//! a tree-wide no-`unsafe` pledge — were conventions enforced by review.
//! This crate makes them machine-checked, ratcheted CI citizens.
//!
//! Three layers:
//!
//! 1. a real Rust **lexer** ([`lexer`]) producing line-spanned tokens, so no
//!    lint ever fires inside a comment, string, or raw-string literal;
//! 2. **lint passes** ([`passes`]) over the token streams of `src/`,
//!    `crates/*/src` and `vendor/*/src` — [`passes::panic_path`] (ratcheted
//!    `unwrap()`/`expect`/`panic!`/`assert!` accounting),
//!    [`passes::determinism`] (no `HashMap`/`HashSet` feeding results
//!    without a justified allowlist entry), [`passes::unsafe_gate`]
//!    (`#![forbid(unsafe_code)]` on every crate root, no stray `unsafe`),
//!    [`passes::wallclock`] (no clock reads in result-producing code) and
//!    [`passes::dead_pub`] (no public item that no other library file
//!    names, unless allowlisted for its caller outside the library);
//! 3. **structural cross-checks** ([`passes::structural`]) over the
//!    manifests, CI config and README — bench-gate coverage, wire roundtrip
//!    coverage, vendor-table completeness.
//!
//! Baselines and allowlists live in [`RATCHET_FILE`] at the workspace root;
//! findings serialize as canonical `btr-wire` JSON so CI can diff runs
//! byte-for-byte. The CLI (`cargo run -p btr-analyzer -- check`) exits
//! nonzero on any unratcheted finding; `-- ratchet` locks shrunken baseline
//! counts in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod files;
pub mod findings;
pub mod lexer;
pub mod passes;

use config::Config;
use findings::Report;
use passes::{Context, LexedFile};
use std::fmt;
use std::fs;
use std::path::Path;

/// The checked-in baseline/allowlist file at the workspace root.
pub const RATCHET_FILE: &str = "analyzer-ratchet.toml";

/// An analyzer failure: I/O trouble or an unparsable config.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error(format!("I/O error: {e}"))
    }
}

/// Runs every pass over the workspace at `root` and returns the reconciled
/// report.
///
/// # Errors
///
/// Fails if the tree cannot be read or `analyzer-ratchet.toml` is missing or
/// malformed — configuration errors are loud, never skipped lints.
pub fn run_check(root: &Path) -> Result<Report, Error> {
    let config_path = root.join(RATCHET_FILE);
    let config_text = fs::read_to_string(&config_path).map_err(|e| {
        Error(format!(
            "cannot read {} (is --root the workspace root?): {e}",
            config_path.display()
        ))
    })?;
    let config = Config::parse(&config_text)
        .map_err(|e| Error(format!("{}: {e}", config_path.display())))?;
    run_with_config(root, &config)
}

/// [`run_check`] against an explicit, possibly synthetic configuration
/// (used by `ratchet`, which runs with an empty baseline to measure the
/// tree's true counts).
///
/// # Errors
///
/// Fails if the tree cannot be read.
fn run_with_config(root: &Path, config: &Config) -> Result<Report, Error> {
    let files = files::discover(root)?;
    let lexed: Vec<LexedFile> = files
        .into_iter()
        .map(|file| {
            let stream = lexer::TokenStream::lex(&file.source);
            LexedFile { file, stream }
        })
        .collect();
    let ctx = Context {
        root,
        files: &lexed,
        config,
    };
    let mut report = Report::default();
    passes::run_all(&ctx, &mut report);
    report.finalize();
    Ok(report)
}

/// Rewrites the `[panic-path]` section of `analyzer-ratchet.toml` with the
/// tree's current counts, preserving every allowlist section verbatim.
/// Returns the number of `file#category` entries written.
///
/// # Errors
///
/// Fails if the tree or config cannot be read or the file cannot be written.
pub fn run_ratchet(root: &Path) -> Result<usize, Error> {
    let config_path = root.join(RATCHET_FILE);
    let original = fs::read_to_string(&config_path).unwrap_or_default();
    // Measure with an empty baseline: ratchet_counts is exactly the tree.
    let report = run_with_config(root, &Config::default())?;
    let rewritten = Config::rewrite_ratchet_section(
        &original,
        passes::panic_path::PASS,
        &report.ratchet_counts,
    );
    fs::write(&config_path, rewritten)?;
    Ok(report.ratchet_counts.len())
}
