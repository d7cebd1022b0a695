//! The lint and structural passes, and the shared ratchet/allowlist logic.
//!
//! Each pass walks the lexed token streams (or the manifests, for the
//! structural pass) and reports [`Finding`]s. Findings are then reconciled
//! against the checked-in `analyzer-ratchet.toml`:
//!
//! * a **ratchet** section covers up to its recorded per-`file#category`
//!   count — existing debt is tolerated, new debt fails, and shrinking debt
//!   invites a `btr-analyzer ratchet` run to lock in the lower count;
//! * an **allowlist** section covers exactly its recorded count — exceeding
//!   it fails, and so does a stale entry (more allowed than found), so the
//!   file can never quietly drift out of sync with the tree. Every allowlist
//!   entry must carry a justification comment directly above it.

pub mod dead_pub;
pub mod determinism;
pub mod panic_path;
pub mod structural;
pub mod unsafe_gate;
pub mod wallclock;

use crate::config::Config;
use crate::files::SourceFile;
use crate::findings::{Finding, Report};
use crate::lexer::TokenStream;
use std::collections::BTreeMap;
use std::path::Path;

/// A source file with its lexed token stream.
#[derive(Debug)]
pub struct LexedFile {
    /// The discovered file.
    pub file: SourceFile,
    /// Its tokens and `#[cfg(test)]` mask.
    pub stream: TokenStream,
}

/// Everything a pass sees.
#[derive(Debug)]
pub struct Context<'a> {
    /// The workspace root.
    pub root: &'a Path,
    /// Every scanned file, path-sorted.
    pub files: &'a [LexedFile],
    /// The parsed `analyzer-ratchet.toml`.
    pub config: &'a Config,
}

/// How findings reconcile against a config section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Baseline counts that may only decrease; shrinkage is informational.
    Ratchet,
    /// Exact permitted counts with mandatory justification; both excess and
    /// stale entries fail.
    Allowlist,
}

/// Runs every pass and reconciles the findings.
pub fn run_all(ctx: &Context<'_>, report: &mut Report) {
    audit_allowlist_justifications(ctx, report);
    panic_path::run(ctx, report);
    determinism::run(ctx, report);
    unsafe_gate::run(ctx, report);
    wallclock::run(ctx, report);
    structural::run(ctx, report);
    dead_pub::run(ctx, report);
}

/// Fails any allowlist entry that carries no justification comment.
fn audit_allowlist_justifications(ctx: &Context<'_>, report: &mut Report) {
    for section in [
        "determinism",
        "unsafe-gate",
        "no-wallclock",
        "structural",
        dead_pub::PASS,
    ] {
        for entry in ctx.config.section(section) {
            if entry.justification.iter().all(|l| l.trim().is_empty()) {
                report.findings.push(Finding {
                    pass: section.to_string(),
                    category: "missing-justification".to_string(),
                    file: crate::RATCHET_FILE.to_string(),
                    line: entry.line,
                    message: format!(
                        "allowlist entry \"{}\" has no justification comment above it",
                        entry.key
                    ),
                    ratcheted: false,
                });
            }
        }
    }
}

/// Reconciles one pass's raw findings (grouped by `file#category` key)
/// against its config section and pushes them onto the report.
///
/// The first `allowed` findings of a key (in source order) are marked
/// ratcheted; the excess is unratcheted. A key found fewer times than its
/// recorded count produces a stale-entry finding — informational under
/// [`Mode::Ratchet`], failing under [`Mode::Allowlist`].
pub fn reconcile(
    pass: &str,
    section: &str,
    mode: Mode,
    mut found: BTreeMap<String, Vec<Finding>>,
    ctx: &Context<'_>,
    report: &mut Report,
) {
    // Entries in the config with no findings at all still need stale checks.
    for entry in ctx.config.section(section) {
        found.entry(entry.key.clone()).or_default();
    }
    for (key, findings) in found {
        let allowed = ctx.config.count(section, &key).unwrap_or(0) as usize;
        let count = findings.len();
        if mode == Mode::Ratchet && count > 0 {
            report.ratchet_counts.insert(key.clone(), count as u64);
        }
        for (idx, mut finding) in findings.into_iter().enumerate() {
            finding.ratcheted = idx < allowed;
            report.findings.push(finding);
        }
        if count < allowed {
            let (category, verb, ratcheted) = match mode {
                Mode::Ratchet => (
                    "stale-ratchet",
                    "ratchet down with `btr-analyzer ratchet`",
                    true,
                ),
                Mode::Allowlist => ("stale-allowlist", "tighten the allowlist entry", false),
            };
            report.findings.push(Finding {
                pass: pass.to_string(),
                category: category.to_string(),
                file: crate::RATCHET_FILE.to_string(),
                line: 0,
                message: format!("\"{key}\" records {allowed} but only {count} found — {verb}"),
                ratcheted,
            });
        }
    }
}

/// Builds an unratcheted finding (reconciliation decides the final flag).
pub fn finding(pass: &str, category: &str, file: &str, line: u32, message: String) -> Finding {
    Finding {
        pass: pass.to_string(),
        category: category.to_string(),
        file: file.to_string(),
        line,
        message,
        ratcheted: false,
    }
}
