//! The checked-in `analyzer-ratchet.toml` baseline: parser and rewriter.
//!
//! The file is a deliberately small TOML subset — `[section]` headers, `#`
//! comments, and `"key" = <integer>` entries — so both this crate and the
//! independent Python gate (`scripts/ratchet_gate.py`) parse it with a page
//! of code and no dependency. Two kinds of section live in it:
//!
//! * **Ratchet sections** (`[panic-path]`): per-`file#category` finding
//!   counts that may only decrease. `btr-analyzer ratchet` rewrites them from
//!   the current tree; `btr-analyzer check` fails if any count is exceeded.
//! * **Allowlist sections** (`[determinism]`, `[unsafe-gate]`,
//!   `[no-wallclock]`, `[structural]`, `[dead-pub]`): per-site permitted
//!   counts. Every entry must carry a written justification as the comment
//!   line(s) immediately above it — an entry without one is itself a
//!   finding.

use crate::Error;
use std::collections::BTreeMap;

/// One `"key" = count` entry with the comment lines directly above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The entry key, conventionally `<rel_path>#<category>`.
    pub key: String,
    /// The permitted (allowlist) or baseline (ratchet) count.
    pub count: u64,
    /// The `#` comment lines immediately preceding the entry, `#` stripped.
    pub justification: Vec<String>,
    /// 1-based line of the entry in the config file.
    pub line: u32,
}

/// The parsed config: entries grouped by section, insertion-ordered within a
/// section.
#[derive(Debug, Clone, Default)]
pub struct Config {
    sections: BTreeMap<String, Vec<Entry>>,
}

impl Config {
    /// Parses the config text.
    ///
    /// # Errors
    ///
    /// Fails on entries outside any section, malformed entries, or duplicate
    /// keys within a section; the message names the line.
    pub fn parse(text: &str) -> Result<Config, Error> {
        let mut sections: BTreeMap<String, Vec<Entry>> = BTreeMap::new();
        let mut current: Option<String> = None;
        let mut pending_comments: Vec<String> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let line = raw.trim();
            if line.is_empty() {
                pending_comments.clear();
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                pending_comments.push(comment.trim().to_string());
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| {
                    syntax_error(line_no, format!("unterminated section header {line:?}"))
                })?;
                current = Some(name.trim().to_string());
                sections.entry(name.trim().to_string()).or_default();
                pending_comments.clear();
                continue;
            }
            let (key_part, value_part) = line.split_once('=').ok_or_else(|| {
                syntax_error(line_no, format!("expected `\"key\" = count`, got {line:?}"))
            })?;
            let key = key_part.trim().trim_matches('"').to_string();
            let count: u64 = value_part.trim().parse().map_err(|_| {
                syntax_error(
                    line_no,
                    format!("count is not an unsigned integer: {}", value_part.trim()),
                )
            })?;
            let section = current.clone().ok_or_else(|| {
                syntax_error(line_no, "entry before any [section] header".to_string())
            })?;
            let entries = sections.entry(section).or_default();
            if entries.iter().any(|e| e.key == key) {
                return Err(syntax_error(line_no, format!("duplicate key {key:?}")));
            }
            entries.push(Entry {
                key,
                count,
                justification: std::mem::take(&mut pending_comments),
                line: line_no,
            });
        }
        Ok(Config { sections })
    }

    /// The entries of one section, empty if the section is absent.
    pub fn section(&self, name: &str) -> &[Entry] {
        self.sections.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The count for `key` in `section`, if present.
    pub fn count(&self, section: &str, key: &str) -> Option<u64> {
        self.section(section)
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.count)
    }

    /// Rewrites the `[panic-path]` section of the original file text with
    /// `counts` (sorted by key), preserving every other line verbatim.
    ///
    /// Used by `btr-analyzer ratchet` so allowlist sections and their
    /// justification comments survive a ratchet tightening untouched.
    pub fn rewrite_ratchet_section(
        original: &str,
        section: &str,
        counts: &BTreeMap<String, u64>,
    ) -> String {
        let mut out: Vec<String> = Vec::new();
        let mut in_target = false;
        let mut emitted = false;
        for raw in original.lines() {
            let trimmed = raw.trim();
            if let Some(name) = trimmed.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                if name.trim() == section {
                    in_target = true;
                    emitted = true;
                    out.push(raw.to_string());
                    for (key, count) in counts {
                        out.push(format!("\"{key}\" = {count}"));
                    }
                    continue;
                }
                if in_target {
                    // Leaving the rewritten section: keep one separating blank.
                    if out.last().is_some_and(|l| !l.is_empty()) {
                        out.push(String::new());
                    }
                }
                in_target = false;
            }
            if !in_target {
                out.push(raw.to_string());
            }
        }
        if !emitted {
            if out.last().is_some_and(|l| !l.is_empty()) {
                out.push(String::new());
            }
            out.push(format!("[{section}]"));
            for (key, count) in counts {
                out.push(format!("\"{key}\" = {count}"));
            }
        }
        let mut text = out.join("\n");
        text.push('\n');
        text
    }
}

/// A config syntax error on 1-based line `line`.
fn syntax_error(line: u32, message: String) -> Error {
    Error(format!("line {line}: {message}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# file comment

[panic-path]
\"crates/a/src/x.rs#unwrap\" = 3

[determinism]
# ids depend only on first-appearance order
# (see interner_determinism.rs)
\"crates/trace/src/interned.rs#HashMap\" = 2
\"crates/b/src/y.rs#HashSet\" = 1
";

    #[test]
    fn parses_sections_entries_and_justifications() {
        let cfg = Config::parse(SAMPLE).expect("sample config parses");
        assert_eq!(cfg.count("panic-path", "crates/a/src/x.rs#unwrap"), Some(3));
        let det = cfg.section("determinism");
        assert_eq!(det.len(), 2);
        assert_eq!(det[0].justification.len(), 2);
        assert!(det[0].justification[0].contains("first-appearance"));
        // The blank-line-separated file comment does not leak onto entries.
        assert!(cfg.section("panic-path")[0].justification.is_empty());
        // The second determinism entry has no justification of its own.
        assert!(det[1].justification.is_empty());
        assert_eq!(cfg.count("missing", "x"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Config::parse("\"k\" = 1").is_err(), "entry before section");
        assert!(
            Config::parse("[s]\n\"k\" = x").is_err(),
            "non-integer count"
        );
        assert!(Config::parse("[s\n").is_err(), "unterminated header");
        assert!(
            Config::parse("[s]\n\"k\" = 1\n\"k\" = 2").is_err(),
            "duplicate key"
        );
    }

    #[test]
    fn ratchet_rewrite_preserves_other_sections() {
        let mut counts = BTreeMap::new();
        counts.insert("crates/a/src/x.rs#unwrap".to_string(), 1u64);
        counts.insert("crates/c/src/z.rs#panic".to_string(), 4u64);
        let rewritten = Config::rewrite_ratchet_section(SAMPLE, "panic-path", &counts);
        let cfg = Config::parse(&rewritten).expect("rewritten config parses");
        assert_eq!(cfg.count("panic-path", "crates/a/src/x.rs#unwrap"), Some(1));
        assert_eq!(cfg.count("panic-path", "crates/c/src/z.rs#panic"), Some(4));
        assert_eq!(cfg.section("panic-path").len(), 2);
        // Determinism section and its justification survive verbatim.
        let det = cfg.section("determinism");
        assert_eq!(det.len(), 2);
        assert_eq!(det[0].justification.len(), 2);
    }

    #[test]
    fn ratchet_rewrite_appends_missing_section() {
        let mut counts = BTreeMap::new();
        counts.insert("a#unwrap".to_string(), 2u64);
        let rewritten = Config::rewrite_ratchet_section("[determinism]\n", "panic-path", &counts);
        let cfg = Config::parse(&rewritten).expect("appended config parses");
        assert_eq!(cfg.count("panic-path", "a#unwrap"), Some(2));
    }
}
