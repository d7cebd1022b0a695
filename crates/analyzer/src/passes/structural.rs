//! `structural`: cross-file invariants over manifests, CI config and docs.
//!
//! Three invariants that no compiler checks, each of which has silently
//! rotted in other projects:
//!
//! * **bench-gate coverage** — every `[[bench]]` target registered in
//!   `crates/bench/Cargo.toml` must be exercised by the CI `bench-baseline`
//!   job (a `cargo bench --bench <name>` line in
//!   `.github/workflows/ci.yml`), or be allowlisted with a reason;
//! * **wire roundtrip coverage** — every public type with an
//!   `impl Wire for T` in first-party library code must be named in at
//!   least one file under a `tests/` directory, so no wire format ships
//!   without an independent decode test;
//! * **vendor table** — every crate directory under `vendor/` must be named
//!   in the README's vendor documentation, so a new stand-in cannot land
//!   undocumented.
//!
//! Findings key as `<manifest>#bench:<name>`, `<file>#wire:<Type>` and
//! `README.md#vendor:<crate>` in the `[structural]` allowlist section, so
//! each exempted target is named (and justified) individually.

use super::{finding, reconcile, Context, Mode};
use crate::files::Scope;
use crate::findings::{Finding, Report};
use crate::lexer::TokenKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;

/// Pass name, used in findings and as the config section.
pub const PASS: &str = "structural";

/// Runs the structural checks.
pub fn run(ctx: &Context<'_>, report: &mut Report) {
    let mut found: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    check_bench_gate(ctx, &mut found);
    check_wire_coverage(ctx, &mut found);
    check_vendor_table(ctx, &mut found);
    reconcile(PASS, PASS, Mode::Allowlist, found, ctx, report);
}

fn push(found: &mut BTreeMap<String, Vec<Finding>>, f: Finding) {
    found.entry(f.key()).or_default().push(f);
}

/// Every `[[bench]]` target appears in CI's bench-baseline job.
fn check_bench_gate(ctx: &Context<'_>, found: &mut BTreeMap<String, Vec<Finding>>) {
    let manifest = read(ctx, "crates/bench/Cargo.toml");
    let ci = read(ctx, ".github/workflows/ci.yml");
    // `cargo bench --bench <name>` occurrences, whitespace-tokenized so a
    // name can never match as a substring of another.
    let gated: BTreeSet<&str> = {
        let words: Vec<&str> = ci.split_whitespace().collect();
        words
            .windows(2)
            .filter(|w| w[0] == "--bench")
            .map(|w| w[1])
            .collect()
    };
    let mut lines = manifest.lines().enumerate().peekable();
    while let Some((_, line)) = lines.next() {
        if line.trim() != "[[bench]]" {
            continue;
        }
        // The name key follows the table header (possibly after comments).
        for (name_idx, name_line) in lines.by_ref() {
            let trimmed = name_line.trim();
            if trimmed.starts_with('#') || trimmed.is_empty() {
                continue;
            }
            if let Some(value) = trimmed.strip_prefix("name") {
                let name = value.trim_start_matches(['=', ' ']).trim_matches('"');
                if !gated.contains(name) {
                    push(
                        found,
                        finding(
                            PASS,
                            &format!("bench:{name}"),
                            "crates/bench/Cargo.toml",
                            (name_idx + 1) as u32,
                            format!(
                                "[[bench]] target {name:?} is not run by the CI bench-baseline job"
                            ),
                        ),
                    );
                }
            }
            break;
        }
    }
}

/// Every `impl Wire for T` type is named in a `tests/` file.
fn check_wire_coverage(ctx: &Context<'_>, found: &mut BTreeMap<String, Vec<Finding>>) {
    // Identifiers appearing in any integration-test file.
    let mut test_idents: BTreeSet<&str> = BTreeSet::new();
    for lexed in ctx.files {
        let in_tests_dir =
            lexed.file.rel_path.starts_with("tests/") || lexed.file.rel_path.contains("/tests/");
        if lexed.file.scope != Scope::WorkspaceTest || !in_tests_dir {
            continue;
        }
        for tok in &lexed.stream.tokens {
            if tok.kind == TokenKind::Ident {
                test_idents.insert(tok.text.as_str());
            }
        }
    }
    for lexed in ctx.files {
        if lexed.file.scope != Scope::WorkspaceLib {
            continue;
        }
        let tokens = &lexed.stream.tokens;
        for (i, tok) in tokens.iter().enumerate() {
            if !tok.is_ident("impl") || lexed.stream.in_test[i] {
                continue;
            }
            // Skip an optional generic parameter list: `impl<T> Wire for …`.
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
                let mut depth = 0usize;
                while let Some(t) = tokens.get(j) {
                    if t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            let is_wire_impl = tokens.get(j).is_some_and(|t| t.is_ident("Wire"))
                && tokens.get(j + 1).is_some_and(|t| t.is_ident("for"));
            if !is_wire_impl {
                continue;
            }
            let Some(ty) = tokens.get(j + 2).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            if !test_idents.contains(ty.text.as_str()) {
                push(
                    found,
                    finding(
                        PASS,
                        &format!("wire:{}", ty.text),
                        &lexed.file.rel_path,
                        ty.line,
                        format!(
                            "`impl Wire for {}` has no mention in any tests/ file — add a \
                             roundtrip test",
                            ty.text
                        ),
                    ),
                );
            }
        }
    }
}

/// Every `vendor/<crate>` directory is documented in the README.
fn check_vendor_table(ctx: &Context<'_>, found: &mut BTreeMap<String, Vec<Finding>>) {
    let readme = read(ctx, "README.md");
    let vendor_lines: Vec<&str> = readme
        .lines()
        .filter(|l| l.to_ascii_lowercase().contains("vendor"))
        .collect();
    let crates: BTreeSet<String> = ctx
        .files
        .iter()
        .filter_map(|l| {
            l.file
                .rel_path
                .strip_prefix("vendor/")
                .and_then(|rest| rest.split('/').next())
                .map(str::to_string)
        })
        .collect();
    for name in crates {
        if !vendor_lines.iter().any(|l| l.contains(&name)) {
            push(
                found,
                finding(
                    PASS,
                    &format!("vendor:{name}"),
                    "README.md",
                    0,
                    format!("vendored crate {name:?} is missing from the README vendor table"),
                ),
            );
        }
    }
}

/// Reads a workspace file, tolerating absence (a missing manifest simply
/// yields findings for everything it should have contained).
fn read(ctx: &Context<'_>, rel: &str) -> String {
    fs::read_to_string(ctx.root.join(rel)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::files::SourceFile;
    use crate::lexer::TokenStream;
    use crate::passes::{Context, LexedFile};
    use std::path::Path;

    fn lexed(rel_path: &str, scope: Scope, source: &str) -> LexedFile {
        LexedFile {
            file: SourceFile {
                rel_path: rel_path.to_string(),
                scope,
                source: source.to_string(),
            },
            stream: TokenStream::lex(source),
        }
    }

    #[test]
    fn wire_impls_need_test_mentions() {
        let files = vec![
            lexed(
                "crates/x/src/lib.rs",
                Scope::WorkspaceLib,
                "impl Wire for Covered {}\nimpl Wire for Orphan {}\nimpl<T> Wire for Generic {}",
            ),
            lexed(
                "crates/x/tests/roundtrip.rs",
                Scope::WorkspaceTest,
                "fn t() { Covered::from_json(s); Generic::from_btrw(b); }",
            ),
        ];
        let config = Config::parse("").expect("empty config parses");
        let ctx = Context {
            root: Path::new("/nonexistent"),
            files: &files,
            config: &config,
        };
        let mut found = BTreeMap::new();
        check_wire_coverage(&ctx, &mut found);
        let keys: Vec<&String> = found.keys().collect();
        assert_eq!(keys, vec!["crates/x/src/lib.rs#wire:Orphan"]);
    }

    #[test]
    fn bench_names_match_whole_words_only() {
        // A gated name must not cover a differently named target by prefix.
        let dir = std::env::temp_dir().join("btr-analyzer-structural-test");
        std::fs::create_dir_all(dir.join("crates/bench")).expect("create temp manifest dir");
        std::fs::create_dir_all(dir.join(".github/workflows")).expect("create temp ci dir");
        std::fs::write(
            dir.join("crates/bench/Cargo.toml"),
            "[[bench]]\nname = \"fused\"\nharness = false\n[[bench]]\nname = \"fused_extra\"\n",
        )
        .expect("write temp manifest");
        std::fs::write(
            dir.join(".github/workflows/ci.yml"),
            "run: |\n  cargo bench --bench fused\n",
        )
        .expect("write temp ci config");
        let config = Config::parse("").expect("empty config parses");
        let ctx = Context {
            root: &dir,
            files: &[],
            config: &config,
        };
        let mut found = BTreeMap::new();
        check_bench_gate(&ctx, &mut found);
        let keys: Vec<&String> = found.keys().collect();
        assert_eq!(keys, vec!["crates/bench/Cargo.toml#bench:fused_extra"]);
    }
}
