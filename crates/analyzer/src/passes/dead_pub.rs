//! `dead-pub`: public library items that no other library file names.
//!
//! Every `pub` item is API the workspace promises to keep working. An item
//! that no other first-party library file ever names is either dead code or
//! API kept alive only by a test, bench, example or the benchmark harness —
//! and the second kind must say so.
//!
//! This pass collects the `pub` `fn`, `struct`, `enum`, `trait`, `const`,
//! `type` and `static` items of first-party library code outside
//! `#[cfg(test)]` items and `src/bin/`. Restricted visibility (`pub(crate)`
//! and the like) is out of scope. An item is live when an identifier token
//! with its name appears in non-test code of *another* library file, binaries
//! under `src/bin/` included. Tokens inside a `pub use …;` re-export do not
//! count, so a `lib.rs` re-export or the facade prelude keeps nothing alive.
//! A private `use` does count: an unused one fails clippy, and a trait
//! imported only to call its methods is named nowhere else in the file.
//! Matching is by bare name, so a clash can only hide a dead item, never
//! flag a live one.
//!
//! Each dead item is a `file#Name` finding. One the workspace keeps on
//! purpose is allowlisted in `[dead-pub]` with a comment naming its caller
//! outside library code (an e2ebench file, example, bench or the test that
//! uses it as an oracle) or the paper figure it holds.

use super::{finding, reconcile, Context, Mode};
use crate::files::Scope;
use crate::findings::{Finding, Report};
use crate::lexer::{Token, TokenKind, TokenStream};
use std::collections::{BTreeMap, BTreeSet};

/// Pass name, used in findings and as the config section.
pub const PASS: &str = "dead-pub";

/// The item keywords whose `pub` definitions the pass collects.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "type", "static"];

/// Runs the pass over first-party library files.
pub fn run(ctx: &Context<'_>, report: &mut Report) {
    let lib: Vec<_> = ctx
        .files
        .iter()
        .filter(|lexed| lexed.file.scope == Scope::WorkspaceLib)
        .collect();
    // Which library files name each identifier outside tests and re-exports.
    let mut named_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (idx, lexed) in lib.iter().enumerate() {
        let stream = &lexed.stream;
        let in_reexport = reexports(&stream.tokens);
        for (i, tok) in stream.tokens.iter().enumerate() {
            if tok.kind == TokenKind::Ident && !stream.in_test[i] && !in_reexport[i] {
                named_in.entry(tok.text.as_str()).or_default().insert(idx);
            }
        }
    }
    let mut found: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for (idx, lexed) in lib.iter().enumerate() {
        let path = lexed.file.rel_path.as_str();
        if path.starts_with("src/bin/") || path.contains("/src/bin/") {
            continue;
        }
        for (kind, name) in pub_items(&lexed.stream) {
            let live = named_in
                .get(name.text.as_str())
                .is_some_and(|files| files.iter().any(|&f| f != idx));
            if live {
                continue;
            }
            let f = finding(
                PASS,
                &name.text,
                path,
                name.line,
                format!(
                    "pub {kind} `{}` is named by no other library file",
                    name.text
                ),
            );
            found.entry(f.key()).or_default().push(f);
        }
    }
    reconcile(PASS, PASS, Mode::Allowlist, found, ctx, report);
}

/// The `pub` items of a stream's non-test code, as (keyword, name token).
fn pub_items(stream: &TokenStream) -> Vec<(&str, &Token)> {
    let tokens = &stream.tokens;
    let ident = |j: usize| tokens.get(j).filter(|t| t.kind == TokenKind::Ident);
    let mut items = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_ident("pub") || stream.in_test[i] {
            continue;
        }
        // `pub const fn f` is a function; `pub const N` a constant.
        let mut j = i + 1;
        if ident(j).is_some_and(|t| t.text == "const")
            && ident(j + 1).is_some_and(|t| t.text == "fn")
        {
            j += 1;
        }
        let Some(keyword) = ident(j).filter(|t| ITEM_KEYWORDS.contains(&t.text.as_str())) else {
            continue;
        };
        if let Some(name) = ident(j + 1) {
            items.push((keyword.text.as_str(), name));
        }
    }
    items
}

/// Marks the tokens of every `pub use …;` re-export (`pub(…) use` too),
/// from `pub` through `;`.
fn reexports(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("pub") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                while j < tokens.len() && !tokens[j].is_punct(')') {
                    j += 1;
                }
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_ident("use")) {
                while i < tokens.len() {
                    mask[i] = true;
                    if tokens[i].is_punct(';') {
                        break;
                    }
                    i += 1;
                }
            }
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::files::SourceFile;
    use crate::passes::{audit_allowlist_justifications, LexedFile};
    use std::path::Path;

    const DEFINING: &str = "crates/a/src/thing.rs";
    const ITEM: &str = "pub struct Widget;\npub fn make() -> Widget { Widget }\n";

    /// Runs `pass` over in-memory `(path, scope, source)` files.
    fn run_files(
        files: &[(&str, Scope, &str)],
        config: &str,
        pass: fn(&Context<'_>, &mut Report),
    ) -> Report {
        let config = Config::parse(config).expect("test config parses");
        let files: Vec<LexedFile> = files
            .iter()
            .map(|&(path, scope, source)| LexedFile {
                file: SourceFile {
                    rel_path: path.to_string(),
                    scope,
                    source: source.to_string(),
                },
                stream: TokenStream::lex(source),
            })
            .collect();
        let ctx = Context {
            root: Path::new("."),
            files: &files,
            config: &config,
        };
        let mut report = Report::default();
        pass(&ctx, &mut report);
        report.finalize();
        report
    }

    /// The names of the unratcheted findings `ITEM` plus `others` produce.
    fn dead(others: &[(&str, Scope, &str)]) -> Vec<String> {
        let mut files = vec![(DEFINING, Scope::WorkspaceLib, ITEM)];
        files.extend_from_slice(others);
        run_files(&files, "", run)
            .unratcheted()
            .map(|f| f.category.clone())
            .collect()
    }

    #[test]
    fn items_of_every_kind_are_collected_and_restricted_ones_skipped() {
        let src = "pub fn a() {}\npub const fn b() {}\npub const C: u8 = 1;\n\
                   pub static E: u8 = 0;\n\
                   pub struct F { pub field: u8 }\npub enum G {}\npub trait H {}\n\
                   pub type I = u8;\npub(crate) fn j() {}\npub(super) struct K;\n\
                   pub mod l {}\npub use m::N;\nfn private() {}\n\
                   #[cfg(test)]\nmod tests { pub fn in_test() {} }";
        let stream = TokenStream::lex(src);
        let names: Vec<(&str, &str)> = pub_items(&stream)
            .into_iter()
            .map(|(kind, name)| (kind, name.text.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                ("fn", "a"),
                ("fn", "b"),
                ("const", "C"),
                ("static", "E"),
                ("struct", "F"),
                ("enum", "G"),
                ("trait", "H"),
                ("type", "I"),
            ]
        );
    }

    #[test]
    fn a_use_in_its_own_file_keeps_nothing_alive() {
        assert_eq!(dead(&[]), ["Widget", "make"]);
    }

    #[test]
    fn a_pub_use_reexport_alone_leaves_an_item_dead() {
        let reexport = "pub use crate::thing::{make, Widget};\npub mod thing;";
        let prelude = "pub mod prelude { pub use a::thing::*; pub use a::Widget; }";
        let scoped = "pub(crate) use crate::thing::make;";
        assert_eq!(
            dead(&[
                ("crates/a/src/lib.rs", Scope::WorkspaceLib, reexport),
                ("src/lib.rs", Scope::WorkspaceLib, prelude),
                ("crates/a/src/inner.rs", Scope::WorkspaceLib, scoped),
            ]),
            ["Widget", "make"]
        );
    }

    #[test]
    fn a_private_use_for_trait_methods_makes_a_trait_live() {
        let defining = "pub trait Draw { fn draw(&self); }\n\
                        pub struct Widget;\nimpl Draw for Widget { fn draw(&self) {} }";
        let caller = "use crate::thing::Draw;\npub(crate) fn show(w: &W) { w.draw(); }";
        let report = run_files(
            &[
                (DEFINING, Scope::WorkspaceLib, defining),
                ("crates/a/src/view.rs", Scope::WorkspaceLib, caller),
            ],
            "",
            run,
        );
        let dead: Vec<_> = report.unratcheted().map(|f| f.category.clone()).collect();
        assert_eq!(dead, ["Widget"]);
    }

    #[test]
    fn test_code_callers_leave_an_item_dead() {
        let cfg_test = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { a::make(); } }";
        let integration = "#[test]\nfn t() { let _: a::Widget = a::make(); }";
        assert_eq!(
            dead(&[
                ("crates/a/src/other.rs", Scope::WorkspaceLib, cfg_test),
                ("crates/a/tests/it.rs", Scope::WorkspaceTest, integration),
                ("examples/demo.rs", Scope::WorkspaceTest, integration),
                ("vendor/v/src/lib.rs", Scope::Vendor, integration),
            ]),
            ["Widget", "make"]
        );
    }

    #[test]
    fn a_src_bin_caller_makes_an_item_live() {
        let bin = "fn main() { let _ = a::make(); }";
        assert_eq!(
            dead(&[("crates/a/src/bin/tool.rs", Scope::WorkspaceLib, bin)]),
            ["Widget"]
        );
        // Items defined under src/bin are never collected.
        assert!(
            run_files(&[("src/bin/tool.rs", Scope::WorkspaceLib, ITEM)], "", run)
                .findings
                .is_empty()
        );
    }

    #[test]
    fn a_same_named_item_in_another_file_makes_an_item_live() {
        let clash = "pub fn make() {}\nfn other() { make(); }";
        assert_eq!(
            dead(&[("crates/b/src/lib.rs", Scope::WorkspaceLib, clash)]),
            ["Widget"]
        );
    }

    #[test]
    fn exact_entries_cover_dead_items_and_stale_ones_fail() {
        let allow = "[dead-pub]\n# oracle for crates/a/tests/it.rs\n\
                     \"crates/a/src/thing.rs#Widget\" = 1\n\
                     # oracle for crates/a/tests/it.rs\n\
                     \"crates/a/src/thing.rs#make\" = 1\n";
        let files = [(DEFINING, Scope::WorkspaceLib, ITEM)];
        assert_eq!(run_files(&files, allow, run).unratcheted_count(), 0);
        // Once something calls `make`, its entry is stale and fails.
        let caller = "fn f() { a::make(); }";
        let report = run_files(
            &[
                files[0],
                ("crates/b/src/lib.rs", Scope::WorkspaceLib, caller),
            ],
            allow,
            run,
        );
        let failing: Vec<_> = report.unratcheted().collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].category, "stale-allowlist");
        assert!(failing[0].message.contains("thing.rs#make"));
    }

    #[test]
    fn an_entry_without_a_justification_fails() {
        let allow = "[dead-pub]\n\"crates/a/src/thing.rs#Widget\" = 1\n\
                     # oracle for crates/a/tests/it.rs\n\
                     \"crates/a/src/thing.rs#make\" = 1\n";
        let files = [(DEFINING, Scope::WorkspaceLib, ITEM)];
        let report = run_files(&files, allow, |ctx, report| {
            audit_allowlist_justifications(ctx, report);
            run(ctx, report);
        });
        let failing: Vec<_> = report
            .unratcheted()
            .map(|f| (f.pass.as_str(), f.category.as_str()))
            .collect();
        assert_eq!(failing, [(PASS, "missing-justification")]);
    }
}
