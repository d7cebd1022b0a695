#!/usr/bin/env python3
"""Net non-test source lines per crate, compared between two revisions.

A crate's non-test lines are, summed over every `.rs` file under
`crates/<crate>/src/`, the file's lines minus those of the items that a
`#[cfg(test)]` attribute gates. A gated item runs from its attribute line to
the end of the item, found by bracket depth: the close of its first `{ ... }`
block, or a `;` at depth zero when it has no block (a `use`). A gated field,
variant or expression also ends at a `,` at depth zero. Brackets inside
string and char literals and comments do not count. Code after a test-only
item is counted again, so a test helper above production code hides
nothing.

Usage: net_lines.py REV_A REV_B
       net_lines.py --self-test

REV_A and REV_B are any git revisions. Prints one row per crate (REV_A,
REV_B, delta) and a total. `--self-test` checks the counting on fixed
fixtures and exits nonzero on a mismatch.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MARKER = "#[cfg(test)]"
OPEN, CLOSE = "([{", ")]}"
# Items (and statements) whose commas are their own, not the end of the item.
ITEM_KEYWORDS = {
    "async", "const", "enum", "extern", "fn", "impl", "let", "macro_rules",
    "mod", "static", "struct", "trait", "type", "union", "unsafe", "use",
}
# The first word of the gated item, past further attributes, comments and a
# visibility.
FIRST_WORD = re.compile(
    r"(?:\s|#\[[^\]]*\]|//[^\n]*\n|/\*.*?\*/)*(?:pub(?:\([^)]*\))?\s+)?([A-Za-z_]\w*)",
    re.S,
)


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout


def code_chars(text):
    """Yields (offset, line index, char) for every character outside string
    and char literals and comments; newlines are yielded too."""
    i, line, n = 0, 0, len(text)
    block = 0  # nesting depth of /* */ comments
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            yield i, line, c
            line += 1
            i += 1
        elif block:
            if c == "/" and nxt == "*":
                block, i = block + 1, i + 2
            elif c == "*" and nxt == "/":
                block, i = block - 1, i + 2
            else:
                i += 1
        elif c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            block, i = 1, i + 2
        elif c == "r" and nxt in "#\"" and (i == 0 or not text[i - 1].isalnum()):
            # Raw string r"..." / r#"..."#: ends at a quote and as many hashes.
            j = i + 1
            while j < n and text[j] == "#":
                j += 1
            if j < n and text[j] == '"':
                end = '"' + "#" * (j - i - 1)
                close = text.find(end, j + 1)
                close = n if close < 0 else close + len(end)
                line += text.count("\n", i, close)
                i = close
            else:
                yield i, line, c
                i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            line += text.count("\n", i, j)
            i = j + 1
        elif c == "'":
            # A char literal ('{', '\'', '\u{7b}'); otherwise a lifetime.
            if nxt == "\\":
                close = text.find("'", i + 3)
                i = n if close < 0 else close + 1
            elif i + 2 < n and text[i + 2] == "'":
                i += 3
            else:
                yield i, line, c
                i += 1
        else:
            yield i, line, c
            i += 1


def test_lines(text):
    """The set of line indices belonging to `#[cfg(test)]`-gated items."""
    lines = text.splitlines()
    gated = set()
    starts = {i for i, l in enumerate(lines) if l.strip().startswith(MARKER)}
    start = None  # line of the attribute of the item being skipped
    depth = 0
    opened = False
    for i, line, c in code_chars(text):
        if start is None:
            if line in starts and c == "#":
                start, depth, opened = line, 0, False
                skip_attr = len(MARKER) - 1
                word = FIRST_WORD.match(text, i + len(MARKER))
                commas_end = not word or word.group(1) not in ITEM_KEYWORDS
            continue
        if skip_attr:
            skip_attr -= 1
            continue
        end = False
        if c in OPEN:
            depth += 1
            opened = opened or c == "{"
        elif c in CLOSE:
            depth -= 1
            end = depth < 0 or (depth == 0 and opened and c == "}")
        elif depth == 0 and (c == ";" or (c == "," and commas_end)):
            end = True
        if end:
            gated.update(range(start, line + 1))
            start = None
    if start is not None:
        gated.update(range(start, len(lines)))
    return gated


def non_test_lines(text):
    return len(text.splitlines()) - len(test_lines(text))


def crate_of(path):
    """`crates/<crate>/src/...rs` -> crate name, else None."""
    parts = path.split("/")
    if len(parts) >= 4 and parts[0] == "crates" and parts[2] == "src" and path.endswith(".rs"):
        return parts[1]
    return None


def count_rev(rev):
    totals = {}
    for path in git("ls-tree", "-r", "--name-only", rev, "crates").splitlines():
        crate = crate_of(path)
        if crate:
            text = git("show", f"{rev}:{path}")
            totals[crate] = totals.get(crate, 0) + non_test_lines(text)
    return totals


# (name, source, expected non-test lines)
FIXTURES = [
    (
        "test-only method above production code",
        """pub struct A;

impl A {
    #[cfg(test)]
    fn only_for_tests(&self) -> &'static str {
        "}"
    }

    pub fn production(&self) -> char {
        '}'
    }
}
""",
        8,
    ),
    (
        "trailing test module",
        """/// Doubles.
pub fn double(x: u32) -> u32 {
    x * 2 // } not a brace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles() {
        assert_eq!(double(2), 4, "{}", "{");
    }
}
""",
        5,
    ),
    (
        "gated use, field and one-line module",
        """#[cfg(test)]
use std::collections::HashMap;
pub struct B<'a> {
    #[cfg(test)]
    seen: HashMap<u32, u32>,
    name: &'a str,
    #[cfg(test)]
    pub calls: u32,
}
#[cfg(test)] mod unit { /* { */ }
pub fn last() {}
""",
        4,
    ),
    (
        "generic function with a where clause",
        """#[cfg(test)]
fn pair<A, B>(a: A, b: B) -> (A, B)
where
    A: Copy,
{
    (a, b)
}
pub fn kept() {}
""",
        1,
    ),
    (
        "raw strings and block comments",
        """pub const RAW: &str = r##"{ "# ;"##;
#[cfg(test)]
/* a { comment */
fn helper() -> &'static str {
    r"{"
}
pub fn after() {}
""",
        2,
    ),
]


def self_test():
    failures = 0
    for name, source, expected in FIXTURES:
        got = non_test_lines(source)
        if got != expected:
            failures += 1
            print(f"FAIL {name}: counted {got} non-test lines, expected {expected}")
    print(f"self-test: {len(FIXTURES) - failures}/{len(FIXTURES)} fixtures passed")
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    if len(argv) != 3:
        sys.exit(__doc__.strip())
    rev_a, rev_b = argv[1], argv[2]
    a, b = count_rev(rev_a), count_rev(rev_b)
    print(f"{'crate':<14}{rev_a[:12]:>14}{rev_b[:12]:>14}{'delta':>8}")
    for crate in sorted(set(a) | set(b)):
        before, after = a.get(crate, 0), b.get(crate, 0)
        print(f"{crate:<14}{before:>14}{after:>14}{after - before:>+8}")
    total_a, total_b = sum(a.values()), sum(b.values())
    print(f"{'total':<14}{total_a:>14}{total_b:>14}{total_b - total_a:>+8}")


if __name__ == "__main__":
    main(sys.argv)
