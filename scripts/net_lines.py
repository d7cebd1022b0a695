#!/usr/bin/env python3
"""Net non-test source lines per crate, compared between two revisions.

A crate's non-test lines are, summed over every `.rs` file under
`crates/<crate>/src/`, the lines above the file's first `#[cfg(test)]`
(the whole file when it has none). Unit tests live below that marker, so
the count tracks production code only.

Usage: net_lines.py REV_A REV_B

REV_A and REV_B are any git revisions. Prints one row per crate (REV_A,
REV_B, delta) and a total.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout


def non_test_lines(text):
    count = 0
    for line in text.splitlines():
        if line.strip().startswith("#[cfg(test)]"):
            break
        count += 1
    return count


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


def main(argv):
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
