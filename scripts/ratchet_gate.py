#!/usr/bin/env python3
"""Ratchet gate: reconcile btr-analyzer findings against the baseline file.

`cargo run -p btr-analyzer -- check --json FINDINGS.json` already exits
nonzero on unratcheted findings; this script is the independent second
opinion CI runs on the emitted artifact, with no Rust in the loop. It
re-parses `analyzer-ratchet.toml` with its own reader, re-counts the
report's per-`file#category` panic-path sites, prints an aligned debt table,
and fails when

* any unratcheted finding appears in the report,
* any ratcheted `[panic-path]` count in the report exceeds its baseline
  (debt may only fall),
* an allowlist entry (`[dead-pub]` and every other section but
  `[panic-path]`) has no justification comment directly above it, or
* the report totals disagree with the findings list (a tampered or
  truncated artifact).

Beside the debt table it prints the `[dead-pub]` entry count — the public
items kept only for callers outside library code — so each burn-down of
dead public API shows in the CI log.

Usage: ratchet_gate.py RATCHET.toml FINDINGS.json
"""

import argparse
import json
import sys


def parse_ratchet(path):
    """Parses the analyzer's TOML subset: [section] headers, # comments and
    `"file#category" = count` entries. Mirrors crates/analyzer/src/config.rs;
    anything that parser rejects is rejected here too.

    Returns the per-section entries and the (section, key, line) of every
    entry with no comment line directly above it (a blank line or a section
    header in between detaches a comment, as in the Rust parser)."""
    sections = {}
    uncommented = []
    current = None
    commented = False
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                commented = False
                continue
            if line.startswith("#"):
                commented = commented or bool(line[1:].strip())
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                commented = False
                continue
            if "=" not in line or current is None:
                raise SystemExit(f"{path}:{line_no}: malformed line: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().strip('"')
            entries = sections[current]
            if key in entries:
                raise SystemExit(f"{path}:{line_no}: duplicate key {key!r}")
            try:
                entries[key] = int(value.strip())
            except ValueError:
                raise SystemExit(f"{path}:{line_no}: non-integer count: {line!r}")
            if not commented:
                uncommented.append((current, key, line_no))
            commented = False
    return sections, uncommented


def print_table(rows):
    """Prints an aligned per-key debt table of (key, baseline, current, status)."""
    headers = ("file#category", "baseline", "current", "status")
    rendered = [
        (key, str(old) if old is not None else "-", str(new), status)
        for key, old, new, status in rows
    ]
    widths = [
        max(len(headers[col]), max((len(r[col]) for r in rendered), default=0))
        for col in range(len(headers))
    ]

    def line(cells):
        out = [cells[0].ljust(widths[0])]
        out += [cells[col].rjust(widths[col]) for col in range(1, len(cells))]
        return "  " + "  ".join(out)

    print(line(headers))
    print(line(tuple("-" * w for w in widths)))
    for row in rendered:
        print(line(row))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ratchet", help="analyzer-ratchet.toml")
    parser.add_argument("findings", help="findings JSON emitted by check --json")
    args = parser.parse_args()

    sections, uncommented = parse_ratchet(args.ratchet)
    baseline = sections.get("panic-path", {})
    with open(args.findings, encoding="utf-8") as fh:
        report = json.load(fh)

    failures = []

    # Every allowlist entry carries its justification; ratchet counts do not.
    for section, key, line_no in uncommented:
        if section != "panic-path":
            failures.append(
                f"{args.ratchet}:{line_no}: [{section}] entry {key!r} has no "
                "justification comment above it"
            )

    # Independent total cross-checks against the findings list.
    findings = report.get("findings", [])
    if report.get("total") != len(findings):
        failures.append(f"report total {report.get('total')} != {len(findings)} findings")
    unratcheted = [f for f in findings if not f.get("ratcheted")]
    if report.get("unratcheted") != len(unratcheted):
        failures.append(
            f"report unratcheted {report.get('unratcheted')} != "
            f"{len(unratcheted)} unratcheted findings"
        )

    for finding in unratcheted:
        failures.append(
            f"{finding.get('file')}:{finding.get('line')}: "
            f"[{finding.get('pass')}/{finding.get('category')}] {finding.get('message')}"
        )

    # The ratchet direction: current panic-path debt must not exceed baseline.
    current = {k: int(v) for k, v in report.get("ratchet_counts", {}).items()}
    rows = []
    for key in sorted(set(baseline) | set(current)):
        old = baseline.get(key)
        new = current.get(key, 0)
        if old is None:
            status = "NEW"  # already failed above via an unratcheted finding
        elif new > old:
            status = "GREW"
            failures.append(f"{key}: debt grew {old} -> {new} (ratchet only goes down)")
        elif new < old:
            status = "SHRANK"  # informational: run `btr-analyzer ratchet` to lock in
        else:
            status = "OK"
        rows.append((key, old, new, status))
    print_table(rows)
    dead_pub = len(sections.get("dead-pub", {}))
    print(f"\n  [dead-pub] {dead_pub} public items kept for callers outside library code")

    debt = sum(current.values())
    if failures:
        print(f"\ngate: {len(failures)} failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    shrunk = sum(1 for _, old, new, _ in rows if old is not None and new < old)
    note = f"; {shrunk} entries shrank — run `btr-analyzer ratchet` to lock in" if shrunk else ""
    print(f"\ngate: clean — {debt} ratcheted panic-path sites, 0 new findings{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
