#!/usr/bin/env python3
"""Bench regression gate: diff two CRITERION_JSON line files.

The vendored criterion appends one JSON object per benchmark to
$CRITERION_JSON, carrying `id`, `mean_ns` and (for throughput benches)
`per_sec`. CI archives that file per run; this script compares the current
run against the previous artifact, prints a per-benchmark delta summary
table, and fails when any benchmark's records/sec drops by more than the
threshold (default 15%).

Benchmarks without a `per_sec` field fall back to comparing `mean_ns`
(inverted, so "slower" is a regression either way). Ids present in only one
file are reported but never fail the gate — benches come and go across PRs.

Benches may also append *constraint* rows of the form
`{"id": ..., "ref": ..., "min_ratio": N, "pair_ratios": [...]}` (the
criterion stand-in's `bench_ratio_pair`). Each one asserts that, within the
CURRENT file alone, `id` runs at least `min_ratio` times as fast as `ref`.
The stand-in interleaves the two benchmarks' samples in alternating order
(A, B, then B, A, ...) and records A's rate over B's for every sample pair;
the gate takes the median of those, so load that comes and goes during the
run cancels instead of landing on one side. A constraint row without
`pair_ratios` is malformed and fails the gate. Because both sides are
measured in the same run, the check is immune to shared-runner speed
differences, and it runs even when no baseline file is available — it is a
property of the current build, not a diff.

Usage: bench_gate.py BASELINE.json CURRENT.json [--threshold 0.15]
"""

import argparse
import json
import statistics
import sys


def load(path):
    """Parses a JSON-lines bench file into ({id: rate}, [constraints]).

    Measurement rows keep the last write per id. Constraint rows — those
    carrying a `min_ratio` — are collected in file order as
    (id, ref, min_ratio, pair_ratios) tuples; `ref` or `pair_ratios` is None
    when the row lacks it, and `check_ratio_floors` fails such a row.
    """
    rates = {}
    constraints = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"{path}:{line_no}: skipping unparsable line ({e})")
                continue
            bench_id = row.get("id")
            if bench_id is None:
                continue
            if row.get("min_ratio") is not None:
                pairs = row.get("pair_ratios")
                pairs = [float(r) for r in pairs] if pairs else None
                constraints.append(
                    (bench_id, row.get("ref"), float(row["min_ratio"]), pairs)
                )
                continue
            if row.get("per_sec"):
                rates[bench_id] = float(row["per_sec"])
            elif row.get("mean_ns"):
                # No throughput declared: use inverse time so that a larger
                # value is still "faster".
                rates[bench_id] = 1e9 / float(row["mean_ns"])
    return rates, constraints


def check_ratio_floors(constraints):
    """Verifies every in-run ratio floor on the median of its pair ratios.

    Prints an aligned summary table pairing each constraint's median
    per-pair ratio with its declared floor, and returns the list of
    violation strings (empty when all floors hold). A constraint row without
    a `ref` or without pairs is a violation of its own.
    """
    violations = []
    rows = []
    for bench_id, ref, min_ratio, pairs in constraints:
        if ref is None or not pairs:
            lacks = "'ref'" if ref is None else "'pair_ratios'"
            rows.append((f"{bench_id} / {ref}", None, min_ratio, "MALFORMED"))
            violations.append(f"{bench_id} >= {min_ratio}x: constraint row lacks {lacks}")
            continue
        ratio = statistics.median(pairs)
        status = "OK" if ratio >= min_ratio else "BELOW FLOOR"
        rows.append((f"{bench_id} / {ref}", ratio, min_ratio, status))
        if ratio < min_ratio:
            violations.append(
                f"{bench_id} at {ratio:.2f}x of {ref}, floor is {min_ratio}x"
            )
    print_constraint_table(rows)
    return violations


def print_constraint_table(rows):
    """Prints the aligned in-run ratio-floor table.

    `rows` is a list of (constraint, measured, floor, status) with
    `measured` None for a malformed constraint row.
    """
    headers = ("constraint", "median pair", "floor", "status")
    rendered = [
        (
            constraint,
            f"{measured:.2f}x" if measured is not None else "-",
            f">={floor}x",
            status,
        )
        for constraint, measured, floor, status in rows
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


def print_table(rows):
    """Prints an aligned per-benchmark delta summary table.

    `rows` is a list of (bench_id, baseline, current, delta, status) with
    baseline/current/delta possibly None (NEW and DROPPED benchmarks).
    """
    headers = ("benchmark", "baseline/s", "current/s", "delta", "status")
    rendered = [
        (
            bench_id,
            f"{old:.3e}" if old is not None else "-",
            f"{new:.3e}" if new is not None else "-",
            f"{change:+.1%}" if change is not None else "-",
            status,
        )
        for bench_id, old, new, change, status in rows
    ]
    widths = [
        max(len(headers[col]), max((len(r[col]) for r in rendered), default=0))
        for col in range(len(headers))
    ]

    def line(cells):
        # Left-align the benchmark name, right-align the numeric columns.
        out = [cells[0].ljust(widths[0])]
        out += [cells[col].rjust(widths[col]) for col in range(1, len(cells))]
        return "  " + "  ".join(out)

    print(line(headers))
    print(line(tuple("-" * w for w in widths)))
    for row in rendered:
        print(line(row))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="maximum tolerated fractional throughput drop (default 0.15)",
    )
    args = parser.parse_args()

    baseline, _ = load(args.baseline)
    current, constraints = load(args.current)

    # In-run ratio floors are a property of the current run alone, so they
    # are enforced even on the very first run, before any baseline exists.
    ratio_failures = []
    if constraints:
        print(f"in-run ratio floors ({len(constraints)} declared):")
        ratio_failures = check_ratio_floors(constraints)
        print()

    if not baseline:
        print(f"gate: baseline {args.baseline} holds no benchmarks; skipping diff")
        if ratio_failures:
            print(f"\ngate: {len(ratio_failures)} in-run ratio floor(s) violated:")
            for violation in ratio_failures:
                print(f"  {violation}")
            return 1
        return 0

    rows = []
    failures = []
    for bench_id in sorted(set(baseline) | set(current)):
        old = baseline.get(bench_id)
        new = current.get(bench_id)
        if old is None:
            rows.append((bench_id, None, new, None, "NEW"))
            continue
        if new is None:
            rows.append((bench_id, old, None, None, "DROPPED"))
            continue
        change = (new - old) / old
        status = "OK"
        if change < -args.threshold:
            status = "REGRESSED"
            failures.append((bench_id, old, new, change))
        rows.append((bench_id, old, new, change, status))

    print_table(rows)

    failed = False
    if failures:
        print(
            f"\ngate: {len(failures)} benchmark(s) regressed more than "
            f"{args.threshold:.0%}:"
        )
        for bench_id, old, new, change in failures:
            print(f"  {bench_id}: {old:.3e} -> {new:.3e}/s ({change:+.1%})")
        failed = True
    if ratio_failures:
        print(f"\ngate: {len(ratio_failures)} in-run ratio floor(s) violated:")
        for violation in ratio_failures:
            print(f"  {violation}")
        failed = True
    if failed:
        return 1
    print(f"\ngate: no regression beyond {args.threshold:.0%} across {len(current)} benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
