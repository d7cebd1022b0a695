#!/usr/bin/env python3
"""Compare e2ebench runs of a parent commit and a change, metric by metric.

Usage: ab_compare.py PARENT CHANGE
       ab_compare.py --self-test

PARENT and CHANGE are files holding the result objects of several runs of
one workload, one per line: the last stdout line of each
`bash e2ebench/run.sh --workload W ...` run. Line i of each file forms pair
i, so run the two sides alternately. Blank lines are skipped.

The end-to-end metrics, their directions and their regression bounds come
from BENCHMARK.json at the repository root; the script only reads it. For
each metric it prints:

- the median and interquartile range (IQR) of each side;
- how many pairs the change won (ties count for neither side);
- the Mann-Whitney U of the change against the parent, and its two-sided
  p-value from the normal approximation with tie and continuity
  corrections;
- Cliff's delta, signed so that positive means the change reads better,
  with its magnitude (negligible < 0.147 <= small < 0.33 <= medium
  < 0.474 <= large);
- a verdict:
  * regressed   the change's median is worse than the parent's by more
                than the metric's bound;
  * improved    at least ten pairs were run, the change won at least 9/10
                of them and the medians differ by more than the parent's
                IQR;
  * unresolved  either side's IQR, relative to its median, is wider than
                the bound, and not every change run beats every parent run;
  * unchanged   none of the above: within the bound.

Failed operations are summed per side; a larger failed share in the change
is reported as a regression. Exits 1 if any metric regressed, else 0.
"""

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Fewer pairs than this never support a gain.
MIN_PAIRS = 10

CLIFF_CUTOFFS = ((0.147, "negligible"), (0.33, "small"), (0.474, "medium"))


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def iqr(values):
    return quantile(values, 0.75) - quantile(values, 0.25)


def relative_iqr(values):
    m = median(values)
    return iqr(values) / abs(m) if m else 0.0


def better(a, b, higher):
    """True when `a` reads better than `b` for a metric of this direction."""
    return a > b if higher else a < b


def mann_whitney(change, parent):
    """U of `change` against `parent` and its two-sided p-value.

    U counts the (change, parent) pairs in which the change value is larger,
    ties counting one half. The p-value uses the normal approximation with
    the tie-corrected variance and a continuity correction of 0.5.
    """
    n1, n2 = len(change), len(parent)
    u = sum(1.0 if c > p else 0.5 if c == p else 0.0 for c in change for p in parent)
    n = n1 + n2
    counts = {}
    for v in change + parent:
        counts[v] = counts.get(v, 0) + 1
    ties = sum(t**3 - t for t in counts.values())
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))
    if var <= 0:
        return u, 1.0
    mu = n1 * n2 / 2.0
    z = max(abs(u - mu) - 0.5, 0.0) / math.sqrt(var)
    return u, math.erfc(z / math.sqrt(2))


def cliffs_delta(change, parent, higher):
    """Cliff's delta, positive when the change reads better, and its size."""
    wins = sum(better(c, p, higher) for c in change for p in parent)
    losses = sum(better(p, c, higher) for c in change for p in parent)
    delta = (wins - losses) / (len(change) * len(parent))
    for cutoff, name in CLIFF_CUTOFFS:
        if abs(delta) < cutoff:
            return delta, name
    return delta, "large"


def verdict(parent, change, higher, bound):
    """One of regressed / improved / unresolved / unchanged (see the doc)."""
    mp, mc = median(parent), median(change)
    worse_by = (mp - mc if higher else mc - mp) / abs(mp) if mp else 0.0
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, higher) for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins * 10 >= 9 * len(pairs)
        and better(mc, mp, higher)
        and abs(mc - mp) > iqr(parent)
    ):
        return "improved"
    spread = max(relative_iqr(parent), relative_iqr(change))
    all_better = all(better(c, p, higher) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_runs, change_runs, metrics):
    """Rows of the comparison table, one per metric."""
    rows = []
    pairs = min(len(parent_runs), len(change_runs))
    for m in metrics:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum(better(c, p, higher) for p, c in zip(parent, change))
        u, p_value = mann_whitney(change, parent)
        delta, size = cliffs_delta(change, parent, higher)
        rows.append(
            {
                "metric": name,
                "parent_median": median(parent),
                "parent_iqr": iqr(parent),
                "change_median": median(change),
                "change_iqr": iqr(change),
                "wins": f"{wins}/{pairs}",
                "u": u,
                "p": p_value,
                "delta": delta,
                "size": size,
                "verdict": verdict(parent, change, higher, bound),
            }
        )
    return rows


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return failed, attempted


def render(rows, parent_runs, change_runs):
    head = (
        f"{'metric':<16}{'parent med':>12}{'IQR':>10}{'change med':>12}{'IQR':>10}"
        f"{'wins':>7}{'U':>7}{'p':>8}{'delta':>7}  {'size':<11}verdict"
    )
    lines = [head]
    for r in rows:
        lines.append(
            f"{r['metric']:<16}{r['parent_median']:>12.4g}{r['parent_iqr']:>10.3g}"
            f"{r['change_median']:>12.4g}{r['change_iqr']:>10.3g}{r['wins']:>7}"
            f"{r['u']:>7.1f}{r['p']:>8.3f}{r['delta']:>+7.2f}  {r['size']:<11}{r['verdict']}"
        )
    pf, pa = failed_share(parent_runs)
    cf, ca = failed_share(change_runs)
    lines.append(f"failed operations: parent {pf}/{pa}, change {cf}/{ca}")
    return "\n".join(lines)


def failures_regressed(parent_runs, change_runs):
    pf, pa = failed_share(parent_runs)
    cf, ca = failed_share(change_runs)
    return cf * pa > pf * ca


def load_runs(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            runs.append(json.loads(line))
    if not runs:
        sys.exit(f"{path}: no result objects")
    return runs


def self_test():
    metrics = [
        {"name": "records_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    ]

    def runs(rps, p50):
        return [
            {
                "attempted": 10,
                "failed": 0,
                "metrics": {
                    "records_per_s": {"value": a, "unit": "records/s"},
                    "latency_p50_ms": {"value": b, "unit": "ms"},
                },
            }
            for a, b in zip(rps, p50)
        ]

    # Quantiles and U statistics checked by hand.
    assert median([3, 1, 2]) == 2 and median([1, 2, 3, 4]) == 2.5
    assert iqr([1, 2, 3, 4, 5]) == 2.0
    u, p = mann_whitney([6, 7, 8, 9, 10], [1, 2, 3, 4, 5])
    assert u == 25.0 and abs(p - 0.01219) < 1e-4, (u, p)
    u, p = mann_whitney([1, 2, 3], [1, 2, 3])
    assert u == 4.5 and p == 1.0, (u, p)
    u, p = mann_whitney([5, 5], [5, 5])
    assert u == 2.0 and p == 1.0, (u, p)
    # One tie group of 2 among 6 values: var = 9/12 * (7 - 6/30) = 5.1.
    u, p = mann_whitney([3, 4, 5], [1, 2, 3])
    assert u == 8.5 and abs(p - math.erfc((3.5 / math.sqrt(5.1)) / math.sqrt(2))) < 1e-12
    assert cliffs_delta([2, 3], [1, 1], True) == (1.0, "large")
    assert cliffs_delta([2, 3], [1, 1], False) == (-1.0, "large")
    assert cliffs_delta([1, 2], [1, 2], True) == (0.0, "negligible")
    assert cliffs_delta([1, 2, 3], [1, 2, 2], True)[1] == "small"

    parent = runs([100, 102, 98, 101, 99, 100, 103, 97, 100, 101], [10.0] * 10)
    # Higher throughput in every pair, far past the parent's IQR.
    faster = runs([120, 121, 119, 122, 118, 120, 123, 117, 120, 121], [10.0] * 10)
    rows = compare(parent, faster, metrics)
    assert rows[0]["verdict"] == "improved" and rows[0]["wins"] == "10/10", rows[0]
    assert rows[1]["verdict"] == "unchanged", rows[1]
    # Three pairs are too few to claim a gain, however clear.
    assert compare(parent[:3], faster[:3], metrics)[0]["verdict"] == "unchanged"
    # 8/10 pair wins is not enough to claim a gain.
    mixed = runs([120, 121, 90, 122, 118, 120, 123, 90, 120, 121], [10.0] * 10)
    assert compare(parent, mixed, metrics)[0]["verdict"] == "unchanged"
    # A median 30% slower on a 25% bound is a regression.
    slower = runs([100] * 10, [13.0] * 10)
    assert compare(parent, slower, metrics)[1]["verdict"] == "regressed"
    # A spread wider than the bound is unresolved, not unchanged...
    noisy = runs([100] * 10, [6, 14, 7, 13, 10, 6, 14, 7, 13, 10])
    assert compare(parent, noisy, metrics)[1]["verdict"] == "unresolved"
    # ...unless every change run beats every parent run.
    noisy_parent = runs([100] * 10, [20, 30, 21, 29, 25, 20, 30, 21, 29, 25])
    quick = runs([100] * 10, [18, 19.5, 18.5, 19, 19, 18, 19.5, 18.5, 19, 19])
    assert compare(noisy_parent, quick, metrics)[1]["verdict"] == "unchanged"
    failing = [dict(r, failed=1) for r in parent]
    assert failures_regressed(parent, failing) and not failures_regressed(parent, faster)
    assert "failed operations: parent 0/100, change 10/100" in render([], parent, failing)
    print("ab_compare self-test: ok")


def main(argv):
    if argv[1:] == ["--self-test"]:
        self_test()
        return 0
    if len(argv) != 3:
        sys.exit(__doc__.strip())
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(argv[1]), load_runs(argv[2])
    rows = compare(parent_runs, change_runs, metrics)
    print(render(rows, parent_runs, change_runs))
    regressed = any(r["verdict"] == "regressed" for r in rows)
    return 1 if regressed or failures_regressed(parent_runs, change_runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
