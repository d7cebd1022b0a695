#!/usr/bin/env python3
"""Validate `reproduce --out-dir` artifacts.

For every experiment the directory must hold a `.txt` (ASCII rendering),
`.json` (pretty JSON) and `.btrw` (binary) artifact. This checker:

1. parses every JSON artifact with Python's own parser (an implementation
   independent of the Rust writer);
2. decodes every BTRW artifact with the independent decoder below and checks
   it carries the *same* value tree as the JSON (BTRW `u64` sequences read
   back as plain lists, matching JSON's single array syntax);
3. cross-checks row counts between the structured data and the ASCII tables,
   per experiment kind, so a figure whose machine-readable artifact silently
   dropped rows fails CI;
4. cross-checks artifacts against each other: the Figure 1 and Figure 2
   distributions must weigh exactly the dynamic branches Table 1 counts, and
   Figure 15 must list Table 1's benchmarks in Table 1's order. Table 1
   counts each benchmark's interned columns, while the distributions come
   from the profile fold, so this ties the two together.

Usage: check_artifacts.py ARTIFACT_DIR
"""

import json
import struct
import sys
from pathlib import Path

MAGIC = b"BTRW"
VERSION = 1

EXPECTED_EXPERIMENTS = [
    "table1",
    "table2",
    *[f"fig{i}" for i in range(1, 16)],
    "ablation-binning",
    "ablation-hybrid",
    "ablation-confidence",
]


class Reader:
    """Cursor over a BTRW byte string."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError(f"truncated at byte {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def varint(self) -> int:
        value, shift = 0, 0
        while True:
            byte = self.take(1)[0]
            payload = byte & 0x7F
            # Canonical varints only, mirroring the Rust reader: at most 64
            # bits of payload, no trailing zero byte.
            if shift == 63 and payload > 1:
                raise ValueError("varint overflows 64 bits")
            value |= payload << shift
            if not byte & 0x80:
                if payload == 0 and shift > 0:
                    raise ValueError("non-minimal varint")
                return value
            shift += 7
            if shift >= 64:
                raise ValueError("varint longer than 64 bits")


def zigzag_decode(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def read_value(r: Reader):
    tag = r.take(1)[0]
    if tag == 0:
        return None
    if tag == 1:
        return False
    if tag == 2:
        return True
    if tag == 3:
        return r.varint()
    if tag == 4:
        return zigzag_decode(r.varint())
    if tag == 5:
        return struct.unpack("<d", r.take(8))[0]
    if tag == 6:
        return r.take(r.varint()).decode("utf-8")
    if tag == 7:
        return [read_value(r) for _ in range(r.varint())]
    if tag == 8:
        return {r.take(r.varint()).decode("utf-8"): read_value(r) for _ in range(r.varint())}
    if tag == 9:
        count, prev, out = r.varint(), 0, []
        for _ in range(count):
            prev = (prev + zigzag_decode(r.varint())) % (1 << 64)
            out.append(prev)
        return out
    raise ValueError(f"unknown tag {tag}")


def read_btrw(data: bytes):
    r = Reader(data)
    if r.take(4) != MAGIC:
        raise ValueError("bad magic")
    version = struct.unpack("<I", r.take(4))[0]
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    value = read_value(r)
    if r.pos != len(data):
        raise ValueError(f"{len(data) - r.pos} trailing bytes")
    return value


def ascii_table_rows(text: str) -> int:
    """Number of data rows below the dashed separator of an ASCII table
    (stopping at the first blank line, where trailing commentary begins)."""
    lines = text.rstrip("\n").split("\n")
    for i, line in enumerate(lines):
        if line and set(line) == {"-"}:
            rows = 0
            for row in lines[i + 1 :]:
                if not row.strip():
                    break
                rows += 1
            return rows
    raise ValueError("no ASCII table separator found")


def class_count(scheme: str) -> int:
    if scheme == "paper-11":
        return 11
    if scheme == "chang-6":
        return 6
    if scheme.startswith("uniform-"):
        return int(scheme.split("-", 1)[1])
    raise ValueError(f"unknown scheme {scheme!r}")


def check_rows(name: str, data: dict, text: str):
    """Cross-checks the JSON row counts against the ASCII rendering."""
    if name == "table1" or name == "fig15" or name.startswith("ablation-"):
        expected = len(data["rows"])
        actual = ascii_table_rows(text)
        assert actual == expected, f"{name}: ASCII has {actual} rows, JSON {expected}"
    elif name == "table2":
        n = class_count(data["table"]["scheme"])
        assert len(data["table"]["counts"]) == n, f"{name}: count grid is not {n} rows"
        assert all(len(row) == n for row in data["table"]["counts"])
        # The ASCII table appends a totals row below the class rows.
        actual = ascii_table_rows(text)
        assert actual == n + 1, f"{name}: ASCII has {actual} rows, expected {n + 1}"
    elif name in ("fig1", "fig2"):
        n = class_count(data["distribution"]["scheme"])
        assert len(data["distribution"]["counts"]) == n
        bars = sum(1 for line in text.split("\n") if "|" in line)
        assert bars == n, f"{name}: ASCII has {bars} bars, expected {n}"
    elif name in ("fig3", "fig4"):
        n = class_count(data["pas"]["scheme"])
        assert len(data["pas"]["rates"]) == n
        assert len(data["gas"]["rates"]) == n
        actual = ascii_table_rows(text)
        assert actual == n, f"{name}: ASCII has {actual} rows, expected {n}"
    elif name in (f"fig{i}" for i in range(5, 13)):
        histories = data["matrix"]["history_lengths"]
        assert len(data["matrix"]["rates"]) == class_count(data["matrix"]["scheme"])
        assert all(len(row) == len(histories) for row in data["matrix"]["rates"])
        actual = ascii_table_rows(text)
        assert actual == len(histories), (
            f"{name}: ASCII has {actual} rows, expected {len(histories)}"
        )
    elif name in ("fig13", "fig14"):
        n = class_count(data["matrix"]["scheme"])
        assert len(data["matrix"]["rates"]) == n
        shaded = sum(1 for line in text.split("\n") if line.startswith("tr "))
        assert shaded == n, f"{name}: ASCII has {shaded} colormap rows, expected {n}"
    else:
        raise ValueError(f"no row-count rule for experiment {name!r}")


def cross_check(directory: Path):
    """Checks that the artifacts agree with each other (point 4 above)."""

    def load(name: str) -> dict:
        return json.loads((directory / f"{name}.json").read_text())

    table1 = load("table1")["rows"]
    generated = sum(row["generated_dynamic_branches"] for row in table1)
    for name in ("fig1", "fig2"):
        total = load(name)["distribution"]["total"]
        assert total == generated, (
            f"{name}: distribution weighs {total} dynamic branches, "
            f"Table 1 generated {generated}"
        )
    labels = [row["benchmark"] for row in table1]
    fig15 = [row["benchmark"] for row in load("fig15")["rows"]]
    assert fig15 == labels, f"fig15: benchmarks {fig15} differ from Table 1's {labels}"


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    directory = Path(sys.argv[1])
    failures = 0
    for name in EXPECTED_EXPERIMENTS:
        try:
            text = (directory / f"{name}.txt").read_text()
            data = json.loads((directory / f"{name}.json").read_text())
            binary = read_btrw((directory / f"{name}.btrw").read_bytes())
            assert data == binary, f"{name}: JSON and BTRW artifacts disagree"
            assert data["experiment"] == name, f"{name}: envelope names {data['experiment']!r}"
            check_rows(name, data, text)
            print(f"ok    {name}")
        except Exception as exc:  # noqa: BLE001 — report every failure
            print(f"FAIL  {name}: {exc}")
            failures += 1
    try:
        cross_check(directory)
        print("ok    cross-artifact totals and labels")
    except Exception as exc:  # noqa: BLE001 — report every failure
        print(f"FAIL  cross-artifact: {exc}")
        failures += 1
    if failures:
        print(f"{failures} artifact check(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(EXPECTED_EXPERIMENTS)} artifacts consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
