#!/usr/bin/env bash
# Builds btrd and the benchmark from this checkout, then runs the benchmark
# with the arguments given, e.g.
#
#   bash e2ebench/run.sh --workload classify --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); spans and scratch directories go to .bench_out.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p btr-serve --bin btrd >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$target/release/e2ebench" --btrd "$target/release/btrd" "$@"
