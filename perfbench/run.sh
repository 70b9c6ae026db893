#!/usr/bin/env bash
# Builds the `domatic` server and the benchmark harness from this checkout,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries only the harness's report
# line and, last, its result line.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
CARGO_TARGET_DIR="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR

cargo build --release --offline --quiet --bin domatic >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/domatic-perfbench" "$@" \
    --server "$CARGO_TARGET_DIR/release/domatic" --out perfbench/out
