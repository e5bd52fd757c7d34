#!/usr/bin/env bash
# Builds the benchmark and the `serve` binary it drives (one lockfile, one
# target directory), then runs the benchmark with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload map --seed 1 --seconds 35 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet \
    --manifest-path perfbench/Cargo.toml -p xbar-perfbench -p xbar-serve
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
