#!/usr/bin/env bash
# Builds opprentice-serve and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash kpibench/run.sh --workload live --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target); each run's
# server logs and span file go under <target dir>/kpibench/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet -p opprentice-server 1>&2
cargo build --release --offline --quiet --manifest-path kpibench/Cargo.toml 1>&2
exec "$target/release/kpibench" \
    --server "$target/release/opprentice-serve" \
    --work "$target/kpibench" \
    "$@"
