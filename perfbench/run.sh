#!/usr/bin/env bash
# Builds the real `hf-serve` binary and the benchmark from source, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-wide --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from the repository root (no workspace here)" >&2
    exit 2
fi
cargo build --release --offline --quiet -p hf_net --bin hf-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
export PERFBENCH_HF_SERVE="$CARGO_TARGET_DIR/release/hf-serve"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
