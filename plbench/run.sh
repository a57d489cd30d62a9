#!/usr/bin/env bash
# Builds the PowerLens daemon and the benchmark binary from source, then runs
# the benchmark. Run from the repository root:
#
#   bash plbench/run.sh --workload warm_plan_hits --seed 1 --seconds 10 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build); span files
# and the daemon's working directory go to $CARGO_TARGET_DIR/plbench.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f plbench/Cargo.toml ]]; then
    echo "plbench: run from the repository root (crates/ and plbench/ not found)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p powerlens-cli >&2
cargo build --release --offline --quiet --manifest-path plbench/Cargo.toml >&2

exec "$target/release/plbench" \
    --daemon "$target/release/powerlens-cli" \
    --out-dir "$target/plbench" \
    "$@"
