#!/usr/bin/env bash
# Builds the release `sevuldet` CLI (used for the CLI-equality check) and
# the benchmark binary, then runs the benchmark with every argument given.
# Run from the repository root:
#   bash perfledger/run.sh --workload long_chains --seed 1 --seconds 30 --trace 0
# Cargo's output goes to stderr, so stdout carries only the benchmark's own
# lines, the last of which is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sevuldet-serve --bin sevuldet >&2
cargo build --release --offline --quiet --manifest-path perfledger/Cargo.toml >&2
commit=unknown
if [ -d .git ]; then commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"; fi
exec env PERFLEDGER_CLI="$CARGO_TARGET_DIR/release/sevuldet" PERFLEDGER_COMMIT="$commit" \
    "$CARGO_TARGET_DIR/release/perfledger" "$@"
