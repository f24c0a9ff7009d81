#!/usr/bin/env bash
# Build hc3i-sim and the harness in release mode, then run the harness
# with the arguments given (see README.md). Run from anywhere; everything
# is read and written inside the checkout this script is part of.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# One target directory for both builds, so the harness finds hc3i-sim
# beside itself and the path crates compile once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/benchmark/target}"
# Build chatter goes to stderr; on failure nothing is run.
cargo build --release --offline --quiet -p hc3i-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hc3i-benchmark" --out-dir benchmark/out "$@"
