#!/usr/bin/env bash
# Format, lint and unit-test the harness (not a benchmark run).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
