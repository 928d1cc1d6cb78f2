#!/usr/bin/env bash
# Builds the benchmark, runs its unit tests, and checks that two suite runs
# of this build agree within the benchmark's own bounds (about 3 minutes).
# Usage: perf/check.sh [--seed S] [--seconds T]
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"
cargo build --release --offline --manifest-path "$manifest"
cargo test --quiet --offline --manifest-path "$manifest"
cargo run --release --quiet --offline --manifest-path "$manifest" -- selfcheck "$@"
