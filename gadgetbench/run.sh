#!/usr/bin/env bash
# Builds both binaries of the benchmark (gadgetbench and the host
# reference kernel hostref, which `cargo run` alone would not build)
# and runs gadgetbench with the given arguments.
# Usage, from the repository root:
#   bash gadgetbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
cargo build --offline --release --quiet --manifest-path "$manifest" --bins
exec cargo run --offline --release --quiet --manifest-path "$manifest" --bin gadgetbench -- "$@"
