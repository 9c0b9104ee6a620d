#!/usr/bin/env bash
# Builds the benchmark (twice: with and without the program's `trace`
# feature, for the observer-overhead leg) and runs it. Arguments are
# passed through; see README.md or `run.sh --help`.
#
#   benchmark/run.sh                         four workloads, end-to-end metrics
#   benchmark/run.sh --trace 1               ... plus the traced pass of each
#   benchmark/run.sh --workload fanout --seed 7 --seconds 24 --trace 0
#   benchmark/run.sh --repeat 10             A/A self-check against the bounds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Relative CARGO_TARGET_DIRs are relative to where the caller stands.
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/../target/benchmark}")"
export CARGO_TARGET_DIR="$target"
bin="$target/release/gryphon-benchmark"

# Build output goes to stderr: stdout carries only the report.
(
  cd "$here"
  cargo build --release --offline --no-default-features >&2
  cp "$bin" "$bin-noobs"
  cargo build --release --offline >&2
)
exec "$bin" "$@"
