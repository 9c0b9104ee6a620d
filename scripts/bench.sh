#!/usr/bin/env bash
# Regenerates the checked-in hot-path bench baselines.
#
# Runs the layer benches perf_gate guards with the criterion stub's
# CRITERION_JSON hook enabled, then assembles the NDJSON lines into JSON
# arrays at the repo root (end-to-end numbers on the threaded runtime
# come from benchmark/run.sh instead — see BENCHMARK.json):
#
#   BENCH_matching.json     — matching + matching_hot (interned scratch
#                             index, plus naive-scan reference)
#   BENCH_shb_scale.json    — SHB slab hot paths (steady delivery,
#                             park/rehydrate, slot-recycling churn) at
#                             10k and 100k idle durable subscriptions
#   BENCH_log_volume.json   — segmented-volume read/append/chop paths plus
#                             the group-commit fan-out: 8 concurrent
#                             committers vs serialized per-caller sync on
#                             a modeled-latency device and on real files
#
# Numbers are machine-relative: compare against the baseline re-run on the
# same machine, not across machines. See EXPERIMENTS.md for how to read
# the files.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

ndjson_to_array() {
  # $1: NDJSON file, $2: output JSON file
  {
    echo '['
    paste -sd, "$1"
    echo ']'
  } >"$2"
}

echo "== matching benches =="
: >"$tmp/matching.ndjson"
CRITERION_JSON="$tmp/matching.ndjson" \
  cargo bench -p gryphon-bench --bench matching --bench matching_hot
ndjson_to_array "$tmp/matching.ndjson" BENCH_matching.json

echo "== shb_scale bench =="
: >"$tmp/shb_scale.ndjson"
CRITERION_JSON="$tmp/shb_scale.ndjson" \
  cargo bench -p gryphon-bench --bench shb_scale
ndjson_to_array "$tmp/shb_scale.ndjson" BENCH_shb_scale.json

echo "== log_volume benches =="
: >"$tmp/log_volume.ndjson"
CRITERION_JSON="$tmp/log_volume.ndjson" \
  cargo bench -p gryphon-bench --bench log_volume --bench log_volume_commit
ndjson_to_array "$tmp/log_volume.ndjson" BENCH_log_volume.json

echo "wrote BENCH_matching.json, BENCH_shb_scale.json and BENCH_log_volume.json"
