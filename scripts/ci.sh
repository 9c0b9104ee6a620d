#!/usr/bin/env bash
# Offline-friendly CI gate: everything here runs without network access
# (all dependencies are vendored in-tree; see Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== build (release) =="
cargo build --release

echo "== tests (tier 1: the root package) =="
cargo test -q

echo "== tests (every crate's own suite) =="
# `cargo test` at the root runs only the root package; the crates' unit
# tests and their tests/ directories (golden_determinism,
# churn_equivalence, sharded_runtime, threaded_pipeline, ...) run here,
# the counting-allocator tests among them (core zero_alloc_deliver,
# matching zero_alloc, sim zero_alloc_observe, storage zero_copy_read,
# crossbeam lazy_alloc).
# The harness's unit tests run every experiment in quick mode, which
# takes over twenty minutes unoptimised, so those alone run in the
# release profile; its tests/ keep the debug profile, which arms the
# ledger and watchdog panics.
cargo test -q --workspace --exclude gryphon-harness --no-fail-fast
cargo test -q -p gryphon-harness --release --lib
cargo test -q -p gryphon-harness --test '*' --no-fail-fast
cargo test -q -p gryphon-harness --doc

echo "== the channel is std's: no hand-written queue beside the facade =="
if grep -n 'Condvar' crates/crossbeam/src/*.rs; then
  echo "crates/crossbeam is a facade over std::sync::mpsc; a Condvar there is a second queue"; exit 1
fi

echo "== interest is applied in place: no index rebuilt per interest message =="
if grep -n 'SubscriptionIndex::new()' crates/core/src/broker/ib.rs; then
  echo "ib.rs keeps one index per child and applies deltas to it; a fresh index per message re-parses every filter (O(N^2) registration)"; exit 1
fi

echo "== durability: crash recovery + codec fuzz =="
# The on-disk format gate: torn-tail / bit-flip recovery property tests
# and the codec truncation/garbage fuzz (storage lib proptests), real-file
# kill-style recovery, and the broker-level
# "a chopped or lost tick is never answered S after recovery" acceptance
# test. Runs a second time here so a failure is attributed to the
# durability engine even if an earlier suite also trips over it.
cargo test -q -p gryphon-storage --lib prop_tests
cargo test -q -p gryphon-storage --test file_kill
cargo test -q -p gryphon --test recovery_answer

echo "== full stack with delivery ledger armed =="
# Debug profile arms the exactly-once ledger (panic on violation), so a
# duplicate or phantom delivery anywhere in these runs aborts the test.
cargo test -q --test full_stack --test lineage

# Validates Prometheus text exposition format: every line is a comment
# (# HELP/# TYPE) or "name{labels} value"; every sample name must trace
# back to a # TYPE declaration (summaries expose <name>_sum and
# <name>_count series). Used for both a bundle's snapshot.prom and the
# live mid-run scrape below.
validate_prom() {
  awk '
    /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* / { if ($2 == "TYPE") typed[$3]=1; next }
    /^#/ { print "bad comment line " NR ": " $0; bad=1; next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$/ {
      name=$1; sub(/\{.*/, "", name);
      base=name; sub(/_(sum|count)$/, "", base);
      if (!(name in typed) && !(base in typed)) {
        print "undeclared sample " NR ": " $0; bad=1
      }
      next
    }
    /./ { print "malformed line " NR ": " $0; bad=1 }
    END { exit bad }
  ' "$1"
}

echo "== run bundles and doctor =="
# One flag writes a complete diagnosis bundle; the doctor then proves
# the run healthy (check: replayed health rules fire nothing, invariant
# counters zero), proves a same-workload different-seed run inside the
# diff thresholds, and proves the diff gate CAN fail by diffing against
# a deliberately degraded broker config (--degrade).
rm -rf target/ci-bundles
xp() { cargo run -q --release -p gryphon-bench --bin xp -- "$@"; }
xp --quick --bundle-out target/ci-bundles/clean latency fig4
xp --quick --bundle-out target/ci-bundles/reseed --seed-offset 1 fig4
xp --quick --bundle-out target/ci-bundles/degraded --degrade fig4
for f in manifest.json metrics.csv timeline.ndjson snapshot.prom; do
  test -s "target/ci-bundles/clean/latency/$f" || { echo "bundle missing $f"; exit 1; }
done
# A clean run's alert log exists and is empty.
test -e target/ci-bundles/clean/latency/alerts.ndjson || { echo "bundle missing alerts.ndjson"; exit 1; }
for prom in target/ci-bundles/clean/{latency,fig4}/snapshot.prom; do
  validate_prom "$prom"
  echo "ok: $(grep -c '^# TYPE' "$prom") metric families in $prom"
done
grep -q '^health_alert_' target/ci-bundles/clean/latency/snapshot.prom \
  || { echo "bundle snapshot missing health.alert.* families"; exit 1; }
xp doctor check target/ci-bundles/clean/latency
xp doctor diff target/ci-bundles/clean/fig4 target/ci-bundles/reseed/fig4

# Million-subscriber memory model, scaled down (--quick: 20k durable
# subs): the bundle must carry the bytes-per-idle-sub gauge on its
# timeline, and doctor diff guards that series between runs.
xp --quick --bundle-out target/ci-bundles/clean mega_subs
xp --quick --bundle-out target/ci-bundles/rerun mega_subs
grep -q 'telemetry.shb.bytes_per_idle_sub' target/ci-bundles/clean/mega_subs/timeline.ndjson \
  || { echo "mega_subs bundle missing bytes_per_idle_sub series"; exit 1; }
xp doctor check target/ci-bundles/clean/mega_subs
xp doctor diff target/ci-bundles/clean/mega_subs target/ci-bundles/rerun/mega_subs
if xp doctor diff target/ci-bundles/clean/fig4 target/ci-bundles/degraded/fig4; then
  echo "doctor diff failed to flag the degraded run"; exit 1
fi
echo "ok: bundles written, check clean, diff gate proven able to fail"

echo "== top-K attribution: planted slow consumer =="
# The --slow-sub drill plants one subscriber with an ancient checkpoint
# (DESIGN.md §9); the run itself asserts the sketch names it and that
# lag_skew fires then clears. Here the bundle is additionally checked
# from the outside: the planted entity (id = --subs) is on the topk
# timeline, both alert transitions landed in alerts.ndjson, and the
# labeled topk_* gauges pass the same Prometheus grammar gate as every
# other export.
xp --quick --slow-sub --subs 2000 --bundle-out target/ci-bundles/slow mega_subs
slow=target/ci-bundles/slow/mega_subs
grep -q '"dim":"slowest_subs_by_lag"' "$slow/topk.ndjson" \
  || { echo "slow-sub bundle missing the lag dimension"; exit 1; }
grep -q '"entity":2000' "$slow/topk.ndjson" \
  || { echo "planted subscriber 2000 absent from topk.ndjson"; exit 1; }
grep -q '"rule":"lag_skew".*"state":"firing".*top slowest_subs_by_lag entity 2000' "$slow/alerts.ndjson" \
  || { echo "firing lag_skew alert does not name the planted laggard"; exit 1; }
grep -q '"rule":"lag_skew".*"state":"cleared"' "$slow/alerts.ndjson" \
  || { echo "lag_skew never cleared after recovery"; exit 1; }
validate_prom "$slow/snapshot.prom"
grep -q '^topk_weight{dim="slowest_subs_by_lag",entity="2000"}' "$slow/snapshot.prom" \
  || { echo "snapshot.prom missing the labeled topk_weight gauge"; exit 1; }
# (Through a file, not a pipe: `grep -q` exits at its first match and
# would leave xp writing into a closed pipe.)
xp doctor inspect "$slow" --topk >target/ci-bundles/inspect-topk.txt
grep -q '^## top-k attribution' target/ci-bundles/inspect-topk.txt \
  || { echo "doctor inspect rendered no top-k section"; exit 1; }
echo "ok: planted laggard attributed, alert fired+cleared, labeled gauges parse"

echo "== tail forensics: exemplars + chrome trace export =="
# The degraded fig4 bundle is the interesting one: its inflated tail
# must surface exemplars, and the exported Chrome trace must be a
# structurally valid trace-event stream (one event per line — see
# crates/harness/src/trace_export.rs). Validated with awk, no JSON dep:
# every event line carries pid/tid, only known phase letters appear,
# X slices carry ts+dur, and async b/e events balance exactly.
validate_trace() {
  awk '
    NR==1 { if ($0 != "[") { print "missing opening ["; bad=1 } next }
    /^\]$/ { saw_end=1; next }
    /^\{/ {
      line=$0
      if (line !~ /"pid":/) { print "no pid line " NR ": " line; bad=1 }
      if (line !~ /"tid":/) { print "no tid line " NR ": " line; bad=1 }
      if (match(line, /"ph":"[^"]"/)) {
        ph = substr(line, RSTART+6, 1)
        if (ph !~ /[XbeiM]/) { print "unknown phase " ph " line " NR; bad=1 }
        if (ph == "X" && (line !~ /"ts":/ || line !~ /"dur":/)) {
          print "X slice missing ts/dur line " NR ": " line; bad=1
        }
        if (ph == "b") begins++
        if (ph == "e") ends++
      } else { print "no phase line " NR ": " line; bad=1 }
      events++
      next
    }
    /./ { print "unexpected line " NR ": " $0; bad=1 }
    END {
      if (!saw_end) { print "missing closing ]"; bad=1 }
      if (begins != ends) { print "unbalanced async spans: " begins " b vs " ends " e"; bad=1 }
      if (events == 0) { print "empty trace"; bad=1 }
      exit bad
    }
  ' "$1"
}
trace="target/ci-bundles/fig4.trace.json"
xp doctor export-trace target/ci-bundles/degraded/fig4 -o "$trace"
validate_trace "$trace"
test -s target/ci-bundles/degraded/fig4/exemplars.ndjson \
  || { echo "degraded fig4 bundle captured no exemplars"; exit 1; }
xp doctor inspect target/ci-bundles/degraded/fig4 --exemplars >target/ci-bundles/inspect-exemplars.txt
grep -q '^  exemplar ' target/ci-bundles/inspect-exemplars.txt \
  || { echo "doctor inspect --exemplars rendered no exemplars"; exit 1; }
echo "ok: $(grep -c '"ph":"X"' "$trace") slices, $(grep -c '"ph":"b"' "$trace") span stages validated in $trace"

echo "== live /metrics scrape (mid-run) =="
# scrape_smoke runs a real threaded pipeline, fetches /metrics over TCP
# while the net is still running, and prints the body; the same grammar
# gate applies to the live endpoint as to the snapshot export.
scrape="target/ci-bundles/scrape.prom"
cargo run -q --release -p gryphon-bench --bin scrape_smoke >"$scrape"
test -s "$scrape" || { echo "missing $scrape"; exit 1; }
validate_prom "$scrape"
echo "ok: $(grep -c '^# TYPE' "$scrape") metric families served live"

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== perf regression gate =="
# Re-measures the checked-in baselines and fails on regressions past the
# per-benchmark thresholds (perf_gate --help for the policy). Baselines
# are machine-relative: after an intentional hot-path change, regenerate
# them with scripts/bench.sh on the same machine and commit the result.
# End-to-end numbers on the threaded runtime are benchmark/run.sh's job
# (BENCHMARK.json), not this gate's.
rm -rf target/ci-bench
mkdir -p target/ci-bench
CRITERION_JSON="$PWD/target/ci-bench/matching.ndjson" \
  cargo bench -p gryphon-bench --bench matching --bench matching_hot >/dev/null
CRITERION_JSON="$PWD/target/ci-bench/shb_scale.ndjson" \
  cargo bench -p gryphon-bench --bench shb_scale >/dev/null
CRITERION_JSON="$PWD/target/ci-bench/log_volume.ndjson" \
  cargo bench -p gryphon-bench --bench log_volume >/dev/null
cargo run -q --release -p gryphon-bench --bin perf_gate -- --strict \
  BENCH_matching.json target/ci-bench/matching.ndjson \
  BENCH_shb_scale.json target/ci-bench/shb_scale.ndjson \
  BENCH_log_volume.json target/ci-bench/log_volume.ndjson

echo "== build with observability compiled out =="
cargo build -p gryphon-bench --no-default-features

echo "== benchmark/ builds against the workspace crates =="
# benchmark/ is a package of its own (not a workspace member) that may
# not be edited alongside the code it measures: building it here, with
# and without the observability feature, makes the compiler enforce the
# API surface it depends on.
(
  cd benchmark
  export CARGO_TARGET_DIR="$PWD/../target/benchmark"
  cargo build --release --offline
  cargo build --release --offline --no-default-features
)

echo "== code size =="
scripts/loc.sh

echo "CI OK"
