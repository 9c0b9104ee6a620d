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
# churn_equivalence, threaded_pipeline, ...) run here,
# the counting-allocator tests among them (core zero_alloc_deliver,
# matching zero_alloc, sim zero_alloc_observe, sim span_memory, storage
# zero_copy_read, crossbeam lazy_alloc).
# The harness's unit tests run every experiment in quick mode, which
# takes over twenty minutes unoptimised, so those alone run in the
# release profile; its tests/ keep the debug profile, which arms the
# oracle panic.
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

echo "== a delivered event is observed once: no per-subscriber Delivered record in the SHB =="
if grep -n 'TraceEvent::Delivered' crates/core/src/broker/shb.rs; then
  echo "the SHB reports deliveries through NodeCtx::delivered, once per event; a TraceEvent::Delivered there puts the observers back on the per-delivery path"; exit 1
fi

echo "== one oracle: it counts and remembers, the runtime decides what a trip does =="
if scripts/code_lines.sh sim | grep -E '^crates/sim/src/(lineage|observers)\.rs:[0-9]+:.*panic!'; then
  echo "the oracle counts and remembers; the runtime decides what a trip does"; exit 1
fi
if grep -rn 'struct Watchdogs' crates/sim/src; then
  echo "the protocol watchdogs are checks of the one oracle in lineage.rs, not a second checker"; exit 1
fi

echo "== flat spans: a span owns no collection, and stop moves the ledgers =="
if awk '/^pub struct Span \{/,/^\}/' crates/sim/src/lineage.rs | grep -nE '(Map|Set)<'; then
  echo "a span owns no collection; per-event observer memory is flat"; exit 1
fi
if grep -nF 'merge(shard.lock().lineage())' crates/net/src/lib.rs; then
  echo "stop moves worker lineages, never copies them"; exit 1
fi

echo "== one host seam: the observation half of NodeCtx and the windows =="
# NodeCtx's provided methods forward the observation calls to a host's
# Observers; a host that writes them out again is a second copy.
if { grep -nH '' crates/net/src/lib.rs crates/harness/src/experiments/mega_subs.rs
     awk '/^impl NodeCtx for SimCtx/,/^}/ { print FILENAME ":" FNR ":" $0 }' crates/sim/src/runtime.rs; } \
     | grep -E 'fn (record|count|observe|gauge|interval|attribute)\('; then
  echo "the observation half of NodeCtx is written once"; exit 1
fi
# Observers::arm_windows builds the health engine over the default rules;
# the doctor's offline replay is the one other judge.
if for c in crates/*/; do scripts/code_lines.sh "$(basename "$c")"; done \
     | grep -E 'HealthEngine::new\(([a-z_]+::)*default_rules\(\)\)' \
     | grep -vE '^crates/(sim/src/observers|harness/src/doctor)\.rs:'; then
  echo "one owner arms the windows"; exit 1
fi

echo "== parked means one thing: a first connect awaiting its confirmation =="
# A parked connect attaches only when its interest is confirmed upstream
# (no timeout), and an idle subscription keeps only its durable state (no
# parked catchup-stream records to rehydrate).
if grep -rnE 'ParkedStream|PARKED_CONNECT_TIMEOUT_US|stream_rehydrations' crates/core/src; then
  echo "a parked connect waits for its confirmation, and a disconnect drops its streams"; exit 1
fi

echo "== unsafe is allow-listed: one CRC call =="
# Every `unsafe` block, fn, impl, trait or extern in the workspace's
# program code (src/, examples/, each crate's src/ and benches/; the
# tests/ directories' counting allocators are test code, and benchmark/
# is a package of its own), with whether a `// SAFETY:` comment sits
# directly above it. Exactly one is allowed, with its comment: the
# SSE4.2 CRC-32C call. (Nodes come back from the runtimes through
# `dyn Any`.)
unsafe_sites=$(awk '
  FNR == 1 { safety = 0 }
  /^[[:space:]]*\/\/ SAFETY:/ { safety = 1; next }
  /^[[:space:]]*\/\// { next }
  /(^|[^A-Za-z0-9_])unsafe[[:space:]]*(\{|fn[[:space:]]|impl[[:space:]<]|trait[[:space:]]|extern[[:space:]])/ {
    print FILENAME (safety ? "" : " (no SAFETY comment)")
  }
  { safety = 0 }
' $(find src examples crates/*/src crates/*/benches -name '*.rs' | sort) | sort | uniq -c)
expected="      1 crates/storage/src/crc.rs"
if [ "$unsafe_sites" != "$expected" ]; then
  echo "unsafe sites (count, file) differ from the allow-list:"
  echo "$unsafe_sites"
  echo "expected:"
  echo "$expected"
  exit 1
fi

echo "== non-test unwrap/expect: a ratchet =="
# `.unwrap()`/`.expect(` in the non-test code of the crates that touch
# disk and peer input, on the lines scripts/loc.sh counts (test items
# and test-only files skipped). The count may fall, never rise: when a
# site becomes a typed error, lower `max` with it.
max=38
ratchet_crates=(storage core net streams)
sites() {
  for c in "${ratchet_crates[@]}"; do scripts/code_lines.sh "$c"; done \
    | { grep -E '\.unwrap\(\)|\.expect\(' || true; }
}
unwraps=$(sites | { grep -oE '\.unwrap\(\)|\.expect\(' || true; } | wc -l)
if [ "$unwraps" -gt "$max" ]; then
  echo "$unwraps unwrap/expect sites in ${ratchet_crates[*]}, above the pinned $max:"
  sites
  exit 1
fi
echo "ok: $unwraps unwrap/expect sites (at most $max)"

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

echo "== full stack with the oracle armed =="
# The debug profile arms the simulator's oracle panic, so a duplicate or
# phantom delivery, or a protocol-invariant violation, anywhere in these
# runs aborts the test.
cargo test -q --test full_stack --test lineage

echo "== run bundles and doctor =="
# One flag writes a complete diagnosis bundle; the doctor then proves
# the run healthy (check: replayed health rules fire nothing, invariant
# counters zero), proves a same-workload different-seed run inside the
# diff thresholds, and proves the diff gate CAN fail by diffing against
# a deliberately degraded broker config (--degrade).
rm -rf target/ci-bundles
xp() { cargo run -q --release -p gryphon-bench --bin xp -- "$@"; }
# A zero sampling interval is a usage error, not a 1 us sampler.
code=0
xp --quick --sample-interval 0 latency >/dev/null 2>&1 || code=$?
[ "$code" -eq 2 ] || { echo "xp --sample-interval 0 exited $code, want 2"; exit 1; }
xp --quick --bundle-out target/ci-bundles/clean latency fig4
xp --quick --bundle-out target/ci-bundles/reseed --seed-offset 1 fig4
xp --quick --bundle-out target/ci-bundles/degraded --degrade fig4
# One rendering per fact: a bundle holds the files the doctor reads, the
# human report and the flight directory, and nothing else.
files=$(LC_ALL=C ls target/ci-bundles/clean/latency | tr '\n' ' ')
expected="alerts.ndjson exemplars.ndjson flight intervals.ndjson manifest.json metrics.csv report.txt timeline.ndjson topk.ndjson "
[ "$files" = "$expected" ] || { echo "bundle holds: $files"; echo "expected:     $expected"; exit 1; }
for f in manifest.json metrics.csv timeline.ndjson; do
  test -s "target/ci-bundles/clean/latency/$f" || { echo "bundle has an empty $f"; exit 1; }
done
# The primed health.alert.* counters mark the armed rule set.
grep -q '^counter,health\.alert\.' target/ci-bundles/clean/latency/metrics.csv \
  || { echo "metrics.csv missing the primed health.alert.* counters"; exit 1; }
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
# doctor renders the attribution.
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
# (Through a file, not a pipe: `grep -q` exits at its first match and
# would leave xp writing into a closed pipe.)
xp doctor inspect "$slow" --topk >target/ci-bundles/inspect-topk.txt
grep -q '^## top-k attribution' target/ci-bundles/inspect-topk.txt \
  || { echo "doctor inspect rendered no top-k section"; exit 1; }
echo "ok: planted laggard attributed, alert fired+cleared, doctor renders it"

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

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (-D warnings) =="
# Broken and private intra-doc links, and ambiguous ones, fail here,
# in private modules' docs too.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --document-private-items

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
