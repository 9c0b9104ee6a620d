//! Golden-determinism check for the role-partitioned broker.
//!
//! The broker refactor (PHB/IB/SHB role components over per-pubend
//! `PubendPipeline`s) must be *bit-identical* under the simulator: two
//! runs of the same seeded topology have to produce the same trace
//! event sequence and the same per-subscriber delivery history, down to
//! ordering. Any hidden `HashMap`-iteration-order dependence in the
//! broker shows up here as a diff between the two runs.

use gryphon_harness::{System, TopologySpec, Workload};
use gryphon_sim::MetricsSnapshot;

/// One delivery a subscriber saw: `(pubend, ts, kind, seq)`.
type Delivery = (u32, u64, &'static str, Option<i64>);

/// The metric families the armed observers write themselves: the health
/// engine's primed alert counters, the forensics drop counters, the
/// sketch gauges and the sampler's queue-depth gauge.
const OBSERVER_FAMILIES: [&str; 4] = [
    "health.alert.",
    "forensics.",
    "sketch.",
    "telemetry.queue_depth",
];

/// Everything observable about one run that determinism must fix:
/// rendered trace lines (in emission order), per subscriber the exact
/// delivery sequence, and every metric outside [`OBSERVER_FAMILIES`]
/// (one rendered line per counter, histogram, series and gauge).
#[derive(PartialEq, Debug)]
struct Golden {
    traces: Vec<String>,
    deliveries: Vec<Vec<Delivery>>,
    metrics: Vec<String>,
    events: u64,
    violations: u64,
    watchdogs: u64,
}

fn run_once(seed: u64) -> Golden {
    run_observed(seed, false).0
}

/// Runs the golden workload, with every observer window armed
/// (`Sim::enable_telemetry`) when `armed`, returning the observables and
/// the collected timeline (if any).
fn run_observed(seed: u64, armed: bool) -> (Golden, Option<gryphon_sim::telemetry::Timeline>) {
    // Fig. 4-style tree: one PHB hosting four pubends, two SHBs, with
    // disconnecting subscribers so catchup/PFS paths execute too.
    let spec = TopologySpec {
        seed,
        n_shbs: 2,
        pubends: 4,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 6,
        ..Workload::paper_disconnecting(3_000_000, 500_000)
    };
    let mut sys = System::build(&spec, &workload);
    if armed {
        sys.sim.enable_telemetry(250_000);
    }
    sys.sim.run_until(6_000_000);
    let traces = sys
        .sim
        .trace_records()
        .map(|r| format!("{} {}", r.t_us, r.render(sys.sim.node_name(r.node))))
        .collect();
    let deliveries = sys
        .subscribers
        .iter()
        .map(|(h, _)| {
            sys.sim
                .node_ref(*h)
                .received()
                .iter()
                .map(|r| (r.pubend.0, r.ts.0, r.kind, r.seq))
                .collect()
        })
        .collect();
    let m = sys.sim.metrics();
    let own = |name: &str| OBSERVER_FAMILIES.iter().any(|f| name.starts_with(f));
    let mut metrics: Vec<String> = MetricsSnapshot::from_metrics(m)
        .to_csv()
        .lines()
        .filter(|l| !own(l.split(',').nth(1).unwrap_or("")))
        .map(str::to_owned)
        .collect();
    metrics.extend(
        m.gauge_names()
            .into_iter()
            .filter(|n| !own(n))
            .map(|n| format!("gauge,{n},{:?}", m.gauge(n))),
    );
    let golden = Golden {
        traces,
        deliveries,
        metrics,
        events: sys.total_events(),
        violations: sys.total_order_violations(),
        watchdogs: sys.sim.watchdog_violations(),
    };
    (golden, sys.sim.take_telemetry())
}

#[test]
fn same_seed_same_traces_and_deliveries() {
    let a = run_once(42);
    assert!(
        a.events > 100,
        "workload must actually deliver: {}",
        a.events
    );
    assert_eq!(a.violations, 0);
    assert_eq!(a.watchdogs, 0);
    #[cfg(feature = "trace")]
    assert!(
        !a.traces.is_empty(),
        "trace feature on but no events recorded"
    );

    let b = run_once(42);
    // Compare traces line-by-line first so a mismatch points at the
    // earliest diverging event, not a megabyte Debug dump.
    for (i, (la, lb)) in a.traces.iter().zip(&b.traces).enumerate() {
        assert_eq!(la, lb, "first trace divergence at line {i}");
    }
    assert_eq!(a, b, "same seed must replay bit-identically");
}

/// The armed observers — sampler, health engine, tail forensics and the
/// population sketch — must be pure: arming them cannot perturb the run
/// (no scheduler events, no RNG draws), so traces, deliveries and every
/// metric outside their own families stay identical armed or not, and
/// every stream they write replays byte-identically across armed runs.
#[test]
fn armed_observers_do_not_perturb_golden_run() {
    let (plain, no_timeline) = run_observed(42, false);
    assert!(no_timeline.is_none());
    let (armed_a, timeline_a) = run_observed(42, true);
    let (armed_b, timeline_b) = run_observed(42, true);

    for (i, (la, lb)) in plain.traces.iter().zip(&armed_a.traces).enumerate() {
        assert_eq!(la, lb, "first armed/unarmed trace divergence at line {i}");
    }
    assert_eq!(
        plain, armed_a,
        "arming must not change traces, deliveries or broker metrics"
    );
    assert_eq!(armed_a, armed_b, "armed runs must replay identically");
    let ta = timeline_a.expect("sampler armed");
    let tb = timeline_b.expect("sampler armed");
    assert!(!ta.is_empty(), "sampler collected nothing");
    assert_eq!(ta.to_ndjson(), tb.to_ndjson());
    assert_eq!(ta.alerts(), tb.alerts());
    assert_eq!(ta.exemplars_ndjson(), tb.exemplars_ndjson());
    assert_eq!(ta.intervals_ndjson(), tb.intervals_ndjson());
    assert_eq!(ta.topks_ndjson(), tb.topks_ndjson());
    // Each window publishes the scheduler's queue depth, and every
    // observer had something to write.
    assert!(!ta.series("telemetry.queue_depth").is_empty());
    assert!(ta.intervals().len() > 0, "no busy intervals collected");
    assert!(ta.topks().len() > 0, "sketch attributed nothing");
}

/// Telemetry series merge deterministically in worker-index order: a
/// timeline collected in one shard equals the same samples split across
/// four per-worker shards and merged 0→3, regardless of which shard a
/// sample landed in.
#[test]
fn sharded_timelines_merge_in_worker_index_order() {
    use gryphon_sim::telemetry::Timeline;
    // Samples as (t_us, series, value, owning worker 0..4).
    let samples = [
        (1_000, "telemetry.queue_depth.w0", 3.0, 0),
        (1_000, "telemetry.queue_depth.w1", 5.0, 1),
        (2_000, "telemetry.queue_depth.w0", 1.0, 0),
        (2_000, "telemetry.queue_depth.w2", 7.0, 2),
        (1_000, "shb.delivered.rate", 100.0, 3),
        (2_000, "shb.delivered.rate", 250.0, 3),
    ];
    // One shard holding everything…
    let mut single = Timeline::new(1_000);
    for &(t, name, v, _) in &samples {
        single.record(t, name, v);
    }
    // …vs four per-worker shards merged in worker-index order.
    let mut shards = [
        Timeline::new(1_000),
        Timeline::new(1_000),
        Timeline::new(1_000),
        Timeline::new(1_000),
    ];
    for &(t, name, v, w) in &samples {
        shards[w].record(t, name, v);
    }
    let mut merged = Timeline::default();
    for shard in &shards {
        merged.merge(shard);
    }
    assert_eq!(merged.to_ndjson(), single.to_ndjson());
    assert_eq!(merged.interval_us(), 1_000);
}

#[test]
fn determinism_holds_across_seeds() {
    for seed in [7, 1234] {
        let a = run_once(seed);
        let b = run_once(seed);
        assert_eq!(a, b, "seed {seed} must replay bit-identically");
        assert_eq!(a.violations, 0, "seed {seed}");
        assert_eq!(a.watchdogs, 0, "seed {seed}");
    }
}
