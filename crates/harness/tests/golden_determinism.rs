//! Golden-determinism check for the role-partitioned broker.
//!
//! The broker refactor (PHB/IB/SHB role components over per-pubend
//! `PubendPipeline`s) must be *bit-identical* under the simulator: two
//! runs of the same seeded topology have to produce the same trace
//! event sequence and the same per-subscriber delivery history, down to
//! ordering. Any hidden `HashMap`-iteration-order dependence in the
//! broker shows up here as a diff between the two runs.

use gryphon_harness::{System, TopologySpec, Workload};

/// One delivery a subscriber saw: `(pubend, ts, kind, seq)`.
type Delivery = (u32, u64, &'static str, Option<i64>);

/// Everything observable about one run that determinism must fix:
/// rendered trace lines (in emission order) and, per subscriber, the
/// exact delivery sequence.
#[derive(PartialEq, Debug)]
struct Golden {
    traces: Vec<String>,
    deliveries: Vec<Vec<Delivery>>,
    events: u64,
    violations: u64,
    watchdogs: u64,
}

fn run_once(seed: u64) -> Golden {
    run_with_sampler(seed, None).0
}

fn run_with_sampler(
    seed: u64,
    sample_interval_us: Option<u64>,
) -> (Golden, Option<gryphon_sim::telemetry::Timeline>) {
    run_observed(seed, sample_interval_us, false)
}

/// Runs the golden workload, optionally with the windowed telemetry
/// sampler armed at `sample_interval_us` (and, on top of it, the online
/// health engine), returning the observables and the collected timeline
/// (if any).
fn run_observed(
    seed: u64,
    sample_interval_us: Option<u64>,
    health: bool,
) -> (Golden, Option<gryphon_sim::telemetry::Timeline>) {
    run_instrumented(seed, sample_interval_us, health, None).0
}

/// Like [`run_observed`] but optionally arming tail forensics (exemplar
/// reservoirs + the contention-profiler interval ring) with the given
/// config, and returning the final forensics drop counters
/// `(exemplar_dropped, interval_dropped)` alongside.
fn run_instrumented(
    seed: u64,
    sample_interval_us: Option<u64>,
    health: bool,
    forensics: Option<gryphon_sim::ForensicsConfig>,
) -> (
    (Golden, Option<gryphon_sim::telemetry::Timeline>),
    (f64, f64),
) {
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
    if let Some(interval) = sample_interval_us {
        sys.sim.enable_telemetry(interval);
    }
    if health {
        sys.sim.enable_health(gryphon_sim::default_rules());
    }
    if let Some(cfg) = forensics {
        sys.sim.enable_forensics(cfg);
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
    let golden = Golden {
        traces,
        deliveries,
        events: sys.total_events(),
        violations: sys.total_order_violations(),
        watchdogs: sys.sim.watchdog_violations(),
    };
    let dropped = (
        sys.sim
            .metrics()
            .counter(gryphon_sim::names::FORENSICS_EXEMPLAR_DROPPED),
        sys.sim
            .metrics()
            .counter(gryphon_sim::names::FORENSICS_INTERVAL_DROPPED),
    );
    ((golden, sys.sim.take_telemetry()), dropped)
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

/// The sampler must be a pure observer: arming it cannot perturb the
/// run (no scheduler events, no RNG draws), so traces and deliveries
/// stay bit-identical with it on or off — and the timeline itself is
/// deterministic across runs.
#[test]
fn sampler_does_not_perturb_golden_run() {
    let (plain, no_timeline) = run_with_sampler(42, None);
    assert!(no_timeline.is_none());
    let (sampled_a, timeline_a) = run_with_sampler(42, Some(250_000));
    let (sampled_b, timeline_b) = run_with_sampler(42, Some(250_000));

    assert_eq!(
        plain, sampled_a,
        "sampler on vs off must not change traces or deliveries"
    );
    assert_eq!(sampled_a, sampled_b, "sampled runs must replay identically");
    let ta = timeline_a.expect("sampler armed");
    let tb = timeline_b.expect("sampler armed");
    assert!(!ta.is_empty(), "sampler collected nothing");
    assert_eq!(
        ta.to_ndjson(),
        tb.to_ndjson(),
        "telemetry timeline must replay bit-identically"
    );
    // The simulator publishes its scheduler queue depth every window.
    assert!(!ta.series("telemetry.queue_depth").is_empty());
}

/// The health engine must also be a pure observer: it reads finished
/// sampler windows and writes only its own alert counters/records, so
/// arming it cannot perturb traces, deliveries, or the sample series —
/// and two engine-on runs replay bit-identically, alert log included.
#[test]
fn health_engine_does_not_perturb_golden_run() {
    let (plain, timeline_off) = run_observed(42, Some(250_000), false);
    let (with_health_a, timeline_a) = run_observed(42, Some(250_000), true);
    let (with_health_b, timeline_b) = run_observed(42, Some(250_000), true);

    assert_eq!(
        plain, with_health_a,
        "health engine on vs off must not change traces or deliveries"
    );
    assert_eq!(
        with_health_a, with_health_b,
        "engine-on runs must replay identically"
    );
    let t_off = timeline_off.expect("sampler armed");
    let ta = timeline_a.expect("sampler armed");
    let tb = timeline_b.expect("sampler armed");
    // Arming the engine adds exactly its own primed `health.alert.*`
    // counters to the sampled timeline (their `.rate` series); every
    // *other* sample series is untouched and identical across all three
    // runs, and engine-on runs replay identically wholesale.
    let sans_alert_counters = |t: &gryphon_sim::telemetry::Timeline| -> String {
        t.to_ndjson()
            .lines()
            .filter(|l| !l.contains("\"series\":\"health.alert."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(sans_alert_counters(&t_off), sans_alert_counters(&ta));
    assert_eq!(ta.to_ndjson(), tb.to_ndjson());
    assert_eq!(ta.alerts(), tb.alerts());
    assert!(t_off.alerts().is_empty(), "engine off records no alerts");
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

/// Tail forensics must also be pure observers: arming exemplar capture
/// and the contention profiler cannot perturb traces or deliveries, the
/// ordinary sample series stay untouched, and the forensics streams
/// themselves replay bit-identically across armed runs.
#[test]
fn forensics_do_not_perturb_golden_run() {
    let (plain, timeline_off) = run_observed(42, Some(250_000), false);
    let ((armed_a, timeline_a), _) = run_instrumented(
        42,
        Some(250_000),
        false,
        Some(gryphon_sim::ForensicsConfig::default()),
    );
    let ((armed_b, timeline_b), _) = run_instrumented(
        42,
        Some(250_000),
        false,
        Some(gryphon_sim::ForensicsConfig::default()),
    );

    assert_eq!(
        plain, armed_a,
        "forensics on vs off must not change traces or deliveries"
    );
    assert_eq!(armed_a, armed_b, "armed runs must replay identically");
    let t_off = timeline_off.expect("sampler armed");
    let ta = timeline_a.expect("sampler armed");
    let tb = timeline_b.expect("sampler armed");
    // The sampled series are byte-identical with forensics on or off —
    // forensics append only to their own timeline streams plus the
    // `forensics.*` drop counters (same carve-out the health engine
    // gets for its `health.alert.*` counters above).
    let sans_forensics_counters = |t: &gryphon_sim::telemetry::Timeline| -> String {
        t.to_ndjson()
            .lines()
            .filter(|l| !l.contains("\"series\":\"forensics."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        sans_forensics_counters(&t_off),
        sans_forensics_counters(&ta)
    );
    assert_eq!(ta.exemplars_ndjson(), tb.exemplars_ndjson());
    assert_eq!(ta.intervals_ndjson(), tb.intervals_ndjson());
    // The contention profiler observed real work: every charged busy
    // interval lands in the timeline.
    assert!(ta.intervals().len() > 0, "no busy intervals collected");
    assert_eq!(t_off.intervals().len(), 0, "disarmed run collects none");
}

/// The population sketch (top-K attribution + lag spectrum, DESIGN.md
/// §9) is the newest pure observer: arming it cannot perturb traces or
/// deliveries, every non-sketch sample series is byte-identical with it
/// on or off, and the topk stream itself replays bit-identically across
/// armed runs.
#[test]
fn sketch_does_not_perturb_golden_run() {
    let run_sketched = |armed: bool| {
        let spec = TopologySpec {
            seed: 42,
            n_shbs: 2,
            pubends: 4,
            ..TopologySpec::default()
        };
        let workload = Workload {
            subs_per_shb: 6,
            ..Workload::paper_disconnecting(3_000_000, 500_000)
        };
        let mut sys = System::build(&spec, &workload);
        sys.sim.enable_telemetry(250_000);
        if armed {
            sys.sim
                .enable_sketch(gryphon_sim::sketch::SketchConfig::default());
        }
        sys.sim.run_until(6_000_000);
        let traces: Vec<String> = sys
            .sim
            .trace_records()
            .map(|r| format!("{} {}", r.t_us, r.render(sys.sim.node_name(r.node))))
            .collect();
        let deliveries: Vec<Vec<Delivery>> = sys
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
        let timeline = sys.sim.take_telemetry().expect("sampler armed");
        (traces, deliveries, timeline)
    };

    let (traces_off, deliveries_off, t_off) = run_sketched(false);
    let (traces_a, deliveries_a, ta) = run_sketched(true);
    let (traces_b, deliveries_b, tb) = run_sketched(true);

    assert_eq!(
        traces_off, traces_a,
        "sketch on vs off must not change the trace stream"
    );
    assert_eq!(
        deliveries_off, deliveries_a,
        "sketch on vs off must not change deliveries"
    );
    assert_eq!(traces_a, traces_b, "armed runs must replay identically");
    assert_eq!(deliveries_a, deliveries_b);
    // The armed run adds only its own `sketch.*` gauge series; every
    // other sample series is untouched (same carve-out as the health
    // engine's counters and the forensics drop counters above).
    let sans_sketch = |t: &gryphon_sim::telemetry::Timeline| -> String {
        t.to_ndjson()
            .lines()
            .filter(|l| !l.contains("\"series\":\"sketch."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(sans_sketch(&t_off), sans_sketch(&ta));
    assert_eq!(ta.to_ndjson(), tb.to_ndjson());
    // The topk stream itself is deterministic, present only when armed.
    assert_eq!(ta.topks_ndjson(), tb.topks_ndjson());
    assert_eq!(t_off.topks().len(), 0, "disarmed run attributes nothing");
}

/// Forensics memory is bounded even under a pathologically small
/// config: the interval ring evicts (counting each loss into
/// `forensics.interval_dropped`) instead of growing, and what reaches
/// the timeline respects the timeline's own cap.
#[test]
fn forensics_stay_bounded_and_count_drops() {
    let tiny = gryphon_sim::ForensicsConfig {
        interval_capacity: 8,
        ..gryphon_sim::ForensicsConfig::default()
    };
    let ((golden, timeline), (_, interval_dropped)) =
        run_instrumented(42, Some(2_000_000), false, Some(tiny));
    assert!(golden.events > 100);
    let t = timeline.expect("sampler armed");
    // With room for only 8 intervals per window the ring must have
    // evicted, and every eviction is accounted for.
    assert!(
        interval_dropped > 0.0,
        "tiny ring never dropped — bound not exercised"
    );
    assert!(t.intervals().len() <= gryphon_sim::telemetry::TIMELINE_INTERVAL_CAP);
    assert!(t.exemplars().len() <= gryphon_sim::telemetry::TIMELINE_EXEMPLAR_CAP);
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
