//! Acceptance test for the time-resolved telemetry layer (DESIGN.md
//! §13): a full PHB → IB → 2-SHB run through an SHB crash and
//! reconnect, with the windowed sampler armed, must *show the
//! transient* — queue depth and catchup backlog spike after the crash
//! and drain back to baseline — and the timeline must export cleanly.
#![cfg(feature = "trace")]

use gryphon::SubscriberConfig;
use gryphon_harness::{System, TopologySpec, Workload};
use gryphon_sim::telemetry::Timeline;

const CRASH_AT_US: u64 = 10_000_000;
const CRASH_DUR_US: u64 = 2_000_000;
const RUN_US: u64 = 30_000_000;

/// Builds and runs the crash workload with the sampler armed at 500 ms
/// windows, returning the collected timeline.
fn crash_run() -> Timeline {
    let spec = TopologySpec {
        seed: 13,
        n_shbs: 2,
        intermediate: true,
        // Bound SHB→client bandwidth so the post-crash catchup is paced
        // by flow control and the transient spans several sample
        // windows. The cap must still exceed the steady-state delivery
        // rate (classes:1 → every subscriber gets all 400 ev/s × 418 B
        // ≈ 167 kB/s), otherwise backlog grows without bound and never
        // drains.
        client_bw: Some(300_000),
        ..TopologySpec::default()
    };
    let workload = Workload {
        input_rate: 400.0,
        subs_per_shb: 3,
        classes: 1,
        sub_cfg: SubscriberConfig {
            probe_interval_us: 1_000_000,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    sys.sim.enable_telemetry(500_000);
    sys.sim
        .schedule_crash(sys.shbs[1].id(), CRASH_AT_US, CRASH_DUR_US);
    sys.sim.run_until(RUN_US);

    assert!(
        sys.sim.metrics().counter("broker.restarts") >= 1.0,
        "the crash must actually have happened"
    );
    assert_eq!(sys.total_order_violations(), 0);
    assert!(sys.total_events() > 100, "workload must deliver");
    sys.sim.take_telemetry().expect("sampler was armed")
}

/// Largest sample of `series` within `[from_us, to_us]`.
fn window_max(timeline: &Timeline, series: &str, from_us: u64, to_us: u64) -> f64 {
    timeline
        .series(series)
        .iter()
        .filter(|&&(t, _)| t >= from_us && t <= to_us)
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn crash_transient_is_visible_in_telemetry_and_drains() {
    let timeline = crash_run();
    let restart_us = CRASH_AT_US + CRASH_DUR_US;

    // Window boundaries: steady state well after the initial connect
    // storm, the recovery transient right after the SHB restarts, and
    // the tail once catchup has finished.
    let baseline = |series: &str| window_max(&timeline, series, 5_000_000, CRASH_AT_US);
    let spike = |series: &str| window_max(&timeline, series, restart_us, restart_us + 10_000_000);
    let tail = |series: &str| window_max(&timeline, series, RUN_US - 5_000_000, RUN_US);

    // Catchup backlog: near zero in steady state, strictly positive
    // while the crashed SHB's subscribers replay the outage, near zero
    // again once they have caught up.
    let backlog = "telemetry.catchup_backlog_ticks";
    assert!(
        !timeline.series(backlog).is_empty(),
        "backlog series missing; have {:?}",
        timeline.series_names()
    );
    let (b0, b1, b2) = (baseline(backlog), spike(backlog), tail(backlog));
    assert!(
        b1 > 0.0,
        "catchup backlog must spike after the crash (baseline {b0}, spike {b1})"
    );
    assert!(
        b1 > 2.0 * b0.max(1.0),
        "spike ({b1}) must rise clearly above the steady state ({b0})"
    );
    assert!(
        b2 < b1 / 2.0,
        "backlog must drain back toward baseline (spike {b1}, tail {b2})"
    );

    // Scheduler queue depth: the paced catchup burst keeps many future
    // deliveries scheduled at once, so the gauge rises above its
    // steady-state level during recovery and settles afterwards.
    let depth = "telemetry.queue_depth";
    let (q0, q1, q2) = (baseline(depth), spike(depth), tail(depth));
    assert!(
        q1 > q0,
        "queue depth must spike above baseline after the crash ({q0} -> {q1})"
    );
    assert!(
        q2 < q1,
        "queue depth must come back down after recovery (spike {q1}, tail {q2})"
    );

    // The doubt-horizon width series from the SHB pipelines also
    // surfaced (the aggregate is derived from the .n<i>.p<j> shards).
    assert!(
        timeline
            .series_names()
            .iter()
            .any(|n| n.starts_with("telemetry.doubt_width_ticks")),
        "doubt-width series missing; have {:?}",
        timeline.series_names()
    );

    // The export holds one line per sample.
    let nd = timeline.to_ndjson();
    assert_eq!(nd.lines().count(), timeline.len());
}
