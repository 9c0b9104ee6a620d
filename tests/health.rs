//! Acceptance test for the online health engine (DESIGN.md §9): the
//! engine armed with the default rules must stay silent on a clean
//! PHB → IB → 2-SHB run, and on the same run with an SHB crash it must
//! raise the `catchup_backlog` sustained-growth alert during the
//! recovery transient and clear it by the tail — with the transitions
//! visible in the timeline alert log, the rendered report's ALERTS
//! section, and the `metrics.csv` snapshot. Offline replay over the
//! exported timeline (`xp doctor check`) must reproduce the online
//! alert log exactly.
#![cfg(feature = "trace")]

use gryphon::SubscriberConfig;
use gryphon_harness::{Report, System, TopologySpec, Workload};
use gryphon_sim::telemetry::Timeline;
use gryphon_sim::{default_rules, AlertState, MetricsSnapshot};

const CRASH_AT_US: u64 = 10_000_000;
const CRASH_DUR_US: u64 = 2_000_000;
const RUN_US: u64 = 30_000_000;

/// The crash topology from `tests/telemetry.rs`: bounded SHB→client
/// bandwidth paces the post-crash catchup so the backlog transient
/// spans several sample windows — exactly what the sustained-growth
/// rule watches for.
fn build(crash: bool) -> (Timeline, f64, String) {
    let spec = TopologySpec {
        seed: 13,
        n_shbs: 2,
        intermediate: true,
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
    sys.sim.enable_health(default_rules());
    if crash {
        sys.sim
            .schedule_crash(sys.shbs[1].id(), CRASH_AT_US, CRASH_DUR_US);
    }
    sys.sim.run_until(RUN_US);
    assert_eq!(sys.total_order_violations(), 0);
    assert!(sys.total_events() > 100, "workload must deliver");
    let counter = sys
        .sim
        .metrics()
        .counter(gryphon_sim::names::HEALTH_ALERT_CATCHUP_BACKLOG);
    let csv = MetricsSnapshot::from_metrics(sys.sim.metrics()).to_csv();
    let timeline = sys.sim.take_telemetry().expect("sampler was armed");
    (timeline, counter, csv)
}

#[test]
fn clean_run_raises_no_alerts() {
    let (timeline, counter, csv) = build(false);
    assert!(
        timeline.alerts().is_empty(),
        "clean run must stay quiet, got {:?}",
        timeline.alerts()
    );
    assert_eq!(counter, 0.0, "alert counter must be primed at zero");
    // Primed-at-zero counters keep the family visible in `metrics.csv`
    // so "no alerts" is an observable fact, not a missing row.
    assert!(
        csv.contains("\ncounter,health.alert.catchup_backlog,,0.000,"),
        "metrics.csv must carry the primed alert counter"
    );
    // The report shows the engine as armed-but-quiet.
    let mut report = Report::new("health-clean");
    report.attach_telemetry(timeline);
    // attach_metrics is skipped here; the armed marker comes from the
    // health.alert.* counters, so render without them shows nothing.
    assert!(!report.render().contains("FIRING"));
}

#[test]
fn crash_fires_catchup_backlog_and_clears() {
    let (timeline, counter, csv) = build(true);
    let alerts = timeline.alerts();
    let restart_us = CRASH_AT_US + CRASH_DUR_US;

    let firing: Vec<_> = alerts
        .iter()
        .filter(|a| a.rule == "catchup_backlog" && a.state == AlertState::Firing)
        .collect();
    assert!(
        !firing.is_empty(),
        "crash must raise catchup_backlog; alert log: {alerts:?}"
    );
    // The alert belongs to the recovery transient, not the steady state.
    for a in &firing {
        assert!(
            a.t_us >= CRASH_AT_US && a.t_us <= restart_us + 10_000_000,
            "firing at {} µs is outside the transient",
            a.t_us
        );
    }
    // And it clears again: the last catchup_backlog transition in the
    // log is a Cleared, strictly after the first Firing.
    let last = alerts
        .iter()
        .rfind(|a| a.rule == "catchup_backlog")
        .unwrap();
    assert_eq!(
        last.state,
        AlertState::Cleared,
        "backlog alert must clear by the tail; alert log: {alerts:?}"
    );
    assert!(last.t_us > firing[0].t_us);

    // The firing incremented the counter, which shows up in `metrics.csv`.
    assert!(counter >= 1.0, "counter must count firings, got {counter}");
    let csv_line = csv
        .lines()
        .find(|l| l.starts_with("counter,health.alert.catchup_backlog,"))
        .expect("metrics.csv must carry the alert counter");
    let value: f64 = csv_line.split(',').nth(3).unwrap().parse().unwrap();
    assert!(value >= 1.0, "{csv_line}");

    // The rendered report carries an ALERTS section with the firing.
    let mut report = Report::new("health-crash");
    report.attach_telemetry(timeline);
    let text = report.render();
    assert!(text.contains("## ALERTS"), "{text}");
    assert!(text.contains("FIRING"), "{text}");
    assert!(text.contains("catchup_backlog"), "{text}");
}

/// `xp doctor check` replays the default rules over a bundle's exported
/// timeline. The engine only ever reads samples at or before its
/// evaluation time, so replay must reproduce the online alert log
/// *exactly* — same transitions, same order, same timestamps — even
/// after a round-trip through the ndjson export.
#[test]
fn offline_replay_reproduces_online_alert_log() {
    let (timeline, _, _) = build(true);
    assert!(!timeline.alerts().is_empty(), "crash run must alert");

    let replayed = gryphon_harness::doctor::replay_health(&timeline);
    assert_eq!(replayed, timeline.alerts(), "replay must match online");

    // Same through the bundle's export formats (what doctor reads).
    let parsed = Timeline::from_ndjson(&timeline.to_ndjson(), timeline.interval_us()).unwrap();
    let replayed_from_export = gryphon_harness::doctor::replay_health(&parsed);
    assert_eq!(replayed_from_export, timeline.alerts());
}
