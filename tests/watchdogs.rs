//! Fault-injection tests for the protocol-invariant watchdogs.
//!
//! Two directions: (1) real failures — an SHB crash mid-catchup — must
//! leave every watchdog quiet after recovery (the protocol actually
//! upholds its invariants under faults); (2) deliberately corrupted
//! trace records must each be flagged as exactly one violation (the
//! watchdogs actually bite). Only meaningful with the observability
//! layer compiled in.
#![cfg(feature = "trace")]

use gryphon::SubscriberConfig;
use gryphon_harness::{System, TopologySpec, Workload};
use gryphon_sim::{names, Sim, TraceEvent};
use gryphon_types::{NodeId, PubendId, Timestamp};

/// An SHB that crashes while its subscribers are mid-catchup: after
/// recovery the constream must restart gap-free, the doubt horizon must
/// stay monotone, and the PHB must not re-log — zero violations, with
/// the watchdog panic armed the whole time so any violation would also
/// abort the run.
#[test]
fn shb_crash_mid_catchup_keeps_watchdogs_quiet() {
    let spec = TopologySpec {
        seed: 301,
        n_shbs: 1,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 6,
        sub_cfg: SubscriberConfig {
            // Periodic absences keep catchup streams in flight so the
            // crash lands mid-catchup for at least some subscribers.
            disconnect_period_us: Some(6_000_000),
            disconnect_duration_us: 2_000_000,
            probe_interval_us: 1_000_000,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    sys.sim.set_trace_capacity(1_000_000);
    sys.sim.set_oracle_panic(true);
    sys.sim
        .schedule_crash(sys.shbs[0].id(), 9_000_000, 2_000_000);
    sys.sim.run_until(40_000_000);

    assert!(
        sys.sim.metrics().counter("broker.restarts") >= 1.0,
        "the crash must actually have happened"
    );
    assert_eq!(sys.total_order_violations(), 0);
    assert_eq!(sys.total_gaps(), 0);
    assert_eq!(
        sys.sim.watchdog_violations(),
        0,
        "crash recovery must not trip any protocol-invariant watchdog"
    );

    // The run must have exercised all three watchdogs with real traffic,
    // not vacuously passed.
    let mut gap_checks = 0u64;
    let mut doubt = 0u64;
    let mut logged = 0u64;
    let mut catchups = 0u64;
    let mut switchovers = 0u64;
    let mut restarts = 0u64;
    for r in sys.sim.trace_records() {
        match r.event {
            TraceEvent::ConstreamGapCheck { .. } => gap_checks += 1,
            TraceEvent::DoubtAdvanced { .. } => doubt += 1,
            TraceEvent::EventLogged { .. } => logged += 1,
            TraceEvent::CatchupStarted { .. } => catchups += 1,
            TraceEvent::Switchover { .. } => switchovers += 1,
            TraceEvent::NodeRestarted => restarts += 1,
            _ => {}
        }
    }
    assert!(
        gap_checks > 100,
        "constream watchdog barely exercised: {gap_checks}"
    );
    assert!(doubt > 100, "doubt watchdog barely exercised: {doubt}");
    assert!(
        logged > 100,
        "only-once-log watchdog barely exercised: {logged}"
    );
    assert!(
        catchups >= 1,
        "no catchup ever started — crash not mid-catchup"
    );
    assert!(
        switchovers >= 1,
        "no catchup ever switched over to the constream"
    );
    assert!(restarts >= 1, "restart trace event missing");

    // The switchover-latency histogram the experiments report must have
    // real samples from those catchups.
    assert!(sys
        .sim
        .metrics()
        .percentile(names::SHB_SWITCHOVER_LATENCY_US, 0.95)
        .is_some());
}

const N: NodeId = NodeId(42);
const P: PubendId = PubendId(7);

/// A sim with the oracle panic disarmed, for counting violations.
fn quiet_sim() -> Sim {
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(false);
    sim
}

/// A constream advance whose start doesn't meet the previous advance's
/// end is a gap: exactly one violation, and consistent records around it
/// stay clean.
#[test]
fn corrupted_constream_record_flags_exactly_one_gap() {
    let mut sim = quiet_sim();
    sim.inject_trace(
        N,
        TraceEvent::ConstreamGapCheck {
            pubend: P,
            prev: Timestamp(0),
            new_to: Timestamp(10),
        },
    );
    assert_eq!(sim.watchdog_violations(), 0);
    // Corrupted: claims to continue from 5, but the stream ended at 10.
    sim.inject_trace(
        N,
        TraceEvent::ConstreamGapCheck {
            pubend: P,
            prev: Timestamp(5),
            new_to: Timestamp(20),
        },
    );
    assert_eq!(sim.watchdog_violations(), 1);
    assert_eq!(sim.metrics().counter(names::WATCHDOG_CONSTREAM_GAP), 1.0);
    // Back on track from the corrupted record's frontier: no new flags.
    sim.inject_trace(
        N,
        TraceEvent::ConstreamGapCheck {
            pubend: P,
            prev: Timestamp(20),
            new_to: Timestamp(30),
        },
    );
    assert_eq!(sim.watchdog_violations(), 1);
}

/// A doubt horizon moving backwards is flagged once; equal (no-progress)
/// re-reports are fine.
#[test]
fn corrupted_doubt_horizon_flags_exactly_one_regression() {
    let mut sim = quiet_sim();
    for h in [100u64, 150, 150] {
        sim.inject_trace(
            N,
            TraceEvent::DoubtAdvanced {
                pubend: P,
                horizon: Timestamp(h),
            },
        );
    }
    assert_eq!(
        sim.watchdog_violations(),
        0,
        "equal horizons are not a regression"
    );
    sim.inject_trace(
        N,
        TraceEvent::DoubtAdvanced {
            pubend: P,
            horizon: Timestamp(40),
        },
    );
    assert_eq!(sim.watchdog_violations(), 1);
    assert_eq!(sim.metrics().counter(names::WATCHDOG_DOUBT_REGRESSION), 1.0);
}

/// Logging the same tick twice at the PHB violates only-once logging —
/// and a node restart must NOT excuse it (the log is persistent).
#[test]
fn duplicate_log_record_flags_violation_even_across_restart() {
    let mut sim = quiet_sim();
    let logged = |ts: u64| TraceEvent::EventLogged {
        pubend: P,
        ts: Timestamp(ts),
        bytes: 418,
    };
    sim.inject_trace(N, logged(10));
    sim.inject_trace(N, logged(11));
    assert_eq!(sim.watchdog_violations(), 0);
    sim.inject_trace(N, logged(11));
    assert_eq!(sim.watchdog_violations(), 1);
    assert_eq!(sim.metrics().counter(names::WATCHDOG_DUPLICATE_LOG), 1.0);
    // The delivery-side checkers reset on restart; the logging checker
    // must not — re-logging tick 11 after a restart is still a dup.
    sim.inject_trace(N, TraceEvent::NodeRestarted);
    sim.inject_trace(N, logged(11));
    assert_eq!(sim.watchdog_violations(), 2);
    assert_eq!(sim.metrics().counter(names::WATCHDOG_DUPLICATE_LOG), 2.0);
}

/// Mixed corruption across all three invariants: each per-kind counter
/// records its own violations, and the back-compat total is their sum.
#[test]
fn per_kind_counters_partition_the_total() {
    let mut sim = quiet_sim();
    // Two constream gaps.
    for (prev, new_to) in [(0u64, 10), (5, 20), (15, 30)] {
        sim.inject_trace(
            N,
            TraceEvent::ConstreamGapCheck {
                pubend: P,
                prev: Timestamp(prev),
                new_to: Timestamp(new_to),
            },
        );
    }
    // One doubt regression.
    for h in [100u64, 40] {
        sim.inject_trace(
            N,
            TraceEvent::DoubtAdvanced {
                pubend: P,
                horizon: Timestamp(h),
            },
        );
    }
    // One duplicate log.
    for ts in [7u64, 7] {
        sim.inject_trace(
            N,
            TraceEvent::EventLogged {
                pubend: P,
                ts: Timestamp(ts),
                bytes: 418,
            },
        );
    }
    let m = sim.metrics();
    assert_eq!(m.counter(names::WATCHDOG_CONSTREAM_GAP), 2.0);
    assert_eq!(m.counter(names::WATCHDOG_DOUBT_REGRESSION), 1.0);
    assert_eq!(m.counter(names::WATCHDOG_DUPLICATE_LOG), 1.0);
    assert_eq!(
        sim.watchdog_violations(),
        4,
        "the total must stay the sum of the per-kind counters"
    );
}

/// The armed watchdog panics on a violation (the debug-build behaviour
/// inside experiments).
#[test]
#[should_panic(expected = "invariant watchdog")]
fn armed_watchdog_panics_on_violation() {
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(true);
    sim.inject_trace(
        N,
        TraceEvent::DoubtAdvanced {
            pubend: P,
            horizon: Timestamp(100),
        },
    );
    sim.inject_trace(
        N,
        TraceEvent::DoubtAdvanced {
            pubend: P,
            horizon: Timestamp(10),
        },
    );
}

/// An armed watchdog trip dumps the flight recorder *before* it panics:
/// the post-mortem of the run that died is on disk, and names the
/// violation the panic names.
#[test]
fn armed_watchdog_dumps_before_it_panics() {
    let dir = std::env::temp_dir().join(format!("gryphon-watchdog-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(true);
    sim.set_flight_dir(Some(dir.clone()));
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for h in [100u64, 10] {
            sim.inject_trace(
                N,
                TraceEvent::DoubtAdvanced {
                    pubend: P,
                    horizon: Timestamp(h),
                },
            );
        }
    }));
    let payload = panicked.expect_err("an armed watchdog trip panics");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(
        msg.starts_with("invariant watchdog: doubt horizon regressed"),
        "panic message: {msg}"
    );
    let dump = std::fs::read_to_string(dir.join("postmortem-0.txt"))
        .expect("the post-mortem was written before the panic");
    assert!(
        dump.contains("\nreason: watchdog: doubt horizon regressed"),
        "post-mortem: {dump}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
