//! Acceptance tests for the delivery-lineage subsystem: stage-span
//! assembly, the exactly-once delivery ledger, latency-attribution
//! histograms, and the violation flight recorder.
//!
//! Two directions, mirroring `watchdogs.rs`: (1) a real multi-broker
//! run with SHB crashes and subscriber reconnects must leave the ledger
//! spotless under full audit, with complete stage chains and populated
//! catchup/constream histograms; (2) an injected duplicate delivery
//! must trip the ledger exactly once and produce a flight-recorder
//! post-mortem containing that event's lineage.
#![cfg(feature = "trace")]

use gryphon::SubscriberConfig;
use gryphon_harness::{System, TopologySpec, Workload};
use gryphon_sim::{names, DeliveryPath, Sim, TraceEvent};
use gryphon_types::{NodeId, PubendId, SubscriberId, Timestamp};

/// The headline acceptance run: PHB → intermediate → 2 SHBs, one SHB
/// crashing repeatedly while subscribers also take scheduled absences.
/// Every delivery crosses the full pipeline, so afterwards:
///
/// * the full-audit ledger is clean — zero duplicates (in-session and
///   across reconnect), zero gap-beyond-release, zero missing;
/// * every delivered event has a complete broker-side stage chain
///   (timestamped → logged → ingested);
/// * both delivery paths left real latency samples — catchup (recovery
///   reads) *and* constream (steady state) — plus the upstream stages.
#[test]
fn crash_and_reconnect_run_keeps_ledger_clean_with_full_chains() {
    let spec = TopologySpec {
        seed: 203,
        n_shbs: 2,
        intermediate: true,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 4,
        // One class → match-all filters, which the full audit's
        // `missing` check requires (a filtered subscriber legitimately
        // never sees non-matching ticks).
        classes: 1,
        sub_cfg: SubscriberConfig {
            disconnect_period_us: Some(8_000_000),
            disconnect_duration_us: 2_000_000,
            probe_interval_us: 1_000_000,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    sys.sim.set_full_audit(true);
    let shb = sys.shbs[1].id();
    for k in 0..2u64 {
        sys.sim
            .schedule_crash(shb, 6_000_000 + k * 14_000_000, 2_000_000);
    }
    sys.sim.run_until(40_000_000);

    assert!(
        sys.sim.metrics().counter("broker.restarts") >= 2.0,
        "the crashes must actually have happened"
    );
    assert_eq!(sys.total_order_violations(), 0);
    assert_eq!(sys.total_gaps(), 0);

    // Exactly-once, audited offline against the durable log.
    let audit = sys.sim.ledger_audit();
    assert!(audit.is_clean(), "ledger not clean: {audit:?}");
    assert_eq!(sys.sim.ledger_violations(), 0);

    // Every delivered event assembled a complete stage chain.
    let incomplete = sys.sim.lineage().incomplete_delivered();
    assert!(
        incomplete.is_empty(),
        "{} delivered events with broken stage chains, e.g. {}",
        incomplete.len(),
        incomplete[0]
    );

    // Latency attribution has real samples at every stage, on both
    // delivery paths.
    let m = sys.sim.metrics();
    for stage in [
        names::LINEAGE_STAGE_LOG_US,
        names::LINEAGE_STAGE_IB_FORWARD_US,
        names::LINEAGE_STAGE_SHB_INGEST_US,
        names::LINEAGE_STAGE_CATCHUP_US,
        names::LINEAGE_STAGE_CONSTREAM_US,
        names::LINEAGE_STAGE_DELIVER_US,
    ] {
        assert!(
            m.percentile(stage, 0.5).is_some(),
            "stage histogram {stage} is empty"
        );
    }
}

const N: NodeId = NodeId(42);
const P: PubendId = PubendId(7);
const SUB: SubscriberId = SubscriberId(9);

/// Pushes one event's full life through an unarmed sim: timestamped,
/// logged, forwarded, ingested, resumed session, delivered once.
fn seed_one_delivery(sim: &mut Sim, ts: Timestamp) {
    sim.inject_trace(N, TraceEvent::PubendTimestamped { pubend: P, ts });
    sim.inject_trace(
        N,
        TraceEvent::EventLogged {
            pubend: P,
            ts,
            bytes: 418,
        },
    );
    sim.inject_trace(N, TraceEvent::IbForwarded { pubend: P, ts });
    sim.inject_trace(N, TraceEvent::ShbIngested { pubend: P, ts });
    sim.inject_trace(
        N,
        TraceEvent::SubResumed {
            sub: SUB,
            pubend: P,
            at: Timestamp::ZERO,
        },
    );
    sim.inject_trace(
        N,
        TraceEvent::Delivered {
            pubend: P,
            ts,
            sub: SUB,
            path: DeliveryPath::Constream,
        },
    );
}

/// An injected duplicate delivery is flagged exactly once, and the
/// flight recorder dumps a post-mortem containing the offending event's
/// reconstructed lineage.
#[test]
fn injected_duplicate_trips_ledger_once_and_dumps_flight_recorder() {
    let dir = std::env::temp_dir().join(format!(
        "gryphon-lineage-test-{}-{}",
        std::process::id(),
        "dup"
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut sim = Sim::new(1);
    sim.set_oracle_panic(false);
    sim.set_flight_dir(Some(dir.clone()));

    let ts = Timestamp(5_000);
    seed_one_delivery(&mut sim, ts);
    assert_eq!(sim.ledger_violations(), 0);
    assert_eq!(sim.flight_dumps(), 0);

    // The fault: the same event delivered to the same subscriber again.
    sim.inject_trace(
        N,
        TraceEvent::Delivered {
            pubend: P,
            ts,
            sub: SUB,
            path: DeliveryPath::Constream,
        },
    );
    assert_eq!(sim.ledger_violations(), 1, "exactly one violation");
    assert_eq!(sim.ledger_audit().duplicates, 1);
    assert_eq!(sim.metrics().counter(names::LINEAGE_LEDGER_DUPLICATE), 1.0);

    // Subsequent clean deliveries raise no further flags.
    sim.inject_trace(
        N,
        TraceEvent::Delivered {
            pubend: P,
            ts: Timestamp(6_000),
            sub: SUB,
            path: DeliveryPath::Constream,
        },
    );
    assert_eq!(sim.ledger_violations(), 1);

    // The flight recorder wrote exactly one post-mortem …
    assert_eq!(sim.flight_dumps(), 1);
    assert_eq!(sim.metrics().counter(names::LINEAGE_FLIGHT_DUMPS), 1.0);
    let dump = dir.join("postmortem-0.txt");
    let contents = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("missing {}: {e}", dump.display()));

    // … whose reason names the ledger and whose body carries the
    // offending event's lineage span with every recorded anchor.
    assert!(contents.contains("reason: ledger: duplicate delivery"));
    assert!(contents.contains("## lineage of offending event"));
    assert!(contents.contains(&format!("span {}", gryphon_types::LineageKey::new(P, ts))));
    assert!(
        contents.contains("deliveries:  2"),
        "span should show both deliveries"
    );
    assert!(contents.contains("## metrics snapshot\nkind,name,count,value,min,p50,p95,p99,max\n"));
    assert!(contents.contains("## trace ring tail"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `xp --bundle-out` plumbing: the flight directory in a spec's
/// `RunOptions` reaches the simulator the topology builds.
#[test]
fn default_flight_dir_arms_built_systems() {
    let dir = std::env::temp_dir().join(format!(
        "gryphon-lineage-test-{}-{}",
        std::process::id(),
        "topo"
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = TopologySpec {
        run: gryphon_harness::RunOptions {
            flight_dir: Some(dir.clone()),
            ..Default::default()
        },
        ..TopologySpec::default()
    };
    let mut sys = System::build(&spec, &Workload::default());

    sys.sim.set_oracle_panic(false);
    let ts = Timestamp(5_000);
    for _ in 0..2 {
        sys.sim.inject_trace(
            N,
            TraceEvent::Delivered {
                pubend: P,
                ts,
                sub: SUB,
                path: DeliveryPath::Constream,
            },
        );
    }
    assert_eq!(sys.sim.flight_dumps(), 1);
    assert!(
        dir.join("postmortem-0.txt").is_file(),
        "the armed system must dump into the configured directory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delivery at or below the session's resume checkpoint is the
/// reconnect-duplicate flavour, counted separately.
#[test]
fn delivery_below_resume_checkpoint_is_a_reconnect_duplicate() {
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(false);
    seed_one_delivery(&mut sim, Timestamp(5_000));
    // The subscriber reconnects with a checkpoint at 5 000 …
    sim.inject_trace(
        N,
        TraceEvent::SubResumed {
            sub: SUB,
            pubend: P,
            at: Timestamp(5_000),
        },
    );
    // … and the broker replays tick 5 000 anyway.
    sim.inject_trace(
        N,
        TraceEvent::Delivered {
            pubend: P,
            ts: Timestamp(5_000),
            sub: SUB,
            path: DeliveryPath::Catchup,
        },
    );
    assert_eq!(sim.ledger_violations(), 1);
    let audit = sim.ledger_audit();
    assert_eq!(audit.reconnect_duplicates, 1);
    assert_eq!(audit.duplicates, 0, "counted as the reconnect flavour");
    assert_eq!(
        sim.metrics()
            .counter(names::LINEAGE_LEDGER_RECONNECT_DUPLICATE),
        1.0
    );
}

/// A gap message claiming ticks beyond the L-conversion boundary is a
/// protocol violation — early release must never outrun LConverted.
#[test]
fn gap_beyond_release_boundary_is_flagged() {
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(false);
    sim.inject_trace(
        N,
        TraceEvent::LConverted {
            pubend: P,
            upto: Timestamp(10_000),
        },
    );
    // Within the released prefix: fine.
    sim.inject_trace(
        N,
        TraceEvent::GapDelivered {
            pubend: P,
            sub: SUB,
            upto: Timestamp(8_000),
        },
    );
    assert_eq!(sim.ledger_violations(), 0);
    // Beyond it: flagged.
    sim.inject_trace(
        N,
        TraceEvent::GapDelivered {
            pubend: P,
            sub: SUB,
            upto: Timestamp(12_000),
        },
    );
    assert_eq!(sim.ledger_violations(), 1);
    assert_eq!(sim.ledger_audit().gap_beyond_release, 1);
}

/// The armed ledger aborts the run on a violation (the debug-build
/// default inside experiments), after the flight recorder has dumped.
#[test]
#[should_panic(expected = "delivery ledger")]
fn armed_ledger_panics_on_duplicate() {
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(true);
    let ts = Timestamp(5_000);
    seed_one_delivery(&mut sim, ts);
    sim.inject_trace(
        N,
        TraceEvent::Delivered {
            pubend: P,
            ts,
            sub: SUB,
            path: DeliveryPath::Constream,
        },
    );
}
