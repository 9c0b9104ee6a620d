//! Cross-crate integration tests: harness topologies + core protocol +
//! fault injection, verified against publisher ground truth.

use gryphon::{BrokerConfig, SubscriberConfig};
use gryphon_harness::{System, TopologySpec, Workload};
use gryphon_sim::{names, LinkParams};

/// Every subscriber of a system received the exact per-class prefix of
/// published sequence numbers (tail-in-flight tolerated), with no gaps
/// and no order violations.
fn assert_system_exact(sys: &System, min_events: u64) {
    assert_eq!(sys.total_order_violations(), 0);
    assert_eq!(sys.total_gaps(), 0);
    for &(h, _) in &sys.subscribers {
        let client = sys.sim.node_ref(h);
        assert!(
            client.events_received() >= min_events,
            "{:?} received only {}",
            h.id(),
            client.events_received()
        );
    }
}

#[test]
fn four_shb_tree_with_intermediate_steady() {
    let spec = TopologySpec {
        seed: 201,
        n_shbs: 4,
        intermediate: true,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 8,
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    sys.sim.run_until(10_000_000);
    assert_system_exact(&sys, 1_000);
    // The intermediate consolidated traffic: its cache answered no nacks
    // in steady state, but knowledge flowed through it.
    assert!(sys.sim.busy_us(sys.intermediates[0].id()) > 0);
}

#[test]
fn lossy_links_still_deliver_exactly_once() {
    // 5% message loss on the broker link: curiosity/nack recovery must
    // fill every hole.
    let spec = TopologySpec {
        seed: 202,
        n_shbs: 1,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 4,
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    // Replace the broker link with a lossy one.
    sys.sim.connect_with(
        sys.phb.id(),
        sys.shbs[0].id(),
        LinkParams {
            latency_us: 1_000,
            jitter_us: 500,
            loss: 0.05,
            bytes_per_sec: None,
        },
    );
    sys.sim.run_until(30_000_000);
    assert_eq!(sys.total_order_violations(), 0);
    assert_eq!(sys.total_gaps(), 0);
    assert!(
        sys.sim.metrics().counter("net.dropped") > 50.0,
        "loss injection should actually drop messages"
    );
    // Despite the loss, subscribers track the stream (within recovery lag).
    for &(h, _) in &sys.subscribers {
        let client = sys.sim.node_ref(h);
        assert!(
            client.events_received() > 5_000,
            "lossy link stalled delivery: {}",
            client.events_received()
        );
    }
}

#[test]
fn repeated_shb_crashes_never_lose_or_duplicate() {
    let spec = TopologySpec {
        seed: 203,
        n_shbs: 1,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 6,
        sub_cfg: SubscriberConfig {
            probe_interval_us: 1_000_000,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    let shb = sys.shbs[0].id();
    // Three crash/recovery cycles.
    for k in 0..3u64 {
        sys.sim
            .schedule_crash(shb, 5_000_000 + k * 12_000_000, 2_000_000);
    }
    sys.sim.run_until(50_000_000);
    assert!(sys.sim.metrics().counter("broker.restarts") >= 3.0);
    assert_system_exact(&sys, 6_000);
}

#[test]
fn phb_and_shb_crash_in_same_run() {
    let spec = TopologySpec {
        seed: 204,
        n_shbs: 2,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 4,
        sub_cfg: SubscriberConfig {
            probe_interval_us: 1_000_000,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    sys.sim
        .schedule_crash(sys.shbs[0].id(), 5_000_000, 2_000_000);
    sys.sim.schedule_crash(sys.phb.id(), 12_000_000, 2_000_000);
    sys.sim.run_until(40_000_000);
    // PHB crashes lose unlogged publishes (publisher-side, allowed), so
    // only order/gap invariants are asserted globally…
    assert_eq!(sys.total_order_violations(), 0);
    assert_eq!(sys.total_gaps(), 0);
    // …and everyone kept making progress afterwards.
    for &(h, _) in &sys.subscribers {
        assert!(sys.sim.node_ref(h).events_received() > 4_000);
    }
}

#[test]
fn early_release_bounds_phb_storage() {
    let spec = TopologySpec {
        seed: 205,
        n_shbs: 1,
        broker_config: BrokerConfig {
            max_retain_ticks: Some(2_000),
            cache_window_ticks: 1_000,
            ..BrokerConfig::default()
        },
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 2,
        sub_cfg: SubscriberConfig {
            // One subscriber index (0) stays connected; give both a
            // schedule and rely on staggering for variety.
            disconnect_period_us: Some(8_000_000),
            disconnect_duration_us: 6_000_000,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    sys.sim.run_until(40_000_000);
    assert_eq!(sys.total_order_violations(), 0);
    // Long absences beyond maxRetain must have produced gap messages.
    assert!(sys.total_gaps() > 0, "early release must gap the laggards");
    // And the release protocol actually reclaimed PHB storage.
    assert!(
        sys.sim.metrics().counter("phb.early_release_advances") > 0.0,
        "the release protocol should have advanced the lost prefix"
    );
}

#[test]
fn deterministic_replay_same_seed_same_world() {
    let run = |seed: u64| -> (u64, u64, f64) {
        let spec = TopologySpec {
            seed,
            n_shbs: 2,
            ..TopologySpec::default()
        };
        let workload = Workload {
            subs_per_shb: 4,
            sub_cfg: SubscriberConfig {
                disconnect_period_us: Some(6_000_000),
                disconnect_duration_us: 1_000_000,
                ..SubscriberConfig::default()
            },
            ..Workload::default()
        };
        let mut sys = System::build(&spec, &workload);
        sys.sim
            .schedule_crash(sys.shbs[1].id(), 4_000_000, 1_500_000);
        sys.sim.run_until(20_000_000);
        (
            sys.total_events(),
            sys.sim.events_processed(),
            sys.sim.metrics().counter(names::SHB_CONSTREAM_DELIVERED)
                + sys.sim.metrics().counter(names::SHB_CATCHUP_DELIVERED),
        )
    };
    assert_eq!(run(99), run(99), "same seed must replay identically");
}

#[test]
fn intermediate_cache_absorbs_recovery_nacks() {
    // PHB → intermediate → 2 SHBs; one SHB crashes briefly. Its recovery
    // nacks should be answered by the intermediate's knowledge cache —
    // the paper's "caching events at intermediate brokers increases
    // scalability of recovery".
    let spec = TopologySpec {
        seed: 206,
        n_shbs: 2,
        intermediate: true,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 4,
        sub_cfg: SubscriberConfig {
            probe_interval_us: 1_000_000,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    sys.sim
        .schedule_crash(sys.shbs[1].id(), 5_000_000, 2_000_000);
    sys.sim.run_until(20_000_000);
    assert_system_exact(&sys, 2_500);
    assert!(
        sys.sim.metrics().counter("broker.cache_answers") > 0.0,
        "the intermediate cache should have answered recovery nacks"
    );
}
