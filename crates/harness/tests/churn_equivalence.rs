//! Churn-equivalence for the slab-resident subscriber table (ISSUE 7).
//!
//! The SHB keeps all per-subscriber state in a dense slab keyed by
//! `SubSlot`, holds only durable state for idle subscribers (a
//! disconnect drops the connection and its catchup streams) and
//! recycles slots on unsubscribe. These tests prove the observable
//! protocol is unchanged under churn-heavy reconnection:
//!
//! * a churn-heavy run replays bit-identically (traces + deliveries) —
//!   slab iteration order is intrinsic, not `HashMap`-accidental;
//! * deliveries match the pre-refactor semantics exactly: every
//!   subscriber receives precisely the events its filter selects, in
//!   timestamp order, exactly once (consecutive publisher sequences in
//!   its class residue — no holes, no duplicates), with the delivery
//!   ledger and every watchdog clean;
//! * a reconnect-storm property test drops and rebuilds catchup streams
//!   under randomized storms (bandwidth-starved clients, so the second
//!   storm always lands mid-catchup) and asserts ledger-clean
//!   exactly-once delivery with `health.alert.*` quiet outside the
//!   storm transient.

use gryphon::SubscriberConfig;
use gryphon_harness::{System, TopologySpec, Workload};
use gryphon_sim::TraceEvent;
use gryphon_types::{PubendId, SubscriberId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// One delivered event: `(pubend, ts, publisher seq)`.
type Delivery = (u32, u64, i64);

struct RunOut {
    traces: Vec<String>,
    /// Per subscriber (in build order): its event deliveries.
    deliveries: Vec<Vec<Delivery>>,
    events: u64,
    gaps: u64,
    order_violations: u64,
    watchdogs: u64,
    ledger: u64,
    /// Catchup streams that ended without a switchover (see
    /// [`streams_dropped_mid_catchup`]).
    dropped_mid_catchup: usize,
    alerts: Vec<gryphon_sim::AlertRecord>,
}

fn collect_run(mut sys: System, until_us: u64, observe: bool) -> RunOut {
    if observe {
        sys.sim.enable_telemetry(250_000);
    }
    sys.sim.run_until(until_us);
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
                .filter(|r| r.kind == "event")
                .map(|r| (r.pubend.0, r.ts.0, r.seq.expect("events carry _seq")))
                .collect()
        })
        .collect();
    RunOut {
        traces,
        deliveries,
        events: sys.total_events(),
        gaps: sys.total_gaps(),
        order_violations: sys.total_order_violations(),
        watchdogs: sys.sim.watchdog_violations(),
        ledger: sys.sim.ledger_violations(),
        dropped_mid_catchup: streams_dropped_mid_catchup(&sys),
        alerts: sys
            .sim
            .take_telemetry()
            .map(|t| t.alerts().to_vec())
            .unwrap_or_default(),
    }
}

/// Catchup streams a disconnect dropped, read off the trace ring: a
/// `CatchupStarted` with no `Switchover` for that (sub, pubend) before
/// the sub's next `CatchupStarted` — the next connect's, which starts
/// its streams all at one instant. Counts only what the ring retained.
fn streams_dropped_mid_catchup(sys: &System) -> usize {
    // Per subscriber: when its last connect started catchup, and the
    // pubends whose stream from that connect has not switched over.
    let mut open: HashMap<SubscriberId, (u64, BTreeSet<PubendId>)> = HashMap::new();
    let mut dropped = 0;
    for r in sys.sim.trace_records() {
        match r.event {
            TraceEvent::CatchupStarted { sub, pubend, .. } => {
                let (started_us, pubends) = open.entry(sub).or_default();
                if *started_us != r.t_us {
                    dropped += pubends.len();
                    pubends.clear();
                    *started_us = r.t_us;
                }
                pubends.insert(pubend);
            }
            TraceEvent::Switchover { sub, pubend, .. } => {
                if let Some((_, pubends)) = open.get_mut(&sub) {
                    pubends.remove(&pubend);
                }
            }
            _ => {}
        }
    }
    dropped
}

/// The churn-heavy scenario: 2 SHBs × 8 subscribers, every subscriber
/// disconnecting for 300 ms out of every 1.2 s with staggered phases,
/// so reconnection/catchup/parking churns continuously.
fn run_churn(seed: u64) -> RunOut {
    let spec = TopologySpec {
        seed,
        n_shbs: 2,
        pubends: 4,
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 8,
        sub_cfg: SubscriberConfig {
            disconnect_period_us: Some(1_200_000),
            disconnect_duration_us: 300_000,
            collect: true,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    collect_run(System::build(&spec, &workload), 6_000_000, false)
}

/// Exactly-once against filter semantics: subscriber `k` (filter
/// `class = (k % subs_per_shb) % classes`) must have received, per
/// pubend, a strictly-ascending run of publisher sequences in its class
/// residue with no holes between the first and last — any duplicate,
/// reordering, or missed redelivery under churn breaks the progression.
fn assert_deliveries_match_filters(out: &RunOut, subs_per_shb: usize, classes: i64) {
    for (k, subs) in out.deliveries.iter().enumerate() {
        let class = ((k % subs_per_shb) as i64) % classes;
        let mut per_pubend: std::collections::HashMap<u32, Vec<i64>> = Default::default();
        let mut last_ts: std::collections::HashMap<u32, u64> = Default::default();
        for &(p, ts, seq) in subs {
            assert_eq!(seq % classes, class, "sub {k}: delivery outside its filter");
            let last = last_ts.entry(p).or_insert(0);
            assert!(ts > *last, "sub {k}: non-monotone delivery on pubend {p}");
            *last = ts;
            per_pubend.entry(p).or_default().push(seq);
        }
        for (p, seqs) in per_pubend {
            for w in seqs.windows(2) {
                assert_eq!(
                    w[1],
                    w[0] + classes,
                    "sub {k} pubend {p}: hole or duplicate in the class-{class} sequence run"
                );
            }
        }
    }
}

#[test]
fn churn_heavy_run_replays_bit_identically() {
    let a = run_churn(42);
    assert!(a.events > 500, "churn workload must deliver: {}", a.events);
    assert_eq!(a.order_violations, 0);
    assert_eq!(a.watchdogs, 0);
    assert_eq!(a.ledger, 0, "delivery ledger must be clean under churn");
    let b = run_churn(42);
    for (i, (la, lb)) in a.traces.iter().zip(&b.traces).enumerate() {
        assert_eq!(la, lb, "first trace divergence at line {i}");
    }
    assert_eq!(a.traces.len(), b.traces.len());
    assert_eq!(
        a.deliveries, b.deliveries,
        "deliveries must replay bit-identically"
    );
    assert_eq!(a.events, b.events);
}

#[test]
fn churn_deliveries_match_filter_semantics_exactly_once() {
    let out = run_churn(7);
    assert_eq!(
        out.gaps, 0,
        "no information loss expected on loss-free links"
    );
    assert_eq!(out.order_violations, 0);
    assert_eq!(out.ledger, 0);
    assert!(
        out.deliveries.iter().all(|d| !d.is_empty()),
        "every subscriber delivers"
    );
    assert_deliveries_match_filters(&out, 8, 4);
}

/// One reconnect storm run: every subscriber of one SHB disconnects at
/// the same instant (twice — period 2.5 s), behind a bandwidth-starved
/// client link and a tight catchup flow-control window (300 ticks), so
/// catchup is paced by real client consumption. The long down window
/// piles up more backlog than the up window can drain, so the second
/// storm always lands mid-catchup: the disconnects drop open streams and
/// the reconnects rebuild them. The run ends with a long quiet tail so
/// catchup completes and any health alert has cleared. The trace ring
/// retains every record, so no dropped stream goes uncounted.
fn run_storm(seed: u64, subs: usize, storm_at_us: u64, down_us: u64) -> RunOut {
    let spec = TopologySpec {
        seed,
        n_shbs: 1,
        pubends: 2,
        client_bw: Some(35_000),
        broker_config: gryphon::BrokerConfig {
            catchup_window_ticks: 300,
            ..gryphon::BrokerConfig::default()
        },
        ..TopologySpec::default()
    };
    let workload = Workload {
        input_rate: 200.0,
        subs_per_shb: subs,
        stagger: false,
        sub_cfg: SubscriberConfig {
            disconnect_period_us: Some(2_500_000),
            disconnect_duration_us: down_us,
            disconnect_phase_us: Some(storm_at_us),
            collect: true,
            ..SubscriberConfig::default()
        },
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    sys.sim.set_trace_capacity(usize::MAX);
    collect_run(sys, 9_000_000, true)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 5,
        ..ProptestConfig::default()
    })]

    /// Drop and rebuild the catchup streams of N random subscribers
    /// under churn — ledger-clean exactly-once delivery,
    /// `health.alert.*` quiet outside the storm transient.
    #[test]
    fn reconnect_storm_drops_rebuilds_and_stays_exactly_once(
        seed in 0u64..1_000,
        subs in 6usize..=10,
        storm_at_us in 700_000u64..=900_000,
        down_us in 1_500_000u64..=1_700_000,
    ) {
        let out = run_storm(seed, subs, storm_at_us, down_us);
        prop_assert_eq!(out.order_violations, 0);
        prop_assert_eq!(out.watchdogs, 0);
        prop_assert_eq!(out.ledger, 0, "exactly-once ledger must stay clean through the storm");
        prop_assert_eq!(out.gaps, 0);
        prop_assert!(
            out.deliveries.iter().all(|d| !d.is_empty()),
            "every subscriber must deliver through the storm"
        );
        assert_deliveries_match_filters(&out, subs, 4);
        prop_assert!(
            out.dropped_mid_catchup >= 1,
            "the second storm must land mid-catchup and drop open streams"
        );
        // Health stays quiet outside the storm transient: nothing fires
        // before the first storm, and whatever fires during it clears
        // by the end of the quiet tail.
        for a in &out.alerts {
            prop_assert!(
                a.t_us >= storm_at_us,
                "alert {} fired at {} µs, before the first storm at {} µs",
                a.rule, a.t_us, storm_at_us
            );
        }
        let mut last_state: std::collections::HashMap<&str, gryphon_sim::AlertState> =
            Default::default();
        for a in &out.alerts {
            last_state.insert(a.series.as_str(), a.state);
        }
        for (series, state) in last_state {
            prop_assert!(
                state == gryphon_sim::AlertState::Cleared,
                "alert on {series} still firing after the quiet tail"
            );
        }
    }
}
