//! The correctness oracle — the exactly-once delivery ledger and the
//! protocol watchdogs — observes every `ctx.trace` event on **both**
//! runtimes. A node that plants a violation through nothing but
//! `NodeCtx::trace` must be caught under the simulator and on a
//! threaded-runtime worker alike; these tests fail if either runtime's
//! context stops feeding either kind of check, which is what guarantees
//! no CPU was ever saved by disconnecting a check.

#![cfg(feature = "trace")]

use gryphon_net::NetBuilder;
use gryphon_sim::{DeliveryPath, Node, NodeCtx, Sim, TimerKey, TraceEvent};
use gryphon_types::{
    InterestChange, NetMsg, NodeId, PubendId, SubInterestMsg, SubscriberId, Timestamp,
};
use std::time::Duration;

const P: PubendId = PubendId(0);

fn poke() -> NetMsg {
    NetMsg::SubInterest(SubInterestMsg {
        version: 0,
        change: InterestChange::Snapshot(vec![]),
    })
}

/// Emits `events` through `ctx.trace` on the first message it receives.
struct Planter {
    events: Vec<TraceEvent>,
}

impl Node for Planter {
    fn on_message(&mut self, _: NodeId, _: NetMsg, ctx: &mut dyn NodeCtx) {
        for event in self.events.drain(..) {
            ctx.trace(event);
        }
    }
    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

/// The same delivery twice within one session: exactly one ledger
/// violation.
fn duplicate_delivery() -> Planter {
    let delivered = TraceEvent::Delivered {
        pubend: P,
        ts: Timestamp(5),
        sub: SubscriberId(1),
        path: DeliveryPath::Constream,
    };
    Planter {
        events: vec![delivered.clone(), delivered],
    }
}

/// A constream advance that does not start where the previous one ended
/// (a hole at (10, 12]): exactly one gap-watchdog violation.
fn constream_gap() -> Planter {
    let advance = |prev, new_to| TraceEvent::ConstreamGapCheck {
        pubend: P,
        prev: Timestamp(prev),
        new_to: Timestamp(new_to),
    };
    Planter {
        events: vec![advance(0, 10), advance(12, 20)],
    }
}

#[test]
fn duplicate_delivery_trips_the_ledger_under_the_simulator() {
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(false);
    let node = sim.add_typed_node("planter", duplicate_delivery()).id();
    sim.inject_ctrl(0, node, poke());
    sim.run_to_quiescence();
    assert_eq!(sim.ledger_violations(), 1);
    assert_eq!(sim.watchdog_violations(), 0);
}

#[test]
fn duplicate_delivery_trips_the_ledger_on_a_net_worker() {
    let mut builder = NetBuilder::new();
    let node = builder.add_node("planter", duplicate_delivery());
    let net = builder.start();
    net.inject(node.id(), poke());
    net.run_for(Duration::from_millis(50));
    let result = net.stop();
    assert_eq!(result.ledger_violations(), 1);
    assert_eq!(result.watchdog_violations(), 0.0);
    assert!(result.node(node).events.is_empty(), "the planter ran");
}

#[test]
fn constream_gap_trips_the_watchdog_under_the_simulator() {
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(false);
    let node = sim.add_typed_node("planter", constream_gap()).id();
    sim.inject_ctrl(0, node, poke());
    sim.run_to_quiescence();
    assert_eq!(sim.watchdog_violations(), 1);
    assert_eq!(sim.ledger_violations(), 0);
}

/// The threaded runtime counts a watchdog trip like a ledger trip, in
/// every build: the worker lives on.
#[test]
fn constream_gap_trips_the_watchdog_on_a_net_worker() {
    let mut builder = NetBuilder::new();
    let node = builder.add_node("planter", constream_gap());
    let net = builder.start();
    net.inject(node.id(), poke());
    net.run_for(Duration::from_millis(50));
    let result = net.stop();
    assert_eq!(result.watchdog_violations(), 1.0);
    assert_eq!(result.ledger_violations(), 0);
    assert!(result.node(node).events.is_empty(), "the planter ran");
}

/// Reports one delivered event to `subs` through one `ctx.delivered`
/// call on the first message it receives.
struct BatchPlanter {
    subs: Vec<SubscriberId>,
}

impl Node for BatchPlanter {
    fn on_message(&mut self, _: NodeId, _: NetMsg, ctx: &mut dyn NodeCtx) {
        let subs = std::mem::take(&mut self.subs);
        ctx.delivered(P, Timestamp(5), DeliveryPath::Constream, &subs);
    }
    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

/// One event reported once, with subscriber 2 listed twice: exactly one
/// ledger violation, at the second listing.
fn duplicate_in_one_report() -> BatchPlanter {
    BatchPlanter {
        subs: [1, 2, 2, 3].map(SubscriberId).to_vec(),
    }
}

/// The simulator checks each subscriber of a batched report in order:
/// its flight recorder dumps at the duplicate, with the trace tail ending
/// on the offending subscriber's record, and the ring keeps one
/// `Delivered` record per subscriber.
#[test]
fn duplicate_in_one_delivered_report_trips_the_ledger_under_the_simulator() {
    let dir = std::env::temp_dir().join(format!("gryphon-oracles-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sim = Sim::new(1);
    sim.set_oracle_panic(false);
    sim.set_flight_dir(Some(dir.clone()));
    let node = sim
        .add_typed_node("planter", duplicate_in_one_report())
        .id();
    sim.inject_ctrl(0, node, poke());
    sim.run_to_quiescence();
    assert_eq!(sim.ledger_violations(), 1);
    assert_eq!(sim.flight_dumps(), 1);

    let delivered = |sub| TraceEvent::Delivered {
        pubend: P,
        ts: Timestamp(5),
        sub: SubscriberId(sub),
        path: DeliveryPath::Constream,
    };
    let dump = std::fs::read_to_string(dir.join("postmortem-0.txt")).expect("post-mortem");
    let last = dump.lines().rev().find(|l| !l.is_empty());
    assert_eq!(last, Some(format!("0 {node} {:?}", delivered(2)).as_str()));
    let ring: Vec<TraceEvent> = sim.trace_records().map(|r| r.event.clone()).collect();
    assert_eq!(ring, [1, 2, 2, 3].map(delivered).to_vec());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_in_one_delivered_report_trips_the_ledger_on_a_net_worker() {
    let mut builder = NetBuilder::new();
    let node = builder.add_node("planter", duplicate_in_one_report());
    let net = builder.start();
    net.inject(node.id(), poke());
    net.run_for(Duration::from_millis(50));
    let result = net.stop();
    assert_eq!(result.ledger_violations(), 1);
    assert!(result.node(node).subs.is_empty(), "the planter ran");
}
