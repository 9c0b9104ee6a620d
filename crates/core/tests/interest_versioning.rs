//! Tests for interest-version causality: a new subscription must never
//! be started across ticks that upstream brokers filtered without its
//! filter — including through multi-level trees and around broker
//! restarts — and for its cost: interest travels as deltas parsed once
//! per hop, and removals change the parents' filters in place.

use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_sim::{Handle, Node, NodeCtx, Sim, TimerKey};
use gryphon_storage::MemFactory;
use gryphon_types::{
    AttrValue, ClientMsg, KnowledgePart, NetMsg, NodeId, PubendId, ServerMsg, SubscriberId,
    Timestamp,
};

fn attrs_for(seq: u64) -> gryphon_types::Attributes {
    let mut a = gryphon_types::Attributes::new();
    a.insert("class".into(), ((seq as i64) % 4).into());
    a
}

struct Tree {
    sim: Sim,
    phb: Handle<Broker>,
    shb: Handle<Broker>,
}

/// PHB → intermediate → SHB, one publisher at 200 ev/s.
fn tree(seed: u64) -> Tree {
    let config = BrokerConfig::default();
    let mut sim = Sim::new(seed);
    let phb = sim.add_typed_node(
        "phb",
        Broker::new(0, Box::new(MemFactory::new()), config.clone()).hosting_pubends([PubendId(0)]),
    );
    let mid = sim.add_typed_node(
        "mid",
        Broker::new(1, Box::new(MemFactory::new()), config.clone()),
    );
    let shb = sim.add_typed_node(
        "shb",
        Broker::new(2, Box::new(MemFactory::new()), config).hosting_subscribers(),
    );
    sim.node(phb).add_child(mid.id());
    sim.node(mid).set_parent(phb.id());
    sim.node(mid).add_child(shb.id());
    sim.node(shb).set_parent(mid.id());
    sim.connect(phb.id(), mid.id(), 1_000);
    sim.connect(mid.id(), shb.id(), 1_000);
    let publisher = sim.add_typed_node(
        "pub",
        PublisherClient::new(phb.id(), PubendId(0), 200.0).with_attrs(|seq, _| attrs_for(seq)),
    );
    sim.connect(publisher.id(), phb.id(), 500);
    Tree { sim, phb, shb }
}

/// A subscriber added mid-run through a 2-hop interest chain receives a
/// contiguous run from its (causally safe) start — no partial view of
/// ticks filtered before its filter propagated.
#[test]
fn late_subscription_through_two_hops_is_hole_free() {
    let mut t = tree(31);
    // Let the system run with NO subscriber: everything is downgraded to
    // silence at the PHB already (empty interest).
    t.sim.run_until(5_000_000);
    let sub = t.sim.add_typed_node(
        "late",
        SubscriberClient::new(
            SubscriberId(1),
            t.shb.id(),
            "class = 2",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(sub.id(), t.shb.id(), 500);
    t.sim.run_until(20_000_000);
    let client = t.sim.node_ref(sub);
    assert_eq!(client.order_violations(), 0);
    assert_eq!(client.gaps_received(), 0);
    let seqs: Vec<i64> = client
        .received()
        .iter()
        .filter(|r| r.kind == "event")
        .filter_map(|r| r.seq)
        .collect();
    assert!(seqs.len() > 500, "late subscriber stalled: {}", seqs.len());
    for (i, w) in seqs.windows(2).enumerate() {
        assert_eq!(
            w[1],
            w[0] + 4,
            "hole/dup at {i}: {:?}",
            &seqs[..(i + 2).min(seqs.len())]
        );
    }
    // The connect was parked until the interest chain confirmed.
    assert!(t.sim.metrics().counter("shb.parked_connects") >= 1.0);
}

/// Several subscribers joining in a staggered burst (each bumping the
/// interest version while earlier ones are still parked) all get
/// contiguous streams.
#[test]
fn burst_of_new_subscriptions_all_start_cleanly() {
    let mut t = tree(32);
    t.sim.run_until(3_000_000);
    let mut subs = Vec::new();
    for i in 0..8u64 {
        let sub = t.sim.add_typed_node(
            &format!("s{i}"),
            SubscriberClient::new(
                SubscriberId(i + 1),
                t.shb.id(),
                format!("class = {}", i % 4).as_str(),
                SubscriberConfig {
                    collect: true,
                    connect_at_us: i * 700, // staggered connects, sub-ms apart
                    ..SubscriberConfig::default()
                },
            ),
        );
        t.sim.connect(sub.id(), t.shb.id(), 500);
        subs.push(sub);
    }
    t.sim.run_until(15_000_000);
    for sub in subs {
        let client = t.sim.node_ref(sub);
        assert_eq!(client.order_violations(), 0);
        let seqs: Vec<i64> = client
            .received()
            .iter()
            .filter(|r| r.kind == "event")
            .filter_map(|r| r.seq)
            .collect();
        assert!(seqs.len() > 300, "{:?}: {}", sub.id(), seqs.len());
        assert!(
            seqs.windows(2).all(|w| w[1] == w[0] + 4),
            "{:?} got a hole: {seqs:?}",
            sub.id()
        );
    }
}

/// Remembers every `ConnectOk` a subscriber got: when, and where it
/// started the subscriber.
struct StartOf(SubscriberClient, Vec<(u64, Timestamp)>);

impl Node for StartOf {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        if let NetMsg::Server(ServerMsg::ConnectOk { start, .. }) = &msg {
            self.1.push((ctx.now_us(), start.get(PubendId(0))));
        }
        self.0.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        self.0.on_timer(key, ctx);
    }
}

/// `(ts, seq)` of every event a collecting subscriber received.
fn events(client: &SubscriberClient) -> Vec<(Timestamp, i64)> {
    client
        .received()
        .iter()
        .filter(|r| r.kind == "event")
        .filter_map(|r| Some((r.ts, r.seq?)))
        .collect()
}

/// A confirmation never overtakes knowledge batched under the older
/// interest. Knowledge filtered without the new subscription may still
/// be on the link when a confirmation goes out; if the confirmation
/// overtook it, the subscription would start below ticks that reach it
/// as silence. Per-link FIFO keeps it behind. Each new subscriber must
/// receive exactly the events a reference subscriber on another branch
/// saw after its start.
#[test]
fn confirmation_is_not_overtaken_by_batched_knowledge() {
    let mut t = tree(37);
    // The reference branch: a second SHB straight under the PHB, whose
    // subscribers hold every class from the start.
    let phb = t.phb.id();
    let side = t.sim.add_typed_node(
        "side",
        Broker::new(3, Box::new(MemFactory::new()), BrokerConfig::default()).hosting_subscribers(),
    );
    t.sim.node(side).set_parent(phb);
    t.sim.node(t.phb).add_child(side.id());
    t.sim.connect(phb, side.id(), 1_000);
    let reference: Vec<_> = (0..4u64)
        .map(|class| {
            let r = t.sim.add_typed_node(
                &format!("ref{class}"),
                SubscriberClient::new(
                    SubscriberId(100 + class),
                    side.id(),
                    format!("class = {class}").as_str(),
                    SubscriberConfig {
                        collect: true,
                        ..SubscriberConfig::default()
                    },
                ),
            );
            t.sim.connect(r.id(), side.id(), 500);
            r
        })
        .collect();
    t.sim.run_until(1_000_000);
    let mut subs = Vec::new();
    for class in 0..4u64 {
        let sub = t.sim.add_typed_node(
            &format!("s{class}"),
            StartOf(
                SubscriberClient::new(
                    SubscriberId(class + 1),
                    t.shb.id(),
                    format!("class = {class}").as_str(),
                    SubscriberConfig {
                        collect: true,
                        connect_at_us: class * 73_000,
                        ..SubscriberConfig::default()
                    },
                ),
                Vec::new(),
            ),
        );
        t.sim.connect(sub.id(), t.shb.id(), 500);
        subs.push(sub);
    }
    t.sim.run_until(5_000_000);
    for (class, sub) in subs.into_iter().enumerate() {
        let StartOf(client, oks) = t.sim.node_ref(sub);
        let start = oks.first().expect("connected").1;
        let got = events(client);
        let last = got.last().expect("events delivered").0;
        let want: Vec<_> = events(t.sim.node_ref(reference[class]))
            .into_iter()
            .filter(|&(ts, _)| ts > start && ts <= last)
            .collect();
        assert!(want.len() > 100, "class {class}: {}", want.len());
        assert!(
            got == want,
            "class {class} started at {start:?}: first event {:?}, expected {:?}",
            got.first(),
            want.first()
        );
    }
}

/// The SHB's uplink is cut from 1 s to 4 s.
const CUT_AT_US: u64 = 1_000_000;
const HEAL_AT_US: u64 = 4_000_000;

/// A first connect whose confirmation cannot arrive — the SHB's uplink
/// is cut — stays parked until the link is back and its interest is
/// confirmed, however often the client re-sends it: it attaches exactly
/// once, and from its start on it gets exactly the events a reference
/// subscriber on another branch gets. Attaching any earlier would start
/// it across ticks filtered upstream without its filter, and those reach
/// it as silence, not as a gap.
fn parked_connect_waits_out_a_cut_uplink(probe_interval_us: u64) {
    let mut t = tree(38);
    let phb = t.phb.id();
    let side = t.sim.add_typed_node(
        "side",
        Broker::new(3, Box::new(MemFactory::new()), BrokerConfig::default()).hosting_subscribers(),
    );
    t.sim.node(side).set_parent(phb);
    t.sim.node(t.phb).add_child(side.id());
    t.sim.connect(phb, side.id(), 1_000);
    let reference = t.sim.add_typed_node(
        "ref",
        SubscriberClient::new(
            SubscriberId(100),
            side.id(),
            "class = 2",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(reference.id(), side.id(), 500);
    t.sim.run_until(CUT_AT_US);
    let mid = NodeId(1);
    t.sim.disconnect(mid, t.shb.id());
    let late = t.sim.add_typed_node(
        "late",
        StartOf(
            SubscriberClient::new(
                SubscriberId(1),
                t.shb.id(),
                "class = 2",
                SubscriberConfig {
                    collect: true,
                    probe_interval_us,
                    ..SubscriberConfig::default()
                },
            ),
            Vec::new(),
        ),
    );
    t.sim.connect(late.id(), t.shb.id(), 500);
    t.sim.run_until(HEAL_AT_US);
    t.sim.connect(mid, t.shb.id(), 1_000);
    t.sim.run_until(12_000_000);
    // The reference parked too, at its own SHB; re-sent connects of the
    // late one did not park it again.
    assert_eq!(t.sim.metrics().counter("shb.parked_connects"), 2.0);
    let StartOf(client, oks) = t.sim.node_ref(late);
    let &[(ok_at_us, start)] = oks.as_slice() else {
        panic!("expected exactly one ConnectOk, got {oks:?}");
    };
    assert!(
        ok_at_us > HEAL_AT_US,
        "attached at {ok_at_us} µs, during the cut"
    );
    assert_eq!(client.order_violations(), 0);
    assert_eq!(client.gaps_received(), 0);
    let got = events(client);
    let last = got.last().expect("events after the link came back").0;
    let want: Vec<_> = events(t.sim.node_ref(reference))
        .into_iter()
        .filter(|&(ts, _)| ts > start && ts <= last)
        .collect();
    assert!(want.len() > 300, "{}", want.len());
    assert!(
        got == want,
        "started at {start:?}: first {:?}, expected {:?}",
        got.first(),
        want.first()
    );
    assert_eq!(t.sim.ledger_violations(), 0);
    assert_eq!(t.sim.watchdog_violations(), 0);
}

#[test]
fn parked_connect_waits_out_a_cut_uplink_at_the_default_probe() {
    parked_connect_waits_out_a_cut_uplink(SubscriberConfig::default().probe_interval_us);
}

/// Shorter than the cut: the client re-sends its connect every half
/// second while it is parked.
#[test]
fn parked_connect_waits_out_a_cut_uplink_through_resent_connects() {
    parked_connect_waits_out_a_cut_uplink(500_000);
}

/// An intermediate broker restart must not let stale interest filter a
/// newly joined subscription's events (children refresh their interest;
/// unknown children are forwarded unfiltered).
#[test]
fn intermediate_restart_does_not_poison_new_subscriptions() {
    let mut t = tree(33);
    // Warm subscriber so traffic flows end to end.
    let warm = t.sim.add_typed_node(
        "warm",
        SubscriberClient::new(
            SubscriberId(50),
            t.shb.id(),
            "class = 0",
            SubscriberConfig::default(),
        ),
    );
    t.sim.connect(warm.id(), t.shb.id(), 500);
    t.sim.run_until(4_000_000);
    // Crash the intermediate briefly; its interest tables evaporate.
    t.sim
        .schedule_crash(gryphon_types::NodeId(1), 4_000_000, 500_000);
    // A new subscription joins immediately after the restart, while the
    // intermediate's view of the world is still cold.
    let late = t.sim.add_typed_node(
        "late",
        SubscriberClient::new(
            SubscriberId(51),
            t.shb.id(),
            "class = 3",
            SubscriberConfig {
                collect: true,
                connect_at_us: 600_000,
                probe_interval_us: 1_000_000,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(late.id(), t.shb.id(), 500);
    t.sim.run_until(20_000_000);
    let client = t.sim.node_ref(late);
    assert_eq!(client.order_violations(), 0);
    let seqs: Vec<i64> = client
        .received()
        .iter()
        .filter(|r| r.kind == "event")
        .filter_map(|r| r.seq)
        .collect();
    assert!(seqs.len() > 400, "{}", seqs.len());
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 4),
        "hole after intermediate restart"
    );
    // And the warm subscriber survived the restart unharmed too.
    let warm = t.sim.node_ref(warm);
    assert_eq!(warm.order_violations(), 0);
    assert_eq!(warm.gaps_received(), 0);
}

/// Event `_seq` values a collecting subscriber received, in order.
fn event_seqs(client: &SubscriberClient) -> Vec<i64> {
    client
        .received()
        .iter()
        .filter(|r| r.kind == "event")
        .filter_map(|r| r.seq)
        .collect()
}

/// Registration is O(Δ) per hop and one round trip: 2 000 first
/// connects through PHB → intermediate → SHB each parse their filter
/// exactly once per hop, all of them attach within a second, and the
/// periodic interest refresh of already-applied versions parses
/// nothing.
#[test]
fn registration_parses_each_filter_once_per_hop() {
    const SUBS: u64 = 2_000;
    let mut t = tree(35);
    t.sim.run_until(500_000);
    let mut subs = Vec::new();
    for i in 0..SUBS {
        let sub = t.sim.add_typed_node(
            &format!("s{i}"),
            SubscriberClient::new(
                SubscriberId(i + 1),
                t.shb.id(),
                format!("class = {i}").as_str(),
                SubscriberConfig {
                    connect_at_us: i * 100, // 2 000 connects over 200 ms
                    ..SubscriberConfig::default()
                },
            ),
        );
        t.sim.connect(sub.id(), t.shb.id(), 500);
        subs.push(sub);
    }
    t.sim.run_until(1_500_000);
    for &sub in &subs {
        assert!(
            t.sim.node_ref(sub).is_connected(),
            "{:?} never attached",
            sub.id()
        );
    }
    let m = t.sim.metrics();
    assert_eq!(m.counter("shb.parked_connects"), SUBS as f64);
    // Two hops parse interest: the intermediate (from the SHB) and the
    // PHB (from the intermediate).
    let parsed = m.counter(gryphon_sim::names::IB_INTEREST_FILTERS_PARSED);
    assert_eq!(parsed, 2.0 * SUBS as f64);
    // Ten more release-timer refreshes (250 ms each) resend snapshots of
    // versions both parents already applied.
    t.sim.run_until(1_500_000 + 10 * 250_000);
    let m = t.sim.metrics();
    assert_eq!(
        m.counter(gryphon_sim::names::IB_INTEREST_FILTERS_PARSED),
        parsed,
        "a refresh of an applied version re-parsed filters"
    );
}

/// The root PHB crashes between two first connects. The later connect's
/// delta reaches a root that has forgotten the intermediate's interest,
/// so the root ignores it as a gap; the intermediate's refresh snapshot
/// heals the root, which then confirms at once. The later subscriber's
/// stream is hole-free.
#[test]
fn root_restart_between_first_connects_heals_by_snapshot() {
    let mut t = tree(34);
    let early = t.sim.add_typed_node(
        "early",
        SubscriberClient::new(
            SubscriberId(60),
            t.shb.id(),
            "class = 1",
            SubscriberConfig::default(),
        ),
    );
    t.sim.connect(early.id(), t.shb.id(), 500);
    t.sim.run_until(4_000_000);
    t.sim
        .schedule_crash(gryphon_types::NodeId(0), 4_000_000, 500_000);
    let late = t.sim.add_typed_node(
        "late",
        SubscriberClient::new(
            SubscriberId(61),
            t.shb.id(),
            "class = 3",
            SubscriberConfig {
                collect: true,
                connect_at_us: 600_000, // just after the root restarts
                probe_interval_us: 1_000_000,
                ..SubscriberConfig::default()
            },
        ),
    );
    t.sim.connect(late.id(), t.shb.id(), 500);
    t.sim.run_until(15_000_000);
    let client = t.sim.node_ref(late);
    assert_eq!(client.order_violations(), 0);
    assert_eq!(client.gaps_received(), 0);
    let seqs = event_seqs(client);
    assert!(seqs.len() > 400, "late subscriber stalled: {}", seqs.len());
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 4),
        "hole after the root restart: {seqs:?}"
    );
}

/// A transparent wire between a parent and a child broker that records
/// the class of every data tick the parent forwards down it, and when
/// the parent confirmed the child's interest on its own.
struct Tap {
    parent: NodeId,
    child: NodeId,
    /// `(virtual µs, class)` per forwarded data tick.
    data: Vec<(u64, i64)>,
    /// Virtual µs of each stamp-only knowledge message.
    confirms: Vec<u64>,
}

impl Node for Tap {
    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        if from != self.parent {
            ctx.send(self.parent, msg);
            return;
        }
        if let NetMsg::Knowledge(k) = &msg {
            if k.parts.is_empty() {
                self.confirms.push(ctx.now_us());
            }
            for part in &k.parts {
                if let KnowledgePart::Data(e) = part {
                    if let Some(AttrValue::Int(class)) = e.attr("class") {
                        self.data.push((ctx.now_us(), *class));
                    }
                }
            }
        }
        ctx.send(self.child, msg);
    }

    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

impl Tap {
    /// Classes forwarded as data in `[from_us, to_us)`.
    fn classes(&self, from_us: u64, to_us: u64) -> std::collections::BTreeSet<i64> {
        self.data
            .iter()
            .filter(|&&(at, _)| at >= from_us && at < to_us)
            .map(|&(_, class)| class)
            .collect()
    }

    /// Stamp-only confirmations in `[from_us, to_us)`.
    fn confirms(&self, from_us: u64, to_us: u64) -> usize {
        self.confirms
            .iter()
            .filter(|&&at| at >= from_us && at < to_us)
            .count()
    }
}

/// An unsubscribe removes its filter from the PHB's index in place: the
/// PHB silences exactly the events only that filter matched. A
/// re-subscribe under the same id with a different filter is honoured.
/// The PHB confirms each change at once, and only changes: the periodic
/// refresh of an applied version confirms nothing.
#[test]
fn unsubscribe_and_resubscribe_change_the_phb_filter_in_place() {
    let mut sim = Sim::new(36);
    let phb = sim.add_typed_node(
        "phb",
        Broker::new(0, Box::new(MemFactory::new()), BrokerConfig::default())
            .hosting_pubends([PubendId(0)]),
    );
    let tap_id = NodeId(1);
    let shb_id = NodeId(2);
    let tap = sim.add_typed_node(
        "tap",
        Tap {
            parent: phb.id(),
            child: shb_id,
            data: Vec::new(),
            confirms: Vec::new(),
        },
    );
    assert_eq!(tap.id(), tap_id);
    let shb = sim.add_typed_node(
        "shb",
        Broker::new(2, Box::new(MemFactory::new()), BrokerConfig::default()).hosting_subscribers(),
    );
    assert_eq!(shb.id(), shb_id);
    sim.node(phb).add_child(tap_id);
    sim.node(shb).set_parent(tap_id);
    sim.connect(phb.id(), tap_id, 500);
    sim.connect(tap_id, shb_id, 500);
    let publisher = sim.add_typed_node(
        "pub",
        PublisherClient::new(phb.id(), PubendId(0), 200.0).with_attrs(|seq, _| attrs_for(seq)),
    );
    sim.connect(publisher.id(), phb.id(), 500);
    let one = sim.add_typed_node(
        "one",
        SubscriberClient::new(
            SubscriberId(1),
            shb_id,
            "class = 1",
            SubscriberConfig::default(),
        ),
    );
    // Unsubscribed below: it must neither ack nor reconnect afterwards.
    let quiet = SubscriberConfig {
        ack_interval_us: 1_000_000_000,
        probe_interval_us: 1_000_000_000,
        ..SubscriberConfig::default()
    };
    let two = sim.add_typed_node(
        "two",
        SubscriberClient::new(SubscriberId(2), shb_id, "class = 2", quiet),
    );
    sim.connect(one.id(), shb_id, 500);
    sim.connect(two.id(), shb_id, 500);
    sim.run_until(3_000_000);
    let both = sim.node_ref(tap).classes(1_000_000, 3_000_000);
    assert_eq!(both, [1, 2].into(), "before the unsubscribe");
    assert_eq!(
        sim.node_ref(tap).confirms(0, 1_000_000),
        2,
        "one per connect"
    );
    assert_eq!(sim.node_ref(tap).confirms(1_000_000, 3_000_000), 0);

    sim.inject_from(
        3_000_000,
        shb_id,
        two.id(),
        NetMsg::Client(ClientMsg::Unsubscribe {
            sub: SubscriberId(2),
        }),
    );
    sim.run_until(6_000_000);
    let after = sim.node_ref(tap).classes(3_100_000, 6_000_000);
    assert_eq!(after, [1].into(), "after unsubscribing class 2");
    assert_eq!(sim.node_ref(tap).confirms(3_000_000, 3_010_000), 1);
    assert_eq!(sim.node_ref(tap).confirms(3_010_000, 6_000_000), 0);

    // The same id comes back with another filter.
    let again = sim.add_typed_node(
        "again",
        SubscriberClient::new(
            SubscriberId(2),
            shb_id,
            "class = 3",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        ),
    );
    sim.connect(again.id(), shb_id, 500);
    sim.run_until(10_000_000);
    let resubscribed = sim.node_ref(tap).classes(6_100_000, 10_000_000);
    assert_eq!(
        resubscribed,
        [1, 3].into(),
        "after re-subscribing as class 3"
    );
    assert_eq!(sim.node_ref(tap).confirms(6_000_000, 10_000_000), 1);
    let client = sim.node_ref(again);
    assert_eq!(client.order_violations(), 0);
    let seqs = event_seqs(client);
    assert!(seqs.len() > 150, "re-subscriber stalled: {}", seqs.len());
    assert!(seqs.iter().all(|s| s % 4 == 3), "old filter delivered");
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 4),
        "hole after re-subscribing: {seqs:?}"
    );
}
