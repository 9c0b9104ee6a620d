//! §5 result 1 — end-to-end latency over a 5-hop broker network.
//!
//! Paper: "The end-to-end event latency for a 5 hop broker network is
//! 50 ms, of which 44 ms is due to event logging at the PHB. Since our
//! system logs an event only once, the end-to-end latency is low."
//!
//! We run a 5-broker chain (PHB → 3 intermediates → SHB) and compare with
//! the store-and-forward baseline, where *every* hop logs durably before
//! forwarding — the design the paper argues against.

use crate::report::{Report, Table};
use crate::topology::RunOptions;
use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_baseline::{SfConfig, SfSubscriber, StoreForwardBroker};
use gryphon_sim::Sim;
use gryphon_storage::MemFactory;
use gryphon_types::{PubendId, SubscriberId};

fn gryphon_chain_latency(run_us: u64, opts: &RunOptions) -> (f64, u64, Sim) {
    let mut sim = Sim::new(11);
    opts.arm(&mut sim);
    let config = BrokerConfig::default();
    let phb = sim.add_typed_node(
        "phb",
        Broker::new(0, Box::new(MemFactory::new()), config.clone()).hosting_pubends([PubendId(0)]),
    );
    let mut prev = phb;
    let mut brokers = vec![phb];
    for i in 0..3 {
        let mid = sim.add_typed_node(
            &format!("mid{i}"),
            Broker::new(1 + i, Box::new(MemFactory::new()), config.clone()),
        );
        sim.node(prev).add_child(mid.id());
        sim.node(mid).set_parent(prev.id());
        sim.connect(prev.id(), mid.id(), 1_000);
        brokers.push(mid);
        prev = mid;
    }
    let shb = sim.add_typed_node(
        "shb",
        Broker::new(4, Box::new(MemFactory::new()), config).hosting_subscribers(),
    );
    sim.node(prev).add_child(shb.id());
    sim.node(shb).set_parent(prev.id());
    sim.connect(prev.id(), shb.id(), 1_000);
    let sub = sim.add_typed_node(
        "sub",
        SubscriberClient::new(
            SubscriberId(1),
            shb.id(),
            "class = 0",
            SubscriberConfig {
                collect: true,
                ..SubscriberConfig::default()
            },
        ),
    );
    sim.connect(sub.id(), shb.id(), 500);
    let publisher = sim.add_typed_node(
        "pub",
        PublisherClient::new(phb.id(), PubendId(0), 50.0).with_attrs(|_, _| {
            let mut a = gryphon_types::Attributes::new();
            a.insert("class".into(), 0i64.into());
            a
        }),
    );
    sim.connect(publisher.id(), phb.id(), 500);
    sim.run_until(run_us);
    let mean = sim.metrics().mean("client.latency_ms").unwrap_or(f64::NAN);
    let events = sim.node_ref(sub).events_received();
    (mean, events, sim)
}

fn baseline_chain_latency(run_us: u64) -> (f64, u64) {
    let mut sim = Sim::new(12);
    let cfg = SfConfig::default(); // same disk model per hop
    let mut hops = Vec::new();
    for i in 0..5 {
        let h = sim.add_typed_node(&format!("hop{i}"), StoreForwardBroker::new(cfg));
        hops.push(h);
    }
    for w in hops.windows(2) {
        let (a, b) = (w[0], w[1]);
        sim.node(a).set_next_hop(b.id());
        sim.connect(a.id(), b.id(), 1_000);
    }
    let consumer = sim.add_typed_node("consumer", SfSubscriber::new());
    sim.node(hops[4])
        .add_subscriber(SubscriberId(1), consumer.id());
    sim.connect(hops[4].id(), consumer.id(), 500);
    let publisher =
        sim.add_typed_node("pub", PublisherClient::new(hops[0].id(), PubendId(0), 50.0));
    sim.connect(publisher.id(), hops[0].id(), 500);
    sim.run_until(run_us);
    let c = sim.node_ref(consumer);
    (c.mean_latency_ms(), c.events)
}

/// Runs the latency experiment.
pub fn run(opts: &RunOptions) -> Report {
    let run_us = if opts.quick { 5_000_000 } else { 20_000_000 };
    let config = BrokerConfig::default();
    let logging_ms =
        (config.phb_commit_latency_us + config.phb_commit_interval_us / 2) as f64 / 1_000.0;

    let (gry_ms, gry_events, gry_sim) = gryphon_chain_latency(run_us, opts);
    let (sf_ms, sf_events) = baseline_chain_latency(run_us);

    let mut report = Report::new("latency");
    let mut t = Table::new(
        "End-to-end latency, 5-hop network (paper: 50 ms total, 44 ms PHB logging)",
        &[
            "system",
            "mean latency (ms)",
            "logging component (ms)",
            "events measured",
        ],
    );
    t.row(&[
        "gryphon (log-once at PHB)".into(),
        format!("{gry_ms:.1}"),
        format!("{logging_ms:.1}"),
        gry_events.to_string(),
    ]);
    t.row(&[
        "store-and-forward (log every hop)".into(),
        format!("{sf_ms:.1}"),
        format!("{:.1} (×5 hops)", logging_ms * 5.0),
        sf_events.to_string(),
    ]);
    report.table(t);
    report.note(format!(
        "paper shape: logging dominates end-to-end latency ({:.0}% here, 88% in the paper); \
         store-and-forward pays it at every hop (×{:.1} total latency here)",
        logging_ms / gry_ms * 100.0,
        sf_ms / gry_ms
    ));
    report.attach_metrics(gry_sim.metrics());
    if let Some(t) = gry_sim.telemetry() {
        report.attach_telemetry(t.clone());
    }
    report.attach_trace(
        gry_sim
            .trace_records()
            .map(|r| r.render(gry_sim.node_name(r.node)))
            .collect(),
    );
    report
}
