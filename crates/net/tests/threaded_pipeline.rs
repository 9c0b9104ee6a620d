//! The full broker pipeline on real OS threads: the same state machines
//! the simulator drives, now under true concurrency.

use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_net::{storage_factory, NetBuilder};
use gryphon_storage::MemFactory;
use gryphon_types::{NodeId, PubendId, SubscriberId};
use std::time::{Duration, Instant};

#[test]
fn publish_to_delivery_over_threads() {
    // Fast timers so the wall-clock run stays short.
    let config = BrokerConfig {
        phb_commit_interval_us: 500,
        phb_commit_latency_us: 200,
        pfs_sync_interval_us: 1_000,
        pubend_silence_interval_us: 2_000,
        release_interval_us: 10_000,
        ..BrokerConfig::default()
    };
    // Ids are assigned in registration order: phb=0, shb=1, sub=2, pub=3.
    let mut builder = NetBuilder::new();
    // `storage_factory`: heap media by default; real files + real fsyncs
    // through the commit pipeline with GRYPHON_STORAGE_DIR set.
    let mut phb_node =
        Broker::new(0, storage_factory("tp-phb"), config.clone()).hosting_pubends([PubendId(0)]);
    phb_node.add_child(NodeId(1));
    let _phb = builder.add_node("phb", phb_node);
    let mut shb_node = Broker::new(1, storage_factory("tp-shb"), config).hosting_subscribers();
    shb_node.set_parent(NodeId(0));
    let shb = builder.add_node("shb", shb_node);
    let sub = builder.add_node(
        "sub",
        SubscriberClient::new(
            SubscriberId(1),
            shb.id(),
            "class = 0",
            SubscriberConfig {
                ack_interval_us: 5_000,
                probe_interval_us: 50_000,
                ..SubscriberConfig::default()
            },
        ),
    );
    let publisher = builder.add_node(
        "pub",
        PublisherClient::new(NodeId(0), PubendId(0), 2_000.0).with_attrs(|seq, _| {
            let mut a = gryphon_types::Attributes::new();
            a.insert("class".into(), ((seq % 2) as i64).into());
            a
        }),
    );
    let net = builder.start();
    net.run_for(Duration::from_millis(700));
    let result = net.stop();
    assert_eq!(result.watchdog_violations(), 0.0);
    assert_eq!(result.ledger_violations(), 0);
    let client = result.node(sub);
    let published = result.node(publisher).published();
    assert!(published > 500, "publisher ran: {published}");
    assert_eq!(
        client.order_violations(),
        0,
        "order must hold under threads"
    );
    assert_eq!(client.gaps_received(), 0);
    assert_eq!(
        result.metrics.counter(gryphon_sim::names::NET_DROPPED),
        0.0,
        "no node-to-node send may hit a full channel at this load"
    );
    assert!(
        client.events_received() > 100,
        "delivery across threads: {} events of {published} published",
        client.events_received()
    );
}

/// One combined broker (4 pubends, 2 subscribers) on one worker: every
/// subscriber's delivered `_seq` runs contiguous from 0 per pubend — the
/// full ground-truth stream in publish order — with no oracle violation
/// of either kind and no send refused by a full channel.
#[test]
fn combined_broker_delivers_every_pubend_contiguously() {
    const PUBENDS: u32 = 4;
    const SUBS: u64 = 2;
    let config = BrokerConfig {
        phb_commit_interval_us: 500,
        phb_commit_latency_us: 200,
        pfs_sync_interval_us: 1_000,
        pubend_silence_interval_us: 2_000,
        release_interval_us: 10_000,
        ..BrokerConfig::default()
    };
    let mut builder = NetBuilder::new();
    let broker = builder.add_node(
        "broker",
        Broker::new(0, Box::new(MemFactory::new()), config)
            .hosting_pubends((0..PUBENDS).map(PubendId))
            .hosting_subscribers(),
    );
    let subs: Vec<_> = (0..SUBS)
        .map(|s| {
            builder.add_node(
                &format!("sub{s}"),
                SubscriberClient::new(
                    SubscriberId(s + 1),
                    broker.id(),
                    "class = 0",
                    SubscriberConfig {
                        ack_interval_us: 5_000,
                        // No broker traffic flows until the publishers
                        // start (the constream is empty, so no silences
                        // either); keep the liveness probe from declaring
                        // a crash in that window.
                        probe_interval_us: 10_000_000,
                        collect: true,
                        ..SubscriberConfig::default()
                    },
                ),
            )
        })
        .collect();
    let publishers: Vec<_> = (0..PUBENDS)
        .map(|p| {
            builder.add_node(
                &format!("pub{p}"),
                PublisherClient::new(broker.id(), PubendId(p), 1_000.0)
                    // Start publishing only after subscribers had time to
                    // connect, so every delivery stream begins at seq 0.
                    .starting_at(200_000)
                    .with_attrs(|_, _| {
                        let mut a = gryphon_types::Attributes::new();
                        a.insert("class".into(), 0i64.into());
                        a
                    }),
            )
        })
        .collect();
    let net = builder.start();
    // Every subscriber's Connect must reach the broker before the
    // publishers start.
    let deadline = Instant::now() + Duration::from_millis(150);
    while net.counter("shb.connects") < SUBS as f64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        net.counter("shb.connects"),
        SUBS as f64,
        "the broker must register every subscriber before publishing starts"
    );
    net.run_for(Duration::from_millis(700));
    let result = net.stop();
    assert_eq!(result.watchdog_violations(), 0.0);
    assert_eq!(result.ledger_violations(), 0);
    assert_eq!(
        result.metrics.counter(gryphon_sim::names::NET_DROPPED),
        0.0,
        "no node-to-node send may hit a full channel at this load"
    );
    let published: u64 = publishers.iter().map(|h| result.node(*h).published()).sum();
    assert!(published > 200, "publishers ran: {published}");
    for (s, h) in subs.iter().enumerate() {
        let client = result.node(*h);
        assert_eq!(client.order_violations(), 0, "sub{s} order");
        assert_eq!(client.gaps_received(), 0, "sub{s} gaps");
        assert!(
            client.events_received() > 50,
            "sub{s} got {} events",
            client.events_received()
        );
        let mut per_pubend = vec![Vec::new(); PUBENDS as usize];
        for r in client.received() {
            if r.kind == "event" {
                per_pubend[r.pubend.0 as usize].push(r.seq.expect("publisher stamps _seq"));
            }
        }
        for (p, seqs) in per_pubend.iter().enumerate() {
            assert!(!seqs.is_empty(), "sub{s} got nothing from pubend {p}");
            for (i, &seq) in seqs.iter().enumerate() {
                assert_eq!(
                    seq, i as i64,
                    "sub{s} pubend {p} diverges from ground truth at position {i}"
                );
            }
        }
    }
}
