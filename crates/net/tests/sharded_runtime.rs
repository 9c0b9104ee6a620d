//! The broker pipeline sharded across worker threads by pubend.
//!
//! One *logical* broker backed by 1 vs 4 worker shards: shard `i` hosts
//! the pubends with `p % n == i` (matching the runtime's routing rule),
//! subscriber control traffic is broadcast so every shard registers the
//! subscription, and each shard serves deliveries for its own pubends.
//! Delivery semantics must be unchanged by sharding: per-pubend order
//! holds, no gaps, the delivered `_seq` sequence is contiguous from 0
//! for every subscriber (identical ground truth in both configurations,
//! modulo wall-clock run length), and no protocol watchdog fires.

use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_net::NetBuilder;
use gryphon_storage::MemFactory;
use gryphon_types::{PubendId, SubscriberId};
use std::time::{Duration, Instant};

const PUBENDS: u32 = 4;
const SUBS: u64 = 2;

/// Per-subscriber, per-pubend delivered `_seq` sequences.
type Deliveries = Vec<Vec<Vec<i64>>>;

fn run(shards: usize) -> Deliveries {
    let config = BrokerConfig {
        phb_commit_interval_us: 500,
        phb_commit_latency_us: 200,
        pfs_sync_interval_us: 1_000,
        pubend_silence_interval_us: 2_000,
        release_interval_us: 10_000,
        ..BrokerConfig::default()
    };
    let mut builder = NetBuilder::new();
    // Combined brokers (pubends + subscribers); shard i hosts the
    // pubends the runtime routes to it. Distinct broker ids keep the
    // per-shard storage namespaces apart.
    let broker_shards: Vec<Broker> = (0..shards)
        .map(|i| {
            let hosted: Vec<PubendId> = (0..PUBENDS)
                .filter(|p| *p as usize % shards == i)
                .map(PubendId)
                .collect();
            Broker::new(i as u32, Box::new(MemFactory::new()), config.clone())
                .hosting_pubends(hosted)
                .hosting_subscribers()
        })
        .collect();
    let broker = builder.add_sharded_node("broker", broker_shards);
    let mut subs = Vec::new();
    for s in 0..SUBS {
        subs.push(builder.add_node(
            &format!("sub{s}"),
            SubscriberClient::new(
                SubscriberId(s + 1),
                broker.id(),
                "class = 0",
                SubscriberConfig {
                    ack_interval_us: 5_000,
                    // No broker traffic flows until the publishers start
                    // (the constream is empty, so no silences either);
                    // keep the liveness probe from declaring a crash in
                    // that window.
                    probe_interval_us: 10_000_000,
                    collect: true,
                    ..SubscriberConfig::default()
                },
            ),
        ));
    }
    let mut publishers = Vec::new();
    for p in 0..PUBENDS {
        publishers.push(
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
            ),
        );
    }
    let net = builder.start();
    // Every subscriber's broadcast Connect must reach every shard
    // before the publishers start.
    let want_connects = (SUBS as usize * shards) as f64;
    let deadline = Instant::now() + Duration::from_millis(150);
    while net.counter("shb.connects") < want_connects && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        net.counter("shb.connects"),
        want_connects,
        "every shard must register every subscriber before publishing starts"
    );
    net.run_for(Duration::from_millis(700));
    let result = net.stop();
    assert_eq!(
        result.watchdog_violations(),
        0.0,
        "protocol watchdogs must stay silent under {shards} shards"
    );
    assert_eq!(
        result.metrics.counter(gryphon_sim::names::NET_DROPPED),
        0.0,
        "no node-to-node send may hit a full channel under {shards} shards"
    );
    let mut published = 0;
    for h in &publishers {
        published += result.node(*h).published();
    }
    assert!(published > 200, "publishers ran: {published}");
    let mut out = Vec::new();
    for h in &subs {
        let client = result.node(*h);
        assert_eq!(client.order_violations(), 0, "order under {shards} shards");
        assert_eq!(client.gaps_received(), 0, "gaps under {shards} shards");
        assert!(
            client.events_received() > 50,
            "delivery under {shards} shards: {} events",
            client.events_received()
        );
        let mut per_pubend = vec![Vec::new(); PUBENDS as usize];
        for r in client.received() {
            if r.kind == "event" {
                per_pubend[r.pubend.0 as usize].push(r.seq.expect("publisher stamps _seq"));
            }
        }
        out.push(per_pubend);
    }
    out
}

/// Checks that every per-pubend sequence is exactly `0, 1, 2, …` — the
/// subscriber saw the full ground-truth stream in publish order.
fn assert_contiguous(deliveries: &Deliveries, label: &str) {
    for (s, per_pubend) in deliveries.iter().enumerate() {
        for (p, seqs) in per_pubend.iter().enumerate() {
            assert!(
                !seqs.is_empty(),
                "{label}: sub{s} got nothing from pubend {p}"
            );
            for (i, &seq) in seqs.iter().enumerate() {
                assert_eq!(
                    seq, i as i64,
                    "{label}: sub{s} pubend {p} diverges from ground truth at position {i}"
                );
            }
        }
    }
}

#[test]
fn sharding_preserves_delivery_semantics() {
    let unsharded = run(1);
    assert_contiguous(&unsharded, "1 shard");
    let sharded = run(4);
    assert_contiguous(&sharded, "4 shards");
    // Both configurations delivered a prefix of the same ground-truth
    // sequence per (subscriber, pubend); only the wall-clock-dependent
    // lengths may differ.
    for s in 0..SUBS as usize {
        for p in 0..PUBENDS as usize {
            let n = unsharded[s][p].len().min(sharded[s][p].len());
            assert_eq!(
                unsharded[s][p][..n],
                sharded[s][p][..n],
                "sub{s} pubend {p}: sharded and unsharded histories diverge"
            );
        }
    }
}
