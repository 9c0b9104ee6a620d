//! The full broker pipeline on real OS threads: the same state machines
//! the simulator drives, now under true concurrency.

use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_net::{storage_factory, NetBuilder};
use gryphon_types::{NodeId, PubendId, SubscriberId};
use std::time::Duration;

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
    // through the group-commit pipeline with GRYPHON_STORAGE_DIR set.
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
