//! Unit tests for the SHB state machine, driven through a capturing
//! stub context (no simulator).

use super::shb::{CatchupNeeds, Shb};
use super::Broker;
use crate::config::{BrokerConfig, CT_COMMIT_BASE_US};
use gryphon_sim::{Node, NodeCtx, TimerKey};
use gryphon_storage::{Media, MediaFactory, MediaStats, MemFactory, StorageError};
use gryphon_streams::KnowledgeStream;
use gryphon_types::{
    CheckpointToken, DeliveryKind, Event, NetMsg, NodeId, PubendId, ServerMsg, SubscriberId,
    Timestamp,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Captures everything a node does to the outside world.
struct StubCtx {
    now_us: u64,
    sent: Vec<(NodeId, NetMsg)>,
    timers: Vec<(u64, TimerKey)>,
    rng: SmallRng,
    busy: u64,
    counts: HashMap<String, f64>,
}

impl StubCtx {
    fn new() -> Self {
        StubCtx {
            now_us: 0,
            sent: Vec::new(),
            timers: Vec::new(),
            rng: SmallRng::seed_from_u64(0),
            busy: 0,
            counts: HashMap::new(),
        }
    }

    /// Event deliveries sent to `client`, as `(pubend, kind, ts)`.
    fn deliveries(&self, client: NodeId) -> Vec<(PubendId, &'static str, u64)> {
        self.sent
            .iter()
            .filter_map(|(to, msg)| {
                if *to != client {
                    return None;
                }
                let NetMsg::Server(ServerMsg::Deliver { msg, .. }) = msg else {
                    return None;
                };
                let kind = match msg.kind {
                    DeliveryKind::Event(_) => "event",
                    DeliveryKind::Silence(_) => "silence",
                    DeliveryKind::Gap(_) => "gap",
                };
                Some((msg.pubend, kind, msg.ts().0))
            })
            .collect()
    }
}

impl NodeCtx for StubCtx {
    fn now_us(&self) -> u64 {
        self.now_us
    }
    fn me(&self) -> NodeId {
        NodeId(1)
    }
    fn send(&mut self, to: NodeId, msg: NetMsg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        self.timers.push((delay_us, key));
    }
    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
    fn work(&mut self, cost_us: u64) {
        self.busy += cost_us;
    }
    fn record(&mut self, _series: &str, _value: f64) {}
    fn count(&mut self, counter: &str, delta: f64) {
        *self.counts.entry(counter.to_owned()).or_default() += delta;
    }
}

/// A [`MemFactory`] whose media refuse every append once
/// [`FailingDisk::fail_appends`] is called (a full or failed disk).
#[derive(Clone, Default)]
struct FailingDisk {
    mem: MemFactory,
    failing: Arc<AtomicBool>,
}

impl FailingDisk {
    fn fail_appends(&self) {
        self.failing.store(true, Ordering::Relaxed);
    }
}

struct FailingMedia {
    inner: Box<dyn Media>,
    failing: Arc<AtomicBool>,
}

impl Media for FailingMedia {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        if self.failing.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("disk failed").into());
        }
        self.inner.append(data)
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.inner.read_at(offset, buf)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(len)
    }
    fn stats(&self) -> MediaStats {
        self.inner.stats()
    }
}

impl MediaFactory for FailingDisk {
    fn clone_box(&self) -> Box<dyn MediaFactory> {
        Box::new(self.clone())
    }
    fn open(&self, name: &str) -> Result<Box<dyn Media>, StorageError> {
        Ok(Box::new(FailingMedia {
            inner: self.mem.open(name)?,
            failing: Arc::clone(&self.failing),
        }))
    }
    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.mem.remove(name)
    }
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.mem.list()
    }
}

const P: PubendId = PubendId(0);
const CLIENT: NodeId = NodeId(9);

fn fresh_shb() -> (Shb, BrokerConfig, StubCtx) {
    let config = BrokerConfig::default();
    let shb = Shb::open(&MemFactory::new(), "t");
    (shb, config, StubCtx::new())
}

/// Builds a fully known cache over `[1, upto]`: `D` at the given ticks,
/// `S` everywhere else (data first — silence spans split around it, like
/// real broker caches).
fn cache_with(events: &[u64], upto: u64) -> (KnowledgeStream, Timestamp) {
    let mut ks = KnowledgeStream::new();
    for &t in events {
        let e = Event::builder(P)
            .attr("class", 0i64)
            .build_ref(Timestamp(t));
        assert!(ks.set_data(e));
    }
    ks.set_silence(Timestamp(1), Timestamp(upto));
    (ks, Timestamp(upto))
}

fn connect(
    shb: &mut Shb,
    ctx: &mut StubCtx,
    sub: u64,
    ct: Option<CheckpointToken>,
    config: &BrokerConfig,
) -> Vec<(PubendId, CatchupNeeds)> {
    shb.connect(
        SubscriberId(sub),
        CLIENT,
        ct,
        Some(gryphon_types::SubscriptionSpec::new("class = 0")),
        false,
        false,
        &HashMap::new(),
        None,
        config,
        ctx,
    )
    .expect("connect")
}

#[test]
fn constream_delivers_matching_events_and_records_pfs() {
    let (mut shb, config, mut ctx) = fresh_shb();
    connect(&mut shb, &mut ctx, 1, None, &config);
    let (cache, upto) = cache_with(&[5, 9], 12);
    let holes = shb.constream_advance(P, &cache, upto, &config, &mut ctx);
    assert!(holes.is_empty(), "fully known cache has no holes");
    let got = ctx.deliveries(CLIENT);
    let events: Vec<u64> = got
        .iter()
        .filter(|(_, k, _)| *k == "event")
        .map(|&(_, _, t)| t)
        .collect();
    assert_eq!(events, vec![5, 9]);
    // PFS recorded both matched ticks (the constream writes slot-keyed,
    // so the oracle reads slot-keyed too).
    shb.pfs.sync().unwrap();
    let slot = shb.slot_of_sub(SubscriberId(1)).expect("registered");
    let r = shb
        .pfs
        .read_slot(P, slot, SubscriberId(1), Timestamp::ZERO, Timestamp(12), 10)
        .unwrap();
    assert_eq!(r.q_ticks, vec![Timestamp(5), Timestamp(9)]);
    // The cursor advanced to the doubt horizon.
    assert_eq!(shb.con_entry(P).processed_to, Timestamp(12));
}

#[test]
fn constream_reports_holes_up_to_high_water_mark() {
    let (mut shb, config, mut ctx) = fresh_shb();
    let mut cache = KnowledgeStream::new();
    cache.set_silence(Timestamp(1), Timestamp(4));
    // tick 5..=6 unknown; 7..=10 known.
    cache.set_silence(Timestamp(7), Timestamp(10));
    let holes = shb.constream_advance(P, &cache, Timestamp(10), &config, &mut ctx);
    assert_eq!(holes, vec![(Timestamp(5), Timestamp(6))]);
    assert_eq!(shb.con_entry(P).processed_to, Timestamp(4));
}

#[test]
fn pfs_sync_advances_durable_latest_delivered() {
    let (mut shb, config, mut ctx) = fresh_shb();
    let (cache, upto) = cache_with(&[3], 8);
    connect(&mut shb, &mut ctx, 1, None, &config);
    shb.constream_advance(P, &cache, upto, &config, &mut ctx);
    assert_eq!(shb.latest_delivered(P), Timestamp::ZERO, "pre-sync");
    shb.pfs_sync(&mut ctx);
    assert_eq!(shb.latest_delivered(P), Timestamp(8));
}

#[test]
fn released_is_min_over_subscribers_and_latest_delivered() {
    let (mut shb, config, mut ctx) = fresh_shb();
    let (cache, upto) = cache_with(&[2, 6], 10);
    connect(&mut shb, &mut ctx, 1, None, &config);
    connect(&mut shb, &mut ctx, 2, None, &config);
    shb.constream_advance(P, &cache, upto, &config, &mut ctx);
    shb.pfs_sync(&mut ctx);
    // Acks: sub1 → 6, sub2 → 4.
    shb.ack(
        SubscriberId(1),
        &CheckpointToken::from_pairs([(P, Timestamp(6))]),
    );
    shb.ack(
        SubscriberId(2),
        &CheckpointToken::from_pairs([(P, Timestamp(4))]),
    );
    assert_eq!(shb.released_local(P), Timestamp(4));
    // A disconnected subscriber still holds release back.
    shb.disconnect(SubscriberId(2), ctx.now_us());
    assert_eq!(shb.released_local(P), Timestamp(4));
    // Until it unsubscribes entirely.
    shb.unsubscribe(SubscriberId(2));
    assert_eq!(shb.released_local(P), Timestamp(6));
}

#[test]
fn reconnect_with_checkpoint_creates_catchup_and_switches_over() {
    let (mut shb, config, mut ctx) = fresh_shb();
    connect(&mut shb, &mut ctx, 1, None, &config);
    let (cache, upto) = cache_with(&[5, 9, 15], 20);
    shb.constream_advance(P, &cache, upto, &config, &mut ctx);
    shb.pfs_sync(&mut ctx);
    shb.disconnect(SubscriberId(1), ctx.now_us());
    ctx.sent.clear();

    // Reconnect at ct=4: events 5, 9, 15 must be recovered.
    let plans = connect(
        &mut shb,
        &mut ctx,
        1,
        Some(CheckpointToken::from_pairs([(P, Timestamp(4))])),
        &config,
    );
    assert_eq!(plans.len(), 1);
    assert!(plans[0].1.want_read, "catchup starts with a PFS read");
    assert_eq!(shb.catchup_streams(), 1);

    // PFS read → apply → progress: the Q ticks become nack holes.
    // Interior paths carry the slab slot, resolved once at the edge.
    let slot = shb.slot_of_sub(SubscriberId(1)).expect("registered");
    let (visited, q_ticks, full) = shb.start_pfs_read(slot, P, 100).expect("read needed");
    assert!(visited > 0);
    assert_eq!(q_ticks, 3, "one matching Q tick per recovered event");
    assert!(full, "small history fits the buffer");
    assert!(shb.finish_pfs_read(slot, P));
    let needs = shb.catchup_progress(slot, P, &config, &mut ctx);
    assert!(!needs.switched);
    assert_eq!(
        needs.holes,
        vec![
            (Timestamp(5), Timestamp(5)),
            (Timestamp(9), Timestamp(9)),
            (Timestamp(15), Timestamp(15)),
        ],
        "exactly the matched ticks are nacked — the PFS optimization"
    );

    // Feed the recovered events (as the broker would from cache answers).
    for t in [5u64, 9, 15] {
        let e = Event::builder(P)
            .attr("class", 0i64)
            .build_ref(Timestamp(t));
        shb.distribute_to_catchup(P, &[gryphon_types::KnowledgePart::Data(e)]);
    }
    let needs = shb.catchup_progress(slot, P, &config, &mut ctx);
    assert!(needs.switched, "caught up to processed_to");
    assert_eq!(shb.catchup_streams(), 0);
    let events: Vec<u64> = ctx
        .deliveries(CLIENT)
        .into_iter()
        .filter(|(_, k, _)| *k == "event")
        .map(|(_, _, t)| t)
        .collect();
    assert_eq!(events, vec![5, 9, 15]);
}

#[test]
fn catchup_delivery_is_paced_by_acknowledgments() {
    let (mut shb, mut config, mut ctx) = fresh_shb();
    config.catchup_window_ticks = 10; // tiny flow-control window
    connect(&mut shb, &mut ctx, 1, None, &config);
    // 100 ticks of history, all silence except one event at 50.
    let (cache, upto) = cache_with(&[50], 100);
    shb.constream_advance(P, &cache, upto, &config, &mut ctx);
    shb.pfs_sync(&mut ctx);
    shb.disconnect(SubscriberId(1), ctx.now_us());
    ctx.sent.clear();
    connect(
        &mut shb,
        &mut ctx,
        1,
        Some(CheckpointToken::from_pairs([(P, Timestamp(1))])),
        &config,
    );
    // Give the stream full knowledge of the whole span.
    let e = Event::builder(P)
        .attr("class", 0i64)
        .build_ref(Timestamp(50));
    shb.distribute_to_catchup(
        P,
        &[
            gryphon_types::KnowledgePart::Silence {
                from: Timestamp(2),
                to: Timestamp(49),
            },
            gryphon_types::KnowledgePart::Data(e),
            gryphon_types::KnowledgePart::Silence {
                from: Timestamp(51),
                to: Timestamp(100),
            },
        ],
    );
    let slot = shb.slot_of_sub(SubscriberId(1)).expect("registered");
    let needs = shb.catchup_progress(slot, P, &config, &mut ctx);
    assert!(!needs.switched, "flow control must hold delivery back");
    // Nothing beyond acked(1) + window(10) was delivered.
    let max_ts = ctx
        .deliveries(CLIENT)
        .into_iter()
        .map(|(_, _, t)| t)
        .max()
        .unwrap_or(0);
    assert!(max_ts <= 11, "delivered past the pace window: {max_ts}");
    // Acknowledge: the window slides and delivery completes.
    shb.ack(
        SubscriberId(1),
        &CheckpointToken::from_pairs([(P, Timestamp(95))]),
    );
    let needs = shb.catchup_progress(slot, P, &config, &mut ctx);
    assert!(needs.switched);
    let events: Vec<u64> = ctx
        .deliveries(CLIENT)
        .into_iter()
        .filter(|(_, k, _)| *k == "event")
        .map(|(_, _, t)| t)
        .collect();
    assert_eq!(events, vec![50]);
}

#[test]
fn gated_subscriber_serializes_on_commit_workers() {
    let (mut shb, config, mut ctx) = fresh_shb();
    shb.connect(
        SubscriberId(1),
        CLIENT,
        None,
        Some(gryphon_types::SubscriptionSpec::new("class = 0")),
        true, // broker_ct
        true, // auto_ack ⇒ gated
        &HashMap::new(),
        None,
        &config,
        &mut ctx,
    )
    .unwrap();
    let (cache, upto) = cache_with(&[3, 5, 7], 10);
    shb.constream_advance(P, &cache, upto, &config, &mut ctx);
    // Only the first event may be in flight.
    let events: Vec<u64> = ctx
        .deliveries(CLIENT)
        .into_iter()
        .filter(|(_, k, _)| *k == "event")
        .map(|(_, _, t)| t)
        .collect();
    assert_eq!(events, vec![3], "gated: one un-acked delivery at a time");
    // Ack + commit cycle releases the next one.
    let w = shb
        .ack(
            SubscriberId(1),
            &CheckpointToken::from_pairs([(P, Timestamp(3))]),
        )
        .expect("worker should start");
    let dur = shb.ct_commit_start(w).expect("commit batch");
    assert!(dur >= CT_COMMIT_BASE_US);
    shb.ct_commit_done(w, &mut ctx);
    let events: Vec<u64> = ctx
        .deliveries(CLIENT)
        .into_iter()
        .filter(|(_, k, _)| *k == "event")
        .map(|(_, _, t)| t)
        .collect();
    assert_eq!(events, vec![3, 5]);
}

#[test]
fn post_restart_resumes_from_durable_cursor() {
    let factory = MemFactory::new();
    let config = BrokerConfig::default();
    let mut ctx = StubCtx::new();
    {
        let mut shb = Shb::open(&factory, "t");
        shb.connect(
            SubscriberId(1),
            CLIENT,
            None,
            Some(gryphon_types::SubscriptionSpec::new("class = 0")),
            false,
            false,
            &HashMap::new(),
            None,
            &config,
            &mut ctx,
        )
        .unwrap();
        let (cache, upto) = cache_with(&[4, 8], 10);
        shb.constream_advance(P, &cache, upto, &config, &mut ctx);
        shb.pfs_sync(&mut ctx);
        shb.ack(
            SubscriberId(1),
            &CheckpointToken::from_pairs([(P, Timestamp(8))]),
        );
        shb.meta_persist(&mut ctx);
    } // crash
    let mut shb = Shb::open(&factory, "t");
    shb.post_restart();
    assert_eq!(shb.latest_delivered(P), Timestamp(10));
    assert_eq!(shb.con_entry(P).processed_to, Timestamp(10));
    assert_eq!(shb.released_local(P), Timestamp(8));
    assert_eq!(shb.sub_count(), 1, "subscription survived");
    assert_eq!(shb.connected_count(), 0, "connections did not");
    // The PFS chains survived too.
    let r = shb
        .pfs
        .read(P, SubscriberId(1), Timestamp::ZERO, Timestamp(10), 10)
        .unwrap();
    assert_eq!(r.q_ticks, vec![Timestamp(4), Timestamp(8)]);
}

#[test]
fn teardown_frees_released_state_for_dead_pairs() {
    let (mut shb, config, mut ctx) = fresh_shb();
    let (cache, upto) = cache_with(&[2, 6], 10);
    connect(&mut shb, &mut ctx, 1, None, &config);
    connect(&mut shb, &mut ctx, 2, None, &config);
    shb.constream_advance(P, &cache, upto, &config, &mut ctx);
    shb.pfs_sync(&mut ctx);
    shb.ack(
        SubscriberId(1),
        &CheckpointToken::from_pairs([(P, Timestamp(9))]),
    );
    shb.ack(
        SubscriberId(2),
        &CheckpointToken::from_pairs([(P, Timestamp(3))]),
    );
    assert_eq!(shb.released_local(P), Timestamp(3));
    shb.unsubscribe(SubscriberId(2));
    // The dead (sub 2, P) pair must not hold release back...
    assert_eq!(shb.released_local(P), Timestamp(9));
    // ...and a straggler ack for it must not resurrect the pair (the
    // pre-slab `released` map leaked exactly this way).
    assert_eq!(
        shb.ack(
            SubscriberId(2),
            &CheckpointToken::from_pairs([(P, Timestamp(4))])
        ),
        None
    );
    assert_eq!(shb.released_local(P), Timestamp(9));
    assert_eq!(shb.sub_count(), 1);
    // Nor does the durable table keep rel/ rows for the dead pair: a
    // reopened SHB sees only sub 1's cursor.
    shb.meta_persist(&mut ctx);
    assert!(shb.meta.with(|m| m.iter_prefix("rel/2/").next().is_none()));
}

#[test]
fn disconnect_parks_catchup_streams_and_reconnect_drains_them() {
    let (mut shb, config, mut ctx) = fresh_shb();
    connect(&mut shb, &mut ctx, 1, None, &config);
    let (cache, upto) = cache_with(&[5, 9], 20);
    shb.constream_advance(P, &cache, upto, &config, &mut ctx);
    shb.pfs_sync(&mut ctx);
    shb.disconnect(SubscriberId(1), ctx.now_us());
    // Reconnect mid-catchup, then disconnect with the stream still open:
    // it must demote to a compact parked record, not a live stream.
    connect(
        &mut shb,
        &mut ctx,
        1,
        Some(CheckpointToken::from_pairs([(P, Timestamp(4))])),
        &config,
    );
    assert_eq!(shb.catchup_streams(), 1);
    shb.disconnect(SubscriberId(1), ctx.now_us());
    assert_eq!(shb.catchup_streams(), 0, "no live stream while idle");
    assert_eq!(shb.parked_streams(), 1, "parked record kept instead");
    // Reconnect rehydrates from the durable checkpoint protocol and
    // drains the parked record.
    connect(
        &mut shb,
        &mut ctx,
        1,
        Some(CheckpointToken::from_pairs([(P, Timestamp(4))])),
        &config,
    );
    assert_eq!(shb.parked_streams(), 0);
    assert_eq!(shb.catchup_streams(), 1);
}

#[test]
fn client_silence_advances_idle_subscribers() {
    let (mut shb, config, mut ctx) = fresh_shb();
    connect(&mut shb, &mut ctx, 1, None, &config);
    let mut cache = KnowledgeStream::new();
    cache.set_silence(Timestamp(1), Timestamp(100));
    shb.constream_advance(P, &cache, Timestamp(100), &config, &mut ctx);
    ctx.sent.clear();
    shb.client_silence(&mut ctx);
    let got = ctx.deliveries(CLIENT);
    assert_eq!(got, vec![(P, "silence", 100)]);
    // Idempotent until the cursor moves again.
    ctx.sent.clear();
    shb.client_silence(&mut ctx);
    assert!(ctx.deliveries(CLIENT).is_empty());
}

#[test]
fn failing_pfs_chop_is_counted_by_the_release_timer() {
    let disk = FailingDisk::default();
    let config = BrokerConfig::default();
    let mut broker = Broker::new(1, Box::new(disk.clone()), config.clone()).hosting_subscribers();
    let mut ctx = StubCtx::new();
    broker.on_start(&mut ctx);
    let ack = |broker: &mut Broker, ts: u64| {
        let shb = broker.shb_mut().expect("SHB role");
        shb.ack(
            SubscriberId(1),
            &CheckpointToken::from_pairs([(P, Timestamp(ts))]),
        );
        assert_eq!(shb.released_local(P), Timestamp(ts));
    };
    {
        let shb = broker.shb_mut().expect("SHB role");
        connect(shb, &mut ctx, 1, None, &config);
        let (cache, upto) = cache_with(&[2, 6], 10);
        shb.constream_advance(P, &cache, upto, &config, &mut ctx);
        shb.pfs_sync(&mut ctx);
    }
    broker.pipeline_mut(P);

    // A healthy disk: the release timer chops the PFS below 4.
    ack(&mut broker, 4);
    broker.on_release_timer(&mut ctx);
    assert_eq!(ctx.counts.get("shb.chop_err"), None);

    // The disk fails: the next chop's frame cannot be written.
    disk.fail_appends();
    ack(&mut broker, 8);
    broker.on_release_timer(&mut ctx);
    assert_eq!(ctx.counts.get("shb.chop_err"), Some(&1.0));
}
