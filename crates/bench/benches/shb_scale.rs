//! SHB slab scale bench (DESIGN.md §15, `BENCH_shb_scale.json`).
//!
//! Direct-drives one [`Shb`] (no simulator) holding a large *idle*
//! durable-subscription population and times the three hot paths the
//! slab refactor must keep independent of that population:
//!
//! * `deliver_steady/N` — one fresh constream tick: knowledge ingest →
//!   slab-slot matching → PFS write → delivery to the small connected
//!   fraction, while `N` idle subscribers sit in the slab;
//! * `park_rehydrate/N` — one disconnect/reconnect cycle of a
//!   mid-catchup subscriber: the open stream parks into a compact
//!   record and rehydrates on the next connect;
//! * `churn_recycle/N` — one unsubscribe + re-register pair: slab slot
//!   free/reuse (generation bump) plus the matching-index update.
//!
//! Comparing the two population sizes is the point: per-iteration cost
//! must stay flat as the idle mass grows 10×. The perf gate holds each
//! series against the checked-in baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gryphon::broker::Shb;
use gryphon::config::BrokerConfig;
use gryphon_sim::{NodeCtx, TimerKey};
use gryphon_storage::MemFactory;
use gryphon_streams::KnowledgeStream;
use gryphon_types::{
    CheckpointToken, Event, NetMsg, NodeId, PubendId, SubscriberId, SubscriptionSpec, Timestamp,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

const P: PubendId = PubendId(0);
const CLIENT: NodeId = NodeId(9);
const CLASSES: u64 = 16;
/// Connected fraction receiving the steady-state traffic.
const CONNECTED: u64 = 64;

struct StubCtx {
    sent: u64,
    rng: SmallRng,
}

impl NodeCtx for StubCtx {
    fn now_us(&self) -> u64 {
        0
    }
    fn me(&self) -> NodeId {
        NodeId(1)
    }
    fn send(&mut self, _to: NodeId, _msg: NetMsg) {
        self.sent += 1;
    }
    fn set_timer(&mut self, _delay_us: u64, _key: TimerKey) {}
    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
    fn work(&mut self, _cost_us: u64) {}
    fn record(&mut self, _series: &str, _value: f64) {}
    fn count(&mut self, _counter: &str, _delta: f64) {}
}

fn connect_one(
    shb: &mut Shb,
    sub: SubscriberId,
    ct: Option<CheckpointToken>,
    config: &BrokerConfig,
    ctx: &mut StubCtx,
) {
    shb.connect(
        sub,
        CLIENT,
        ct,
        None,
        false,
        false,
        &HashMap::new(),
        None,
        config,
        ctx,
    )
    .expect("registered subscription must connect");
}

fn bench_shb_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("shb_scale");
    // Long windows on purpose: churn and delivery both commit to the
    // durable meta registry, whose WAL compacts (O(population)) every
    // ~13k commits. A 50 ms window catches 0-or-1 compactions and turns
    // the number bimodal; 1 s amortizes enough of them (at 100k subs a
    // single compaction snapshots the whole registry) to keep the mean
    // well inside the perf gate's 2x slack run-to-run.
    group.measurement_time(std::time::Duration::from_secs(1));
    for &n in &[10_000u64, 100_000] {
        let config = BrokerConfig::default();
        let mut ctx = StubCtx {
            sent: 0,
            rng: SmallRng::seed_from_u64(0),
        };
        // Two filter families: the connected fraction subscribes to the
        // traffic classes; the idle mass subscribes to classes the
        // traffic never publishes. Idle subscribers therefore cost
        // nothing through matching — the bench isolates the slab's own
        // contribution to the hot paths (flat across n is the claim).
        let specs_hot: Vec<SubscriptionSpec> = (0..CLASSES)
            .map(|k| SubscriptionSpec::new(format!("class = {k}")))
            .collect();
        let specs_idle: Vec<SubscriptionSpec> = (0..64u64)
            .map(|k| SubscriptionSpec::new(format!("class = {}", 1_000 + k)))
            .collect();
        let spec_for = |i: u64| {
            if i < CONNECTED {
                &specs_hot[(i % CLASSES) as usize]
            } else {
                &specs_idle[(i % 64) as usize]
            }
        };

        // The idle mass: n durable subscriptions, CONNECTED of them live.
        let mut shb = Shb::open(&MemFactory::new(), "scale");
        for i in 0..n {
            shb.register_spec(
                SubscriberId(i + 1),
                CLIENT,
                Some(spec_for(i)),
                false,
                false,
                &mut ctx,
            )
            .expect("register");
        }
        for i in 0..CONNECTED {
            connect_one(&mut shb, SubscriberId(i + 1), None, &config, &mut ctx);
        }

        // Steady-state delivery: each iteration appends one event to the
        // cache and advances the constream through it — ingest, match
        // (CONNECTED/CLASSES hits), PFS write, deliver. The idle slab
        // population must not appear in this cost.
        let mut cache = KnowledgeStream::new();
        let mut tick = 0u64;
        let advance_tick =
            |shb: &mut Shb, cache: &mut KnowledgeStream, tick: u64, ctx: &mut StubCtx| {
                let e = Event::builder(P)
                    .attr("class", (tick % CLASSES) as i64)
                    .build_ref(Timestamp(tick));
                assert!(cache.set_data(e));
                shb.constream_advance(P, cache, Timestamp(tick), &config, ctx);
                // Steady state trims the consumed prefix, exactly as the
                // broker's cache window does — the stream stays O(window).
                cache.advance_base(Timestamp(tick.saturating_sub(64)));
            };
        // Warm explicitly: the stub calibrates its batch size off the
        // first call, and the first ticks grow buffers / fault caches.
        for _ in 0..256 {
            tick += 1;
            advance_tick(&mut shb, &mut cache, tick, &mut ctx);
        }
        group.bench_with_input(BenchmarkId::new("deliver_steady", n), &n, |b, _| {
            b.iter(|| {
                tick += 1;
                advance_tick(&mut shb, &mut cache, tick, &mut ctx);
                std::hint::black_box(shb.delivered)
            });
        });
        assert_eq!(
            shb.delivered,
            tick * (CONNECTED / CLASSES),
            "steady traffic must reach every connected matching subscriber"
        );

        // Park/rehydrate: a subscriber mid-catchup (old checkpoint, the
        // constream is well past it) disconnects and reconnects. The
        // disconnect demotes the open stream to a parked record; the
        // reconnect rehydrates it.
        let storm_sub = SubscriberId(CONNECTED + 100);
        let ct = {
            let mut ct = CheckpointToken::new();
            ct.advance(P, Timestamp::ZERO);
            ct
        };
        connect_one(&mut shb, storm_sub, Some(ct.clone()), &config, &mut ctx);
        assert_eq!(shb.catchup_streams(), 1, "old checkpoint must open catchup");
        group.bench_with_input(BenchmarkId::new("park_rehydrate", n), &n, |b, _| {
            b.iter(|| {
                shb.disconnect(storm_sub, 0);
                connect_one(&mut shb, storm_sub, Some(ct.clone()), &config, &mut ctx);
                // NB: not `parked_streams()` — that inspector is O(slab)
                // and would drown the cycle under test.
                std::hint::black_box(shb.catchup_streams())
            });
        });
        shb.disconnect(storm_sub, 0);
        assert_eq!(shb.parked_streams(), 1, "cycle must end parked");

        // Churn: recycle slab slots in the idle region — unsubscribe
        // frees the slot (generation bump), re-register reuses it and
        // rebuilds the matching-index entry.
        let churn_base = CONNECTED + 200;
        let mut k = 0u64;
        let churn_one = |shb: &mut Shb, k: u64, ctx: &mut StubCtx| {
            let i = churn_base + (k % 1_000);
            let sub = SubscriberId(i + 1);
            shb.unsubscribe(sub);
            shb.register_spec(sub, CLIENT, Some(spec_for(i)), false, false, ctx)
                .expect("re-register");
        };
        for _ in 0..256 {
            churn_one(&mut shb, k, &mut ctx);
            k += 1;
        }
        group.bench_with_input(BenchmarkId::new("churn_recycle", n), &n, |b, _| {
            b.iter(|| {
                churn_one(&mut shb, k, &mut ctx);
                k += 1;
                std::hint::black_box(shb.sub_count())
            });
        });
        assert_eq!(shb.sub_count() as u64, n, "churn preserves the population");
    }
    group.finish();
}

criterion_group!(benches, bench_shb_scale);
criterion_main!(benches);
