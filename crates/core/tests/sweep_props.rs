//! Property tests for the SHB population sweep: for arbitrary slab
//! populations (idle / connected / parked mixes with arbitrary window
//! counters), `sweep_population` must report exactly what a naive
//! recount of the slab says, attribute exactly the non-zero window
//! deltas in slot order, and leave the counters drained (DESIGN.md §9).

use gryphon::broker::Shb;
use gryphon::config::BrokerConfig;
use gryphon_sim::sketch::{DIM_SUB_BYTES, DIM_SUB_LAG, DIM_SUB_NACKS};
use gryphon_sim::{NodeCtx, TimerKey};
use gryphon_storage::MemFactory;
use gryphon_types::{NetMsg, NodeId, SubscriberId, SubscriptionSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Captures `attribute` calls in arrival order; everything else is a
/// sink.
struct RecordingCtx {
    now_us: u64,
    rng: SmallRng,
    attributed: Vec<(&'static str, u64, u64)>,
}

impl RecordingCtx {
    fn at(now_us: u64) -> Self {
        RecordingCtx {
            now_us,
            rng: SmallRng::seed_from_u64(0),
            attributed: Vec::new(),
        }
    }
}

impl NodeCtx for RecordingCtx {
    fn now_us(&self) -> u64 {
        self.now_us
    }
    fn me(&self) -> NodeId {
        NodeId(1)
    }
    fn send(&mut self, _to: NodeId, _msg: NetMsg) {}
    fn set_timer(&mut self, _delay_us: u64, _key: TimerKey) {}
    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
    fn work(&mut self, _cost_us: u64) {}
    fn record(&mut self, _series: &str, _value: f64) {}
    fn count(&mut self, _counter: &str, _delta: f64) {}
    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        self.attributed.push((dim, entity, weight));
    }
}

/// One subscriber's generated shape: liveness ∈ {idle, connected,
/// parked} plus the window counters the sweep should drain.
#[derive(Debug, Clone, Copy)]
struct SubShape {
    liveness: u8,
    bytes: u64,
    nacks: u64,
    ticks: u64,
}

fn shapes() -> impl Strategy<Value = Vec<SubShape>> {
    prop::collection::vec(
        (0u8..3, 0u64..10_000, 0u64..5, 0u64..50).prop_map(|(liveness, bytes, nacks, ticks)| {
            SubShape {
                liveness,
                bytes,
                nacks,
                ticks,
            }
        }),
        1..24,
    )
}

const IDLE: u8 = 0;
const CONNECTED: u8 = 1;
const PARKED: u8 = 2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_matches_a_naive_slab_recount(shapes in shapes()) {
        let config = BrokerConfig::default();
        let mut shb = Shb::open(&MemFactory::new(), "prop");
        let mut ctx = RecordingCtx::at(1_000_000);

        // Build the population. Slot order is registration order, which
        // pins the attribution order the sweep must reproduce.
        for (i, s) in shapes.iter().enumerate() {
            let sub = SubscriberId(i as u64 + 1);
            shb.register_spec(sub, NodeId(9), Some(&SubscriptionSpec::new("class = 0")), false, false, &mut ctx)
                .expect("register");
            if s.liveness != IDLE {
                shb.connect(sub, NodeId(9), None, None, false, false, &HashMap::new(), None, &config, &mut ctx)
                    .expect("connect");
            }
            if s.liveness == PARKED {
                shb.disconnect(sub, ctx.now_us);
            }
        }
        // Plant the window counters directly — the sweep must not care
        // how they got there.
        for (_, st) in shb.table.iter_mut() {
            let s = shapes[st.sub.0 as usize - 1];
            st.stats.bytes_delivered = s.bytes;
            st.stats.nacks = s.nacks;
            st.stats.catchup_ticks = s.ticks;
        }

        let mut ctx = RecordingCtx::at(5_000_000);
        let summary = shb.sweep_population(&mut ctx);

        // Naive recount of the same generated population.
        let connected = shapes.iter().filter(|s| s.liveness == CONNECTED).count();
        let parked = shapes.iter().filter(|s| s.liveness == PARKED).count();
        prop_assert_eq!(summary.swept, shapes.len());
        prop_assert_eq!(summary.connected, connected);
        prop_assert_eq!(summary.parked, parked);
        prop_assert_eq!(
            summary.catchup_ticks,
            shapes.iter().map(|s| s.ticks).sum::<u64>()
        );

        // Attribution calls: lag for every connected slot (0 — all are
        // caught up), then the non-zero byte/nack deltas, in slot order.
        let mut expect = Vec::new();
        for (i, s) in shapes.iter().enumerate() {
            let sub = i as u64 + 1;
            if s.liveness == CONNECTED {
                expect.push((DIM_SUB_LAG, sub, 0));
            }
            if s.bytes > 0 {
                expect.push((DIM_SUB_BYTES, sub, s.bytes));
            }
            if s.nacks > 0 {
                expect.push((DIM_SUB_NACKS, sub, s.nacks));
            }
        }
        prop_assert_eq!(&ctx.attributed, &expect);

        // The window drained: a second sweep sees the same population
        // but zero deltas.
        let mut ctx2 = RecordingCtx::at(6_000_000);
        let again = shb.sweep_population(&mut ctx2);
        prop_assert_eq!(again.swept, summary.swept);
        prop_assert_eq!(again.connected, summary.connected);
        prop_assert_eq!(again.parked, summary.parked);
        prop_assert_eq!(again.catchup_ticks, 0, "counters must drain on sweep");
        let lag_only: Vec<_> = expect.iter().copied().filter(|&(d, _, _)| d == DIM_SUB_LAG).collect();
        prop_assert_eq!(&ctx2.attributed, &lag_only);
    }
}
