//! Proves the SHB constream deliver path allocates nothing per event
//! once warm (ISSUE 7 / DESIGN.md §15).
//!
//! The path under test is the full steady-state pipeline for connected
//! subscribers: knowledge ingest → matching (slab slots) → PFS write →
//! slab indexing → delivery send. After warm-up, every buffer it needs
//! is reusable — the event buffer (`Arc` clones), the match-slot buffer,
//! the PFS scratch encodings, the cached gauge-name strings — so a
//! measured burst must leave the process-wide allocation counter
//! untouched.
//!
//! The burst re-processes a span whose PFS records are already durable
//! (exactly the crash-recovery replay the constream performs), so the
//! PFS write is an idempotent no-op and deliveries still flow.
//!
//! The counter only counts while the measuring thread has set its
//! thread-local `MEASURING` flag: the allocator is process-wide, and
//! libtest's own threads allocate whenever they like.

use gryphon::broker::Shb;
use gryphon::config::BrokerConfig;
use gryphon_sim::{NodeCtx, TimerKey};
use gryphon_storage::MemFactory;
use gryphon_streams::KnowledgeStream;
use gryphon_types::{Event, NetMsg, NodeId, PubendId, SubscriberId, Timestamp};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by the measuring thread around the measured burst.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `burst` with this thread's allocations counted; returns how many
/// it made.
fn allocations_in(burst: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    MEASURING.with(|m| m.set(true));
    burst();
    MEASURING.with(|m| m.set(false));
    ALLOCS.load(Ordering::SeqCst) - before
}

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter update has no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const P: PubendId = PubendId(0);
const CLIENT: NodeId = NodeId(9);

struct StubCtx {
    sent: Vec<(NodeId, NetMsg)>,
    rng: SmallRng,
}

impl NodeCtx for StubCtx {
    fn now_us(&self) -> u64 {
        0
    }
    fn me(&self) -> NodeId {
        NodeId(1)
    }
    fn send(&mut self, to: NodeId, msg: NetMsg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _delay_us: u64, _key: TimerKey) {}
    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
    fn work(&mut self, _cost_us: u64) {}
    fn record(&mut self, _series: &str, _value: f64) {}
    fn count(&mut self, _counter: &str, _delta: f64) {}
}

fn reconnect_all(shb: &mut Shb, subs: u64, config: &BrokerConfig, ctx: &mut StubCtx) {
    for i in 0..subs {
        shb.connect(
            SubscriberId(i + 1),
            CLIENT,
            None,
            Some(gryphon_types::SubscriptionSpec::new(format!(
                "class = {}",
                i % 16
            ))),
            false,
            false,
            &HashMap::new(),
            None,
            config,
            ctx,
        )
        .expect("connect");
    }
}

#[test]
fn constream_deliver_allocates_nothing_after_warmup() {
    let config = BrokerConfig::default();
    let mut ctx = StubCtx {
        sent: Vec::new(),
        rng: SmallRng::seed_from_u64(0),
    };
    let mut shb = Shb::open(&MemFactory::new(), "t");
    const SUBS: u64 = 48;
    const TICKS: u64 = 200;
    reconnect_all(&mut shb, SUBS, &config, &mut ctx);

    // A fully known cache: one event per tick, spread across 16 classes,
    // so each event matches SUBS/16 subscribers.
    let mut cache = KnowledgeStream::new();
    for t in 1..=TICKS {
        let e = Event::builder(P)
            .attr("class", (t % 16) as i64)
            .build_ref(Timestamp(t));
        assert!(cache.set_data(e));
    }
    cache.set_silence(Timestamp(1), Timestamp(TICKS));

    // Warm-up pass: grows every reusable buffer and writes the PFS
    // records for [1, TICKS].
    shb.constream_advance(P, &cache, Timestamp(TICKS), &config, &mut ctx);
    let warm_delivered = shb.delivered;
    assert_eq!(warm_delivered, TICKS * (SUBS / 16), "workload must match");

    // Crash recovery: connections drop, the volatile cursor rewinds to
    // the (unsynced) durable point, and the clients reconnect. The next
    // advance re-processes the same span — deliveries flow again while
    // the PFS writes are idempotent no-ops.
    shb.post_restart();
    reconnect_all(&mut shb, SUBS, &config, &mut ctx);
    ctx.sent.clear(); // capacity retained from the warm-up pass

    let allocated = allocations_in(|| {
        shb.constream_advance(P, &cache, Timestamp(TICKS), &config, &mut ctx);
    });

    assert_eq!(
        shb.delivered,
        warm_delivered * 2,
        "measured pass must re-deliver the full span"
    );
    assert_eq!(
        allocated, 0,
        "constream deliver path allocated on the warm path"
    );
}
