//! Bounds what a lineage span costs in live heap. Every event a worker
//! observes leaves one span in its ledger until eviction (DESIGN.md
//! §9.3), so the span's size is the observers' memory per event. This
//! feeds 50 000 events in the two shapes the `fanout` workload's workers
//! see — a PHB's birth and log anchors, an SHB's ingest and one
//! 64-subscriber delivery — and measures the live bytes and allocations
//! each shape leaves behind.
//!
//! The allocator books only into the measuring thread's own account: it
//! is process-wide, and libtest's other threads allocate whenever they
//! like.

use gryphon_sim::{DeliveryPath, Observers, TraceEvent, TraceRecord};
use gryphon_types::{NodeId, PubendId, SubscriberId, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The measuring thread's heap account: `None` while not measuring.
    /// Thread-local, because the allocator is process-wide and tests run
    /// on parallel threads.
    static ACCOUNT: Cell<Option<Account>> = const { Cell::new(None) };
}

/// Live bytes and allocations since measuring began.
#[derive(Clone, Copy, Debug, Default)]
struct Account {
    live_bytes: i64,
    allocs: u64,
}

fn book(bytes: i64, allocs: u64) {
    let _ = ACCOUNT.try_with(|a| {
        if let Some(mut acc) = a.get() {
            acc.live_bytes += bytes;
            acc.allocs += allocs;
            a.set(Some(acc));
        }
    });
}

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the accounting has no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size() as i64, 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(-(layout.size() as i64), 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size as i64 - layout.size() as i64, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Events fed per shape: about what the gated `fanout` pass publishes.
const EVENTS: u64 = 50_000;
/// Live heap one span may cost, container slack included.
const MAX_BYTES_PER_SPAN: f64 = 128.0;
/// Subscribers one constream event reaches (the `fanout` workload's).
const FANOUT: u64 = 64;
const PHB: NodeId = NodeId(1);
const SHB: NodeId = NodeId(3);
const P: PubendId = PubendId(0);

/// Runs `feed` with this thread's heap counted; returns what it left.
fn measure(feed: impl FnOnce()) -> Account {
    ACCOUNT.with(|a| a.set(Some(Account::default())));
    feed();
    ACCOUNT.with(|a| a.take()).unwrap_or_default()
}

fn trace(obs: &mut Observers, t_us: u64, node: NodeId, event: TraceEvent) {
    obs.trace(TraceRecord { t_us, node, event });
}

fn assert_flat(shape: &str, obs: &Observers, used: Account) {
    let spans = obs.lineage().spans().count() as u64;
    assert_eq!(spans, EVENTS, "{shape}: one span per event");
    let per_span = used.live_bytes as f64 / spans as f64;
    let allocs = used.allocs;
    assert!(
        per_span <= MAX_BYTES_PER_SPAN,
        "{shape}: {per_span:.1} B of live heap per span, above {MAX_BYTES_PER_SPAN}"
    );
    assert!(
        allocs * 1_000 <= spans,
        "{shape}: {allocs} allocations for {spans} new spans, above 1 per 1 000"
    );
}

#[test]
fn a_phb_span_costs_at_most_128_bytes() {
    let mut obs = Observers::new(0);
    let used = measure(|| {
        for ts in 1..=EVENTS {
            let (t, ts) = (ts * 500, Timestamp(ts));
            trace(
                &mut obs,
                t,
                PHB,
                TraceEvent::PubendTimestamped { pubend: P, ts },
            );
            let logged = TraceEvent::EventLogged {
                pubend: P,
                ts,
                bytes: 256,
            };
            trace(&mut obs, t + 100, PHB, logged);
        }
    });
    assert_flat("PHB", &obs, used);
}

#[test]
fn an_shb_span_costs_at_most_128_bytes() {
    let mut obs = Observers::new(0);
    let subs: Vec<SubscriberId> = (0..FANOUT).map(SubscriberId).collect();
    // Each subscriber's ledger session opens at its resume, before the
    // first event, as on a running SHB.
    for &sub in &subs {
        let at = Timestamp::ZERO;
        trace(
            &mut obs,
            0,
            SHB,
            TraceEvent::SubResumed { sub, pubend: P, at },
        );
    }
    let used = measure(|| {
        for ts in 1..=EVENTS {
            let (t, ts) = (ts * 500, Timestamp(ts));
            trace(&mut obs, t, SHB, TraceEvent::ShbIngested { pubend: P, ts });
            let path = DeliveryPath::Constream;
            obs.delivered(t + 100, SHB, P, ts, path, &subs, |_, _| {});
        }
    });
    assert_flat("SHB", &obs, used);
}
