//! Proves the runtime half of the observation path allocates nothing per
//! observation once warm: `crates/core/tests/zero_alloc_deliver.rs` shows
//! the *broker* allocates nothing per delivery but reports into a stub
//! context; this is what a real runtime does with those reports. Both
//! runtimes route `NodeCtx::{count, observe, gauge, delivered}` to the
//! one [`Observers`] owner, which looks a metric up by `&str` and
//! allocates its name on first sight only, and checks a delivery against
//! a ledger session that exists from the subscriber's first resume on.
//!
//! The counter only counts while the measuring thread has set its
//! thread-local `MEASURING` flag: the allocator is process-wide, and
//! libtest's own threads allocate whenever they like.

use gryphon_sim::{names, DeliveryPath, Observers, TraceEvent, TraceRecord};
use gryphon_types::{NodeId, PubendId, SubscriberId, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

const SHB: NodeId = NodeId(3);
const P: PubendId = PubendId(0);
/// Subscribers one constream event reaches (the `fanout` workload's).
const FANOUT: u64 = 64;
const BURST: u64 = 10_000;

/// What one constream step reports for event `ts`, as a runtime's
/// context forwards it: its delivery count by n, the one
/// `Observers::delivered` call for all n subscribers, and a gauge.
fn one_step(obs: &mut Observers, subs: &[SubscriberId], ts: u64) {
    obs.count(names::SHB_CONSTREAM_DELIVERED, subs.len() as f64);
    obs.delivered(
        ts * 10,
        SHB,
        P,
        Timestamp(ts),
        DeliveryPath::Constream,
        subs,
        |_, _| {},
    );
    obs.gauge(names::TELEMETRY_CATCHUP_STREAMS, (ts % 5) as f64);
}

fn trace(obs: &mut Observers, t_us: u64, event: TraceEvent) {
    obs.trace(TraceRecord {
        t_us,
        node: SHB,
        event,
    });
}

#[test]
fn observations_on_known_names_allocate_nothing() {
    let mut obs = Observers::new(0);
    let subs: Vec<SubscriberId> = (0..FANOUT).map(SubscriberId).collect();
    // Warm-up: the first sight of each name allocates its key, each
    // subscriber's ledger session and each event's span are created
    // once (a span is born upstream, at ingest, before any delivery).
    for &sub in &subs {
        let at = Timestamp::ZERO;
        trace(&mut obs, 0, TraceEvent::SubResumed { sub, pubend: P, at });
    }
    for ts in 1..=BURST + 1 {
        let ts = Timestamp(ts);
        trace(&mut obs, 1, TraceEvent::ShbIngested { pubend: P, ts });
    }
    one_step(&mut obs, &subs, 1);

    let allocated = allocations_in(|| {
        for ts in 2..=BURST + 1 {
            one_step(&mut obs, &subs, ts);
        }
    });

    let deliveries = ((BURST + 1) * FANOUT) as f64;
    let m = obs.metrics();
    assert_eq!(m.counter(names::SHB_CONSTREAM_DELIVERED), deliveries);
    // No birth anchor on this worker: every ingest is an orphan, and
    // every delivery.
    assert_eq!(
        m.counter(names::LINEAGE_STAGE_ORPHANS),
        (BURST + 1) as f64 + deliveries
    );
    assert_eq!(
        m.histogram(names::LINEAGE_STAGE_CONSTREAM_US)
            .map(|h| h.count() as f64),
        Some(deliveries)
    );
    assert_eq!(obs.lineage().violations(), 0);
    assert_eq!(
        allocated, 0,
        "count/delivered/gauge on known names and warm sessions allocated"
    );
}
