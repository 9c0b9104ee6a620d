//! Proves `matches_into` allocates nothing per event after warm-up.
//!
//! A counting global allocator wraps the system allocator; after warming
//! the index and output buffer, a burst of matching calls must leave the
//! allocation counter untouched. This is the load-bearing property behind
//! the broker's per-event cost model: matching cost is hash probes and
//! predicate evaluations, never allocator traffic.
//!
//! The file contains a single `#[test]` on purpose: the default test
//! harness runs tests on multiple threads and the counter is process-wide,
//! so a sibling test's allocations would show up as noise here.

use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
use gryphon_types::{Event, PubendId, SubscriberId, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter update has no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn mk_event(seq: i64) -> Event {
    Event::builder(PubendId(0))
        .attr("class", seq % 16)
        .attr("price", 100 + seq % 50)
        .attr("sym", if seq % 2 == 0 { "IBM" } else { "MSFT" })
        .build(Timestamp(seq as u64))
}

#[test]
fn matches_into_allocates_nothing_after_warmup() {
    // A paper-style workload: equality partition on `class`, plus some
    // range and prefix predicates that exercise the scan-list path, plus
    // match-all subscriptions.
    let mut idx = SubscriptionIndex::new();
    for i in 0..64u64 {
        let f = match i % 4 {
            0 => Filter::parse(&format!("class = {}", i % 16)).unwrap(),
            1 => Filter::parse(&format!("class = {} && price > 110", i % 16)).unwrap(),
            2 => Filter::parse("sym =p 'IB' && price >= 100").unwrap(),
            _ => Filter::match_all(),
        };
        idx.insert(SubscriberId(i), f);
    }

    let events: Vec<Event> = (0..256).map(mk_event).collect();
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();

    // Warm-up: grows `out` to the largest result set; also faults in the
    // interner's read path.
    let mut warm_hits = 0usize;
    for e in &events {
        idx.matches_into(e, &mut scratch, &mut out);
        warm_hits += out.len();
        idx.any_match(e, &mut scratch);
    }
    assert!(warm_hits > 0, "workload must actually match");

    // Measured burst: zero allocations allowed.
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut hits = 0usize;
    for _ in 0..8 {
        for e in &events {
            idx.matches_into(e, &mut scratch, &mut out);
            hits += out.len();
            idx.any_match(e, &mut scratch);
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "matches_into/any_match allocated on the warm path ({hits} hits)"
    );
    assert_eq!(hits, warm_hits * 8, "warm and measured runs must agree");
}
