//! Proves the runtime half of the observation path allocates nothing per
//! observation once warm: `crates/core/tests/zero_alloc_deliver.rs` shows
//! the *broker* allocates nothing per delivery but reports into a stub
//! context; this is what a real runtime does with those reports. Both
//! runtimes route `NodeCtx::{count, observe, gauge}` to the one
//! [`Observers`] owner, which looks a metric up by `&str` and allocates
//! its name on first sight only.
//!
//! The counter only counts while the measuring thread has set its
//! thread-local `MEASURING` flag: the allocator is process-wide, and
//! libtest's own threads allocate whenever they like.

use gryphon_sim::{names, Observers};
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

/// What one constream delivery reports (two counters, a stage
/// histogram) plus a gauge, as a runtime's context forwards it.
fn one_delivery(obs: &mut Observers, i: u64) {
    obs.count("shb.delivered", 1.0);
    obs.count(names::SHB_CONSTREAM_DELIVERED, 1.0);
    obs.observe(names::LINEAGE_STAGE_CONSTREAM_US, (i % 97) as f64);
    obs.gauge(names::TELEMETRY_CATCHUP_STREAMS, (i % 5) as f64);
}

#[test]
fn observations_on_known_names_allocate_nothing() {
    let mut obs = Observers::new(0);
    // Warm-up: the first sight of each name allocates its key.
    one_delivery(&mut obs, 0);

    const BURST: u64 = 10_000;
    let allocated = allocations_in(|| {
        for i in 1..=BURST {
            one_delivery(&mut obs, i);
        }
    });

    assert_eq!(obs.metrics().counter("shb.delivered"), (BURST + 1) as f64);
    assert_eq!(
        obs.metrics()
            .histogram(names::LINEAGE_STAGE_CONSTREAM_US)
            .map(|h| h.count()),
        Some(BURST + 1)
    );
    assert_eq!(
        allocated, 0,
        "count/observe/gauge on known names allocated on the warm path"
    );
}
