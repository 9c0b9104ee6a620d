//! Proves reads from sealed, cached segments allocate nothing (ISSUE 8).
//!
//! Once a segment seals, [`LogVolume`] may pin it as one immutable
//! [`bytes::Bytes`] buffer; every `read` of a record inside it is then a
//! reference-counted window (`Bytes::slice`) — pointer math plus an
//! atomic increment, no copy, no heap. This test warms the cache and
//! asserts a burst of reads leaves the process-wide allocation counter
//! untouched.
//!
//! The counter only counts while the measuring thread has set its
//! thread-local `MEASURING` flag: the allocator is process-wide, and
//! libtest's own threads allocate whenever they like (same pattern as
//! `zero_alloc_deliver.rs` in crates/core).

use gryphon_storage::{LogIndex, LogVolume, MemFactory, StreamId, VolumeConfig};
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

#[test]
fn sealed_segment_reads_allocate_nothing() {
    const RECORDS: u64 = 48;
    const SEALED_PREFIX: u64 = 32; // comfortably below the active segment
    let s = StreamId(0);
    let mut vol = LogVolume::create(
        Box::new(MemFactory::new()),
        "v",
        VolumeConfig {
            // ~61-byte frames: a handful of records per segment, so the
            // first SEALED_PREFIX records span many sealed segments.
            segment_bytes: 256,
            cached_segments: 32,
        },
    )
    .unwrap();
    for i in 0..RECORDS {
        vol.append(s, &[i as u8; 40]).unwrap();
    }
    vol.sync().unwrap();

    // Warm-up: the first read of each sealed segment materializes its
    // cache buffer (one allocation per segment, amortized over its life).
    let mut warm = 0u64;
    for i in 0..SEALED_PREFIX {
        let b = vol.read(s, LogIndex(i)).unwrap().expect("record");
        warm += b.len() as u64;
    }
    assert!(vol.cached_segment_count() > 0, "cache must have engaged");

    let mut read_bytes = 0u64;
    let allocated = allocations_in(|| {
        for _round in 0..50 {
            for i in 0..SEALED_PREFIX {
                let b = vol.read(s, LogIndex(i)).unwrap().expect("record");
                read_bytes += b.len() as u64;
            }
        }
    });

    assert_eq!(read_bytes, warm * 50, "workload must match");
    assert_eq!(
        allocated, 0,
        "cached sealed-segment reads allocated on the warm path"
    );
}
