//! `bounded(cap)` must not pay for `cap` slots up front.
//!
//! The threaded runtime gives every worker a 65 536-slot channel of
//! ~104-byte messages. A channel that allocates (and touches) its whole
//! capacity at construction — std's `sync_channel`, for one — would pin
//! about 6.5 MiB per worker before the first message; the facade rides
//! on the list flavour, which allocates a block at a time as it fills.
//!
//! Bytes are counted only while the measuring thread has set its
//! thread-local `MEASURING` flag: the allocator is process-wide, and
//! libtest's own threads allocate whenever they like.

use crossbeam::channel::bounded;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set by the measuring thread around the measured call.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring(bytes: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter update has no effect
// on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn an_empty_channel_allocates_nothing_like_its_capacity() {
    MEASURING.with(|m| m.set(true));
    let (tx, rx) = bounded::<[u8; 104]>(65_536);
    MEASURING.with(|m| m.set(false));
    let at_construction = BYTES.load(Ordering::Relaxed);
    assert!(
        at_construction < 64 * 1024,
        "{at_construction} B allocated before the first send"
    );
    // And it is a working channel, not an empty shell.
    tx.send([7; 104]).unwrap();
    assert_eq!(rx.recv().map(|m| m[0]), Ok(7));
}
