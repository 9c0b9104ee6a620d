//! The one bounded FIFO every observer stream uses.

use std::collections::VecDeque;

/// Bounded FIFO: a push past the capacity evicts the oldest item, and
/// evictions are counted until the owner collects them with
/// [`Ring::take_dropped`]. The trace ring, the busy-interval ring and the
/// timeline's exemplar, interval and top-K streams are all this type, so
/// "oldest out, drops counted" is decided in one place.
///
/// A capacity of zero retains nothing: every push is itself the eviction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ring<T> {
    capacity: usize,
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` items.
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            capacity,
            items: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the bound, evicting the oldest items beyond it.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.trim();
    }

    /// Appends `item`, evicting the oldest when full.
    pub(crate) fn push(&mut self, item: T) {
        self.items.push_back(item);
        self.trim();
    }

    fn trim(&mut self) {
        while self.items.len() > self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
    }

    /// Takes (and resets) the number of items evicted since the last call.
    pub(crate) fn take_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.dropped)
    }

    /// Takes every held item, oldest first, leaving the ring empty.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.items.drain(..)
    }

    /// Moves `other`'s items, and its uncollected eviction count, into
    /// this ring, leaving `other` empty.
    pub(crate) fn absorb(&mut self, other: &mut Ring<T>) {
        self.dropped += other.take_dropped();
        for item in other.items.drain(..) {
            self.push(item);
        }
    }

    /// Folds another shard's items in: appends them, re-sorts the whole
    /// (stably, so equal items keep merge-call order), then evicts from
    /// the front down to the bound.
    pub(crate) fn merge_by(
        &mut self,
        items: impl IntoIterator<Item = T>,
        cmp: impl FnMut(&T, &T) -> std::cmp::Ordering,
    ) {
        self.items.extend(items);
        self.items.make_contiguous().sort_by(cmp);
        self.trim();
    }

    /// Held items, oldest first.
    pub(crate) fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bounded-memory pin for every observer stream: oldest out
    /// first, evictions counted once, capacity never exceeded, a shrink
    /// evicts, and capacity zero retains nothing.
    #[test]
    fn evicts_oldest_and_counts_drops() {
        let mut ring = Ring::new(3);
        for i in 0..8u64 {
            ring.push(i);
        }
        assert_eq!(ring.iter().len(), 3);
        assert_eq!(ring.take_dropped(), 5);
        assert_eq!(ring.take_dropped(), 0, "drops are collected once");
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![5, 6, 7]);
        ring.set_capacity(2);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![6, 7]);
        assert_eq!(ring.take_dropped(), 1);
        assert_eq!(ring.drain().collect::<Vec<_>>(), vec![6, 7]);
        assert_eq!(ring.iter().len(), 0);
        ring.set_capacity(0);
        ring.push(9);
        assert_eq!(ring.iter().len(), 0);
        assert_eq!(ring.take_dropped(), 1);
    }

    #[test]
    fn absorb_moves_items_and_uncollected_drops() {
        let mut shard = Ring::new(2);
        for v in [1, 2, 3] {
            shard.push(v);
        }
        let mut owner = Ring::new(2);
        owner.push(0);
        owner.absorb(&mut shard);
        assert_eq!(shard.iter().len(), 0);
        assert_eq!(shard.take_dropped(), 0);
        assert_eq!(owner.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(owner.take_dropped(), 2, "the shard's eviction and its own");
    }

    #[test]
    fn merge_sorts_then_trims_from_the_front() {
        let mut ring = Ring::new(3);
        ring.push(4);
        ring.push(1);
        ring.merge_by([3, 2], |a, b| a.cmp(b));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.take_dropped(), 1);
    }
}
