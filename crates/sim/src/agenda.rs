//! The one timer queue both runtimes schedule through.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-queue of items due at a time in µs: pops in `(time, push
/// order)` order, so items due at the same time come out first in, first
/// out. The simulator keeps every scheduled event in one; each
/// `gryphon-net` worker keeps its node's timers in another.
#[derive(Debug)]
pub struct Agenda<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed, so the max-heap pops the earliest `(at, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> Default for Agenda<T> {
    fn default() -> Self {
        Agenda {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> Agenda<T> {
    /// An empty agenda.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` at `at_us`, behind everything already due then.
    pub fn push(&mut self, at_us: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            at: at_us,
            seq,
            item,
        });
    }

    /// When the next item is due (`None` when empty).
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes the next item, with the time it was due.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Items scheduled and not yet popped.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_time_then_push_order() {
        let mut a = Agenda::new();
        for (at, item) in [(5, 'a'), (1, 'b'), (5, 'c'), (0, 'd'), (1, 'e'), (5, 'f')] {
            a.push(at, item);
        }
        assert_eq!(a.len(), 6);
        assert_eq!(a.peek_time(), Some(0));
        let order: Vec<char> = std::iter::from_fn(|| a.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, vec!['d', 'b', 'e', 'a', 'c', 'f']);
        assert!(a.is_empty());
    }
}
