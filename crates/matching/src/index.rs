//! Access-predicate subscription index.
//!
//! Each subscription is filed under exactly one **access predicate**,
//! chosen when it is linked. A filter with an equality predicate is filed
//! under its first one; a filter with none is filed under its first
//! predicate's attribute; the empty filter matches everything. Matching an
//! event probes, per event attribute, only the bucket filed under it and
//! evaluates the candidates' remaining predicates. The cost is
//! proportional to the event's attribute count plus the number of
//! *candidates*, not the total subscription count — the sub-linear
//! property the matching tree of Aguilera et al. gives Gryphon's brokers.
//!
//! The choice ignores selectivity: a filter whose first equality
//! predicate is common sits in a large bucket even if a later one is rare,
//! which costs speed, never correctness (it is still visited exactly when
//! its access predicate holds).
//!
//! # Hot-path memory model
//!
//! Subscriptions live in dense **slots** (`u32` indices recycled through a
//! free list). Attribute names are interned [`AttrName`]s and the buckets
//! are keyed `name → value → slots`, so probing borrows the event's own
//! key and value. Because a slot sits in exactly one bucket and an event
//! holds each attribute once, a slot is visited at most once per event:
//! there are no per-event counters to reset, and matching performs **zero
//! heap allocations** once the caller's output buffer has warmed up.

use crate::{Filter, Op, Predicate};
use gryphon_types::{AttrName, AttrValue, Event, SubscriberId};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Slot {
    sub: SubscriberId,
    filter: Filter,
    /// Index of the predicate the filter is filed under (unused for the
    /// empty filter, which is filed in `match_all`).
    access: usize,
}

/// An empty placeholder: the access-predicate index keeps no per-event
/// state, so matching needs no scratch. The matching signatures still
/// take one so that existing callers keep compiling; any value works.
///
/// # Examples
///
/// ```
/// use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
/// use gryphon_types::{Event, PubendId, SubscriberId, Timestamp};
///
/// let mut idx = SubscriptionIndex::new();
/// idx.insert(SubscriberId(1), Filter::parse("class = 1").unwrap());
/// let mut out = Vec::new();
/// let e = Event::builder(PubendId(0)).attr("class", 1i64).build(Timestamp(1));
/// idx.matches_into(&e, &mut MatchScratch::new(), &mut out);
/// assert_eq!(out, vec![SubscriberId(1)]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchScratch;

impl MatchScratch {
    /// Creates a scratch (it holds nothing).
    pub fn new() -> Self {
        Self
    }
}

/// Everything filed under one attribute.
#[derive(Debug, Clone, Default)]
struct AttrBuckets {
    /// `value → slots` filed under an `attr = value` access predicate.
    eq: HashMap<AttrValue, Vec<u32>>,
    /// Slots of filters without an equality predicate whose first
    /// predicate is on the attribute: visited whenever it is present.
    scan: Vec<u32>,
}

/// An equality predicate usable as a hash key: `NaN` equals nothing, not
/// even itself, so a `x = NaN` predicate could never be found again.
fn keyed(p: &Predicate) -> bool {
    p.op == Op::Eq && !matches!(p.value, AttrValue::Float(v) if v.is_nan())
}

/// An index over many subscriptions answering "which subscriptions match
/// this event?" in sub-linear time.
///
/// Matching results are emitted in ascending [`SubscriberId`] order — a
/// specified, deterministic order that downstream emission paths (and the
/// golden-determinism tests) rely on.
///
/// # Examples
///
/// ```
/// use gryphon_matching::{Filter, SubscriptionIndex};
/// use gryphon_types::{Event, PubendId, SubscriberId, Timestamp};
///
/// let mut idx = SubscriptionIndex::new();
/// idx.insert(SubscriberId(1), Filter::parse("class = 0")?);
/// idx.insert(SubscriberId(2), Filter::parse("class = 1")?);
/// idx.insert(SubscriberId(3), Filter::match_all());
///
/// let e = Event::builder(PubendId(0)).attr("class", 1i64).build(Timestamp(1));
/// assert_eq!(idx.matches(&e), vec![SubscriberId(2), SubscriberId(3)]);
/// # Ok::<(), gryphon_matching::ParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SubscriptionIndex {
    /// Subscriber → its slot.
    slot_of: HashMap<SubscriberId, u32>,
    /// Dense subscription storage; `None` marks a free slot.
    slots: Vec<Option<Slot>>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Access buckets by attribute. Two levels so the hot path can probe
    /// with the event's own borrowed `(AttrName, &AttrValue)`.
    buckets: HashMap<AttrName, AttrBuckets>,
    /// Slots with an empty conjunction (match everything).
    match_all: Vec<u32>,
}

impl SubscriptionIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// `true` when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    fn slot(&self, i: u32) -> &Slot {
        self.slots[i as usize].as_ref().expect("live slot")
    }

    /// Registers (or replaces) the filter for `sub`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use gryphon_matching::{Filter, SubscriptionIndex};
    /// # use gryphon_types::SubscriberId;
    /// let mut idx = SubscriptionIndex::new();
    /// idx.insert(SubscriberId(1), Filter::match_all());
    /// idx.insert(SubscriberId(1), Filter::parse("a = 1").unwrap());
    /// assert_eq!(idx.len(), 1);
    /// ```
    pub fn insert(&mut self, sub: SubscriberId, filter: Filter) {
        self.remove(sub);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.link(slot, sub, filter);
    }

    /// Registers (or replaces) the filter for `sub` at the caller-chosen
    /// `slot`.
    ///
    /// This is the slot-sharing entry point for callers that keep their
    /// own dense per-subscriber slab (the SHB's `SubscriberTable`): the
    /// slab assigns slots and the index mirrors them, so a match result
    /// is directly a slab index — no per-event id→slot hop. An index is
    /// either caller-slotted (`insert_at`/`remove_at`) or self-slotted
    /// (`insert`/`remove`); mixing the two on one index is unsupported
    /// (the internal free list only tracks self-assigned slots).
    ///
    /// # Examples
    ///
    /// ```
    /// # use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
    /// # use gryphon_types::{Event, PubendId, SubscriberId, Timestamp};
    /// let mut idx = SubscriptionIndex::new();
    /// idx.insert_at(7, SubscriberId(42), Filter::parse("a = 1").unwrap());
    /// let e = Event::builder(PubendId(0)).attr("a", 1i64).build(Timestamp(1));
    /// let mut out = Vec::new();
    /// idx.matches_slots_into(&e, &mut MatchScratch::new(), &mut out);
    /// assert_eq!(out, vec![7]);
    /// assert_eq!(idx.sub_at(7), Some(SubscriberId(42)));
    /// ```
    pub fn insert_at(&mut self, slot: u32, sub: SubscriberId, filter: Filter) {
        if let Some(&old) = self.slot_of.get(&sub) {
            self.detach(old);
        }
        self.detach(slot);
        if self.slots.len() <= slot as usize {
            self.slots.resize(slot as usize + 1, None);
        }
        self.link(slot, sub, filter);
    }

    /// Files a filter at `slot` (which must be empty) under its access
    /// predicate.
    fn link(&mut self, slot: u32, sub: SubscriberId, filter: Filter) {
        debug_assert!(self.slots[slot as usize].is_none(), "occupied slot");
        let preds = filter.predicates();
        let access = preds.iter().position(keyed).unwrap_or(0);
        match preds.get(access) {
            None => self.match_all.push(slot),
            Some(p) => {
                let b = self.buckets.entry(p.attr).or_default();
                if keyed(p) {
                    b.eq.entry(p.value.clone()).or_default().push(slot);
                } else {
                    b.scan.push(slot);
                }
            }
        }
        self.slots[slot as usize] = Some(Slot {
            sub,
            filter,
            access,
        });
        self.slot_of.insert(sub, slot);
    }

    /// Unlinks whatever occupies `slot` without recycling the index —
    /// the caller owns slot assignment (see [`Self::insert_at`]).
    fn detach(&mut self, slot: u32) -> Option<Filter> {
        let s = self.slots.get_mut(slot as usize)?.take()?;
        self.slot_of.remove(&s.sub);
        match s.filter.predicates().get(s.access) {
            None => self.match_all.retain(|&x| x != slot),
            Some(p) => {
                let b = self.buckets.get_mut(&p.attr).expect("filed attribute");
                if keyed(p) {
                    let filed = b.eq.get_mut(&p.value).expect("filed value");
                    filed.retain(|&x| x != slot);
                    if filed.is_empty() {
                        b.eq.remove(&p.value);
                    }
                } else {
                    b.scan.retain(|&x| x != slot);
                }
                if b.eq.is_empty() && b.scan.is_empty() {
                    self.buckets.remove(&p.attr);
                }
            }
        }
        Some(s.filter)
    }

    /// Removes `sub`; returns its filter if it was registered.
    pub fn remove(&mut self, sub: SubscriberId) -> Option<Filter> {
        let slot = self.slot_of.get(&sub).copied()?;
        let filter = self.detach(slot)?;
        self.free.push(slot);
        Some(filter)
    }

    /// Removes whatever occupies caller-assigned `slot`; returns its
    /// filter. The slot is *not* pushed on the internal free list — the
    /// caller's slab recycles it (see [`Self::insert_at`]).
    pub fn remove_at(&mut self, slot: u32) -> Option<Filter> {
        self.detach(slot)
    }

    /// The subscriber registered at `slot`, if any.
    pub fn sub_at(&self, slot: u32) -> Option<SubscriberId> {
        self.slots.get(slot as usize)?.as_ref().map(|s| s.sub)
    }

    /// Returns the filter registered for `sub`, if any.
    pub fn get(&self, sub: SubscriberId) -> Option<&Filter> {
        self.slot_of.get(&sub).map(|&i| &self.slot(i).filter)
    }

    /// Iterates over `(subscriber, filter)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SubscriberId, &Filter)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|s| (s.sub, &s.filter))
    }

    /// Calls `stop(slot, access_holds)` on every slot filed under one of
    /// `event`'s attributes, each at most once: the slots under
    /// `attr = value` (their access predicate holds) and the attribute's
    /// scan list (theirs is still to be evaluated). Returns `true` as soon
    /// as `stop` does.
    fn candidates(&self, event: &Event, mut stop: impl FnMut(u32, bool) -> bool) -> bool {
        event.attrs.iter().any(|(attr, value)| {
            let Some(b) = self.buckets.get(attr) else {
                return false;
            };
            let filed = b.eq.get(value).map_or(&[][..], Vec::as_slice);
            filed.iter().any(|&slot| stop(slot, true))
                || b.scan.iter().any(|&slot| stop(slot, false))
        })
    }

    /// The visitor behind every matching entry point: calls `stop` on the
    /// match-all slots, then on each candidate whose other predicates
    /// hold too. Returns `true` as soon as `stop` does.
    fn visit(&self, event: &Event, mut stop: impl FnMut(u32) -> bool) -> bool {
        self.match_all.iter().any(|&slot| stop(slot))
            || self.candidates(event, |slot, access_holds| {
                let s = self.slot(slot);
                let mut preds = s.filter.predicates().iter().enumerate();
                preds.all(|(i, p)| (access_holds && i == s.access) || p.eval(event)) && stop(slot)
            })
    }

    /// All subscriptions matching `event`, in ascending subscriber order.
    ///
    /// Convenience wrapper that allocates the output vector; hot paths
    /// reuse one through [`SubscriptionIndex::matches_into`].
    pub fn matches(&self, event: &Event) -> Vec<SubscriberId> {
        let mut out = Vec::new();
        self.matches_into(event, &mut MatchScratch, &mut out);
        out
    }

    /// Like [`SubscriptionIndex::matches`] but reuses a caller-owned
    /// output buffer — the hot path for brokers matching hundreds of
    /// thousands of events per second. Performs no heap allocation once
    /// `out` has grown to the largest result set. `_scratch` is unused
    /// (see [`MatchScratch`]).
    ///
    /// `out` is cleared and then filled in ascending [`SubscriberId`]
    /// order (a stable, specified order: broker emission must not depend
    /// on hash-map iteration).
    pub fn matches_into(
        &self,
        event: &Event,
        _scratch: &mut MatchScratch,
        out: &mut Vec<SubscriberId>,
    ) {
        out.clear();
        self.visit(event, |slot| {
            out.push(self.slot(slot).sub);
            false
        });
        out.sort_unstable();
    }

    /// Like [`SubscriptionIndex::matches_into`] but emits raw **slot**
    /// indices instead of subscriber ids — the hot path for callers whose
    /// per-subscriber state is a dense slab sharing slot assignment with
    /// this index ([`Self::insert_at`]): each result is directly a slab
    /// index, with no id→slot map hop per matched subscriber.
    ///
    /// `out` is cleared and filled in ascending [`SubscriberId`] order of
    /// the slots' tenants — the same specified emission order as
    /// [`Self::matches_into`], so downstream delivery order stays
    /// independent of slot recycling history. Performs no heap allocation
    /// once `out` has warmed up.
    pub fn matches_slots_into(
        &self,
        event: &Event,
        _scratch: &mut MatchScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        self.visit(event, |slot| {
            out.push(slot);
            false
        });
        out.sort_unstable_by_key(|&slot| self.slot(slot).sub);
    }

    /// Reference implementation: linear scan over every subscription.
    ///
    /// Used by property tests (index ≡ naive) and by the matching ablation
    /// bench; not intended for production paths.
    pub fn matches_naive(&self, event: &Event) -> Vec<SubscriberId> {
        let mut out: Vec<SubscriberId> = self
            .slots
            .iter()
            .filter_map(|s| s.as_ref())
            .filter(|s| s.filter.eval(event))
            .map(|s| s.sub)
            .collect();
        out.sort();
        out
    }

    /// `true` when *any* registered subscription matches `event` — the
    /// question intermediate brokers ask when deciding whether to forward
    /// a data tick or downgrade it to silence. Allocation-free, and exits
    /// at the first match.
    pub fn any_match(&self, event: &Event, _scratch: &mut MatchScratch) -> bool {
        self.visit(event, |_| true)
    }
}

impl Extend<(SubscriberId, Filter)> for SubscriptionIndex {
    fn extend<I: IntoIterator<Item = (SubscriberId, Filter)>>(&mut self, iter: I) {
        for (s, f) in iter {
            self.insert(s, f);
        }
    }
}

impl FromIterator<(SubscriberId, Filter)> for SubscriptionIndex {
    fn from_iter<I: IntoIterator<Item = (SubscriberId, Filter)>>(iter: I) -> Self {
        let mut idx = Self::new();
        idx.extend(iter);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_types::{PubendId, Timestamp};

    fn event(class: i64, price: i64) -> Event {
        Event::builder(PubendId(0))
            .attr("class", class)
            .attr("price", price)
            .build(Timestamp(1))
    }

    #[test]
    fn equality_partition() {
        let mut idx = SubscriptionIndex::new();
        for i in 0..4 {
            idx.insert(
                SubscriberId(i),
                Filter::parse(&format!("class = {i}")).unwrap(),
            );
        }
        assert_eq!(idx.matches(&event(2, 0)), vec![SubscriberId(2)]);
        assert_eq!(idx.matches(&event(9, 0)), vec![]);
    }

    #[test]
    fn conjunction_requires_all_predicates() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(
            SubscriberId(1),
            Filter::parse("class = 1 && price > 10").unwrap(),
        );
        assert!(idx.matches(&event(1, 5)).is_empty());
        assert_eq!(idx.matches(&event(1, 11)), vec![SubscriberId(1)]);
    }

    #[test]
    fn match_all_always_included() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(SubscriberId(7), Filter::match_all());
        idx.insert(SubscriberId(8), Filter::parse("class = 0").unwrap());
        assert_eq!(idx.matches(&event(1, 0)), vec![SubscriberId(7)]);
        assert_eq!(
            idx.matches(&event(0, 0)),
            vec![SubscriberId(7), SubscriberId(8)]
        );
    }

    #[test]
    fn remove_unregisters_all_predicates() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(
            SubscriberId(1),
            Filter::parse("class = 1 && price > 10").unwrap(),
        );
        assert!(idx.remove(SubscriberId(1)).is_some());
        assert!(idx.remove(SubscriberId(1)).is_none());
        assert!(idx.matches(&event(1, 20)).is_empty());
        assert!(idx.is_empty());
        assert!(idx.buckets.is_empty());
    }

    #[test]
    fn removed_slots_are_recycled() {
        let mut idx = SubscriptionIndex::new();
        for i in 0..8 {
            idx.insert(
                SubscriberId(i),
                Filter::parse(&format!("class = {i}")).unwrap(),
            );
        }
        for i in 0..8 {
            idx.remove(SubscriberId(i));
        }
        let slots_before = idx.slots.len();
        for i in 8..16 {
            idx.insert(
                SubscriberId(i),
                Filter::parse(&format!("class = {i}")).unwrap(),
            );
        }
        assert_eq!(idx.slots.len(), slots_before, "free slots must be reused");
        assert_eq!(idx.matches(&event(12, 0)), vec![SubscriberId(12)]);
    }

    #[test]
    fn replace_changes_matching() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(SubscriberId(1), Filter::parse("class = 1").unwrap());
        idx.insert(SubscriberId(1), Filter::parse("class = 2").unwrap());
        assert!(idx.matches(&event(1, 0)).is_empty());
        assert_eq!(idx.matches(&event(2, 0)), vec![SubscriberId(1)]);
    }

    #[test]
    fn any_match_short_circuits_on_match_all() {
        let mut idx = SubscriptionIndex::new();
        let mut scratch = MatchScratch::new();
        assert!(!idx.any_match(&event(0, 0), &mut scratch));
        idx.insert(SubscriberId(1), Filter::match_all());
        assert!(idx.any_match(&event(0, 0), &mut scratch));
    }

    #[test]
    fn any_match_agrees_with_matches() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(
            SubscriberId(1),
            Filter::parse("class = 1 && price > 10").unwrap(),
        );
        idx.insert(SubscriberId(2), Filter::parse("price < 0").unwrap());
        let mut scratch = MatchScratch::new();
        for e in [event(1, 20), event(1, 5), event(0, -1), event(0, 0)] {
            assert_eq!(idx.any_match(&e, &mut scratch), !idx.matches(&e).is_empty(),);
        }
    }

    #[test]
    fn duplicate_predicates_counted_correctly() {
        // `class = 1 && class = 1` has total 2; both hits come from the
        // same attribute lookup and must both count.
        let mut idx = SubscriptionIndex::new();
        idx.insert(
            SubscriberId(1),
            Filter::parse("class = 1 && class = 1").unwrap(),
        );
        assert_eq!(idx.matches(&event(1, 0)), vec![SubscriberId(1)]);
    }

    #[test]
    fn contradictory_filter_never_matches() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(
            SubscriberId(1),
            Filter::parse("class = 1 && class = 2").unwrap(),
        );
        assert!(idx.matches(&event(1, 0)).is_empty());
        assert!(idx.matches(&event(2, 0)).is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let idx: SubscriptionIndex = (0..3)
            .map(|i| {
                (
                    SubscriberId(i),
                    Filter::parse(&format!("class = {i}")).unwrap(),
                )
            })
            .collect();
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn range_and_prefix_predicates_via_attr_index() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(SubscriberId(1), Filter::parse("sym =p 'IB'").unwrap());
        idx.insert(SubscriberId(2), Filter::parse("price >= 100").unwrap());
        let e = Event::builder(PubendId(0))
            .attr("sym", "IBM")
            .attr("price", 100i64)
            .build(Timestamp(1));
        assert_eq!(idx.matches(&e), vec![SubscriberId(1), SubscriberId(2)]);
    }

    #[test]
    fn output_order_is_ascending_and_stable() {
        // Insert in descending id order with a mix of match-all, equality
        // and range filters: output must still be ascending by id, and
        // identical across repeated calls.
        let mut idx = SubscriptionIndex::new();
        idx.insert(SubscriberId(30), Filter::match_all());
        idx.insert(SubscriberId(20), Filter::parse("price >= 0").unwrap());
        idx.insert(SubscriberId(10), Filter::parse("class = 1").unwrap());
        idx.insert(SubscriberId(5), Filter::parse("class = 1").unwrap());
        let e = event(1, 3);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        idx.matches_into(&e, &mut scratch, &mut out);
        let expect = vec![
            SubscriberId(5),
            SubscriberId(10),
            SubscriberId(20),
            SubscriberId(30),
        ];
        assert_eq!(out, expect);
        for _ in 0..5 {
            let mut again = Vec::new();
            idx.matches_into(&e, &mut scratch, &mut again);
            assert_eq!(again, expect, "order must be stable across calls");
        }
    }

    #[test]
    fn scratch_is_reusable_across_indexes() {
        let mut a = SubscriptionIndex::new();
        a.insert(SubscriberId(1), Filter::parse("class = 1").unwrap());
        let mut big = SubscriptionIndex::new();
        for i in 0..64 {
            big.insert(
                SubscriberId(i),
                Filter::parse(&format!("class = {}", i % 4)).unwrap(),
            );
        }
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        big.matches_into(&event(1, 0), &mut scratch, &mut out);
        assert_eq!(out.len(), 16);
        a.matches_into(&event(1, 0), &mut scratch, &mut out);
        assert_eq!(out, vec![SubscriberId(1)]);
    }

    #[test]
    fn signed_zero_equality_matches_through_the_index() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(SubscriberId(1), Filter::parse("x = 0.0").unwrap());
        idx.insert(SubscriberId(2), Filter::parse("x = -0.0").unwrap());
        for x in [0.0, -0.0] {
            let e = Event::builder(PubendId(0)).attr("x", x).build(Timestamp(1));
            assert_eq!(idx.matches(&e), vec![SubscriberId(1), SubscriberId(2)]);
            assert_eq!(idx.matches(&e), idx.matches_naive(&e));
        }
    }

    fn access_of(idx: &SubscriptionIndex, sub: u64) -> usize {
        idx.slot(idx.slot_of[&SubscriberId(sub)]).access
    }

    #[test]
    fn access_is_the_first_equality_predicate() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(SubscriberId(1), Filter::parse("a = 1 && b = 2").unwrap());
        assert_eq!(access_of(&idx, 1), 0);
        idx.insert(
            SubscriberId(2),
            Filter::parse("price > 3 && a = 1 && b = 3").unwrap(),
        );
        assert_eq!(access_of(&idx, 2), 1);
        // No equality predicate: the first predicate's attribute.
        idx.insert(
            SubscriberId(3),
            Filter::parse("price > 3 && a != 1").unwrap(),
        );
        assert_eq!(access_of(&idx, 3), 0);
        for sub in 1..=3 {
            idx.remove(SubscriberId(sub));
        }
        assert!(idx.buckets.is_empty(), "buckets must drain");
    }

    #[test]
    fn nan_equality_is_filed_on_the_scan_list_and_removed_cleanly() {
        let mut idx = SubscriptionIndex::new();
        let nan = Filter::new(vec![crate::Predicate::new(
            "x",
            Op::Eq,
            AttrValue::Float(f64::NAN),
        )]);
        idx.insert(SubscriberId(1), nan);
        let e = Event::builder(PubendId(0))
            .attr("x", f64::NAN)
            .build(Timestamp(1));
        assert!(idx.matches(&e).is_empty());
        idx.remove(SubscriberId(1));
        assert!(idx.buckets.is_empty());
    }

    /// The `selective` workload's filter shape at `n` subscribers: 20
    /// per symbol, four regions, a price threshold each.
    fn selective(n: u32) -> (SubscriptionIndex, Vec<Event>) {
        let syms = n / 20;
        let mut idx = SubscriptionIndex::new();
        for j in 0..n {
            let f = format!(
                "sym = 'S{}' && price > {} && region = {}",
                j % syms,
                j % 100,
                j % 4
            );
            idx.insert_at(j, SubscriberId(j as u64 + 1), Filter::parse(&f).unwrap());
        }
        let events = (0..64)
            .map(|k: u32| {
                Event::builder(PubendId(0))
                    .attr("sym", format!("S{}", k * 7 % syms))
                    .attr("price", (k * 13 % 100) as i64)
                    .attr("region", (k % 4) as i64)
                    .attr("volume", k as i64)
                    .attr("exch", "NYSE")
                    .build(Timestamp(k as u64 + 1))
            })
            .collect();
        (idx, events)
    }

    #[test]
    fn selective_candidates_per_event_do_not_grow_with_subscribers() {
        for n in [1_000, 10_000] {
            let (idx, events) = selective(n);
            let mut out = Vec::new();
            for e in &events {
                // Only the event's symbol bucket is visited: `region`
                // holds 250× more filters and `price` files none.
                let mut visited = 0;
                idx.candidates(e, |_, _| {
                    visited += 1;
                    false
                });
                assert_eq!(visited, 20, "n = {n}");
                idx.matches_into(e, &mut MatchScratch, &mut out);
                assert_eq!(out, idx.matches_naive(e));
            }
        }
    }
}
