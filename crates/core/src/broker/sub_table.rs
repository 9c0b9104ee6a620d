//! Dense per-subscriber state slab (`SubscriberTable`, DESIGN.md §15).
//!
//! The SHB is the scalability bottleneck of the paper's design: it holds
//! *all* per-durable-subscriber state, connected or not. Keeping that
//! state in parallel `HashMap`s (one per concern) costs several hash
//! entries, separate heap blocks and an id hash per touch for every
//! subscriber — per *event* on the delivery path. This module collapses
//! everything into one slab:
//!
//! * each durable subscription occupies one dense [`SubSlot`]
//!   (index + free-list generation) holding a [`SubState`] — spec,
//!   compiled filter, `released(s,p)` cursors, gated/broker-ct flags,
//!   the live connection (boxed, absent for idle subscribers) and the
//!   compact parked-stream records;
//! * the only `SubscriberId → slot` hash lookup happens at the edges
//!   (connect / subscribe / ack ingress); interior paths carry
//!   [`SubSlot`] and index the slab directly;
//! * slot assignment is shared with the matching index
//!   (`SubscriptionIndex::insert_at`), so a match result *is* a slab
//!   index;
//! * [`SubscriberTable::approx_bytes`] feeds the
//!   `telemetry.shb.bytes_per_idle_sub` gauge, making memory per idle
//!   subscriber an observable, gate-guarded number.

use super::shb::Conn;
use gryphon_matching::Filter;
use gryphon_types::{PubendId, SubSlot, SubscriberId, SubscriptionSpec, Timestamp};
use std::collections::HashMap;

/// A tiny sorted-vec map keyed by [`PubendId`].
///
/// Per-subscriber per-pubend state (release cursors, parked streams,
/// delivery cursors, catchup streams) is keyed by pubend, and realistic
/// subscribers touch a handful of pubends — a sorted `Vec` beats a hash
/// map on both bytes and lookup cost at that size, and its iteration
/// order is intrinsically ascending, so emission paths need no ad-hoc
/// sorting for determinism.
#[derive(Debug, Clone, Default)]
pub struct PubendMap<T> {
    entries: Vec<(PubendId, T)>,
}

impl<T> PubendMap<T> {
    /// Creates an empty map (no allocation until first insert).
    pub fn new() -> Self {
        PubendMap {
            entries: Vec::new(),
        }
    }

    fn pos(&self, p: PubendId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&p, |&(k, _)| k)
    }

    /// The value for `p`, if present.
    pub fn get(&self, p: PubendId) -> Option<&T> {
        self.pos(p).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `p`, if present.
    pub fn get_mut(&mut self, p: PubendId) -> Option<&mut T> {
        self.pos(p).ok().map(|i| &mut self.entries[i].1)
    }

    /// Mutable access to the value for `p`, inserting `T::default()`
    /// when absent.
    pub fn get_or_default(&mut self, p: PubendId) -> &mut T
    where
        T: Default,
    {
        let i = match self.pos(p) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (p, T::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Inserts (or replaces) the value for `p`; returns the old value.
    pub fn insert(&mut self, p: PubendId, value: T) -> Option<T> {
        match self.pos(p) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (p, value));
                None
            }
        }
    }

    /// Removes and returns the value for `p`.
    pub fn remove(&mut self, p: PubendId) -> Option<T> {
        self.pos(p).ok().map(|i| self.entries.remove(i).1)
    }

    /// `true` when `p` has a value.
    pub fn contains_key(&self, p: PubendId) -> bool {
        self.pos(p).is_ok()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in ascending pubend order.
    pub fn iter(&self) -> impl Iterator<Item = (PubendId, &T)> + '_ {
        self.entries.iter().map(|(p, v)| (*p, v))
    }

    /// Mutably iterates entries in ascending pubend order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PubendId, &mut T)> + '_ {
        self.entries.iter_mut().map(|(p, v)| (*p, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = PubendId> + '_ {
        self.entries.iter().map(|&(p, _)| p)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Heap bytes owned by the entry vector itself (values' own heap is
    /// the caller's concern).
    pub fn approx_heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(PubendId, T)>()
    }
}

/// Drains all entries in ascending pubend order.
impl<T> IntoIterator for PubendMap<T> {
    type Item = (PubendId, T);
    type IntoIter = std::vec::IntoIter<(PubendId, T)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// Compact record of a catchup stream whose subscriber disconnected:
/// the constream position it had reached and its doubt floor — nothing
/// else (DESIGN.md §15).
///
/// An idle subscriber must not pin a full catchup stream (knowledge
/// parts, read buffers); those die with the connection. What survives,
/// multiplexed per pubend inside the slot, is this 16-byte record. On
/// reconnect the stream is rehydrated from the checkpoint protocol
/// exactly as a cold connect would build it — the parked positions are
/// observability (how far the stream had come) and memory accounting,
/// *not* resumption state, so ground-truth delivery is provably
/// unchanged by parking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParkedStream {
    /// `delivered_to` of the stream at park time.
    pub position: Timestamp,
    /// `pfs_covered_to` of the stream at park time.
    pub doubt_floor: Timestamp,
}

/// Per-slot population-attribution counters (DESIGN.md §9).
///
/// Bumped with plain adds on the hot delivery/catchup paths and drained
/// as window deltas by the SHB's periodic slab sweep, which feeds them
/// to the population sketch via `NodeCtx::attribute`. Kept `Copy` and
/// heap-free so a million idle slots pay four words each and
/// `approx_heap_bytes` is unaffected. Pure observation: nothing reads
/// these on any decision path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubStats {
    /// Payload bytes delivered (live + catchup) since the last sweep.
    pub bytes_delivered: u64,
    /// Catchup stream ticks served since the last sweep.
    pub catchup_ticks: u64,
    /// Checkpoint holes reported (nack-equivalent redelivery demand)
    /// since the last sweep.
    pub nacks: u64,
    /// Sim time (µs) this subscriber last disconnected; 0 while
    /// connected (or never yet connected). Lets the sweep attribute
    /// parked duration without storing a per-window delta.
    pub parked_since_us: u64,
}

impl SubStats {
    /// Takes the window deltas, resetting them to zero.
    /// `parked_since_us` survives — it is a point-in-time mark the
    /// connect path clears, not a delta.
    pub fn take_window(&mut self) -> SubStats {
        let out = *self;
        self.bytes_delivered = 0;
        self.catchup_ticks = 0;
        self.nacks = 0;
        out
    }

    /// `true` when every window delta is zero.
    pub fn window_is_empty(&self) -> bool {
        self.bytes_delivered == 0 && self.catchup_ticks == 0 && self.nacks == 0
    }
}

/// Everything the SHB knows about one durable subscription.
#[derive(Debug)]
pub struct SubState {
    /// The durable subscription id (slot → id is a slab read; id → slot
    /// is the edge hash).
    pub sub: SubscriberId,
    /// The subscription spec as registered (re-sent upstream on
    /// interest aggregation).
    pub spec: SubscriptionSpec,
    /// The compiled filter (catchup refiltering; the matching index
    /// holds its own copy at the same slot).
    pub filter: Filter,
    /// `released(s, p)` — survives disconnection; persisted
    /// periodically; freed with the slot (no dead-pair leaks).
    pub released: PubendMap<Timestamp>,
    /// Deliveries serialize on checkpoint commits (JMS auto-ack).
    pub gated: bool,
    /// The broker persists this subscriber's checkpoint (all JMS modes).
    pub broker_ct: bool,
    /// The live connection; `None` for idle subscribers. Boxed so an
    /// idle slot pays one pointer, not the full connection footprint.
    pub conn: Option<Box<Conn>>,
    /// Parked catchup positions of past connections (see
    /// [`ParkedStream`]); drained on reconnect.
    pub parked: PubendMap<ParkedStream>,
    /// Attribution counters drained by the periodic slab sweep (see
    /// `SubStats`). Survives disconnection like the cursors do.
    pub stats: SubStats,
}

impl SubState {
    /// Approximate heap bytes owned by this state (excluding the
    /// `Option<SubState>` slot itself, which the table accounts for).
    pub fn approx_heap_bytes(&self) -> usize {
        let mut n = self.spec.expr().len()
            + std::mem::size_of_val(self.filter.predicates())
            + self.released.approx_heap_bytes()
            + self.parked.approx_heap_bytes();
        if let Some(conn) = &self.conn {
            n += std::mem::size_of::<Conn>() + conn.approx_heap_bytes();
        }
        n
    }
}

/// The dense slab of durable-subscriber state hosted by one SHB.
///
/// Slots are recycled through a free list; each recycle bumps the
/// slot's generation, so a stale [`SubSlot`] (held across an
/// unsubscribe, e.g. by a pending timer) can never alias the next
/// tenant. The `SubscriberId → slot` hash exists for the ingress edges
/// only — every interior path indexes `states` directly.
#[derive(Debug, Default)]
pub struct SubscriberTable {
    states: Vec<Option<SubState>>,
    /// Current generation per slot index (bumped when freed).
    gens: Vec<u32>,
    free: Vec<u32>,
    /// Edge-only id → slot-index map.
    by_id: HashMap<SubscriberId, u32>,
}

impl SubscriberTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live subscriptions.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// `true` when no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Total slots ever allocated (live + free).
    pub fn capacity(&self) -> usize {
        self.states.len()
    }

    /// Edge lookup: the current slot of `sub`.
    pub fn slot_of(&self, sub: SubscriberId) -> Option<SubSlot> {
        let &i = self.by_id.get(&sub)?;
        Some(SubSlot::new(i, self.gens[i as usize]))
    }

    /// Registers `sub`, assigning a slot (replacing spec/filter in place
    /// if it is already registered — connection, release cursors and
    /// parked records are preserved). Returns the slot.
    pub fn insert(&mut self, sub: SubscriberId, spec: SubscriptionSpec, filter: Filter) -> SubSlot {
        if let Some(&i) = self.by_id.get(&sub) {
            let st = self.states[i as usize]
                .as_mut()
                .expect("by_id points at live slot");
            st.spec = spec;
            st.filter = filter;
            return SubSlot::new(i, self.gens[i as usize]);
        }
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.states.push(None);
                self.gens.push(0);
                (self.states.len() - 1) as u32
            }
        };
        debug_assert!(self.states[i as usize].is_none(), "free slot occupied");
        self.states[i as usize] = Some(SubState {
            sub,
            spec,
            filter,
            released: PubendMap::new(),
            gated: false,
            broker_ct: false,
            conn: None,
            parked: PubendMap::new(),
            stats: SubStats::default(),
        });
        self.by_id.insert(sub, i);
        SubSlot::new(i, self.gens[i as usize])
    }

    /// Frees `slot`, returning its state. The generation is bumped so
    /// every outstanding `SubSlot` for this index is invalidated, and
    /// the index is recycled — per-slot state (including `released`
    /// entries) is freed with it, never leaked.
    pub fn remove(&mut self, slot: SubSlot) -> Option<SubState> {
        let i = slot.index() as usize;
        if self.gens.get(i) != Some(&slot.generation()) {
            return None;
        }
        let st = self.states[i].take()?;
        self.by_id.remove(&st.sub);
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(slot.index());
        Some(st)
    }

    /// Generation-checked access.
    pub fn get(&self, slot: SubSlot) -> Option<&SubState> {
        let i = slot.index() as usize;
        if self.gens.get(i) != Some(&slot.generation()) {
            return None;
        }
        self.states[i].as_ref()
    }

    /// Generation-checked mutable access.
    pub fn get_mut(&mut self, slot: SubSlot) -> Option<&mut SubState> {
        let i = slot.index() as usize;
        if self.gens.get(i) != Some(&slot.generation()) {
            return None;
        }
        self.states[i].as_mut()
    }

    /// Access by bare index (match results, timer parameters), returning
    /// the current full [`SubSlot`] alongside the state.
    pub fn get_at(&self, index: u32) -> Option<(SubSlot, &SubState)> {
        let st = self.states.get(index as usize)?.as_ref()?;
        Some((SubSlot::new(index, self.gens[index as usize]), st))
    }

    /// Mutable access by bare index.
    pub fn get_at_mut(&mut self, index: u32) -> Option<(SubSlot, &mut SubState)> {
        let gen = *self.gens.get(index as usize)?;
        let st = self.states.get_mut(index as usize)?.as_mut()?;
        Some((SubSlot::new(index, gen), st))
    }

    /// Iterates live states in ascending slot order (a deterministic,
    /// intrinsic order — no sorting needed by emission paths).
    pub fn iter(&self) -> impl Iterator<Item = (SubSlot, &SubState)> + '_ {
        self.states.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .map(|st| (SubSlot::new(i as u32, self.gens[i]), st))
        })
    }

    /// Mutably iterates live states in ascending slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (SubSlot, &mut SubState)> + '_ {
        let gens = &self.gens;
        self.states
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, s)| s.as_mut().map(|st| (SubSlot::new(i as u32, gens[i]), st)))
    }

    /// Approximate bytes held by the slab: the dense arrays, the edge
    /// hash, and each live state's heap (spec text, compiled filter,
    /// release cursors, parked records, live connections). Feeds the
    /// `telemetry.shb.slab_bytes` / `telemetry.shb.bytes_per_idle_sub`
    /// gauges (DESIGN.md §15). An estimate, not an exact heap census —
    /// its job is to make regressions visible, and it errs low.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.states.capacity() * size_of::<Option<SubState>>()
            + self.gens.capacity() * size_of::<u32>()
            + self.free.capacity() * size_of::<u32>()
            + self.by_id.capacity() * (size_of::<(SubscriberId, u32)>() + size_of::<u64>());
        for st in self.states.iter().flatten() {
            total += st.approx_heap_bytes();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_for(table: &mut SubscriberTable, id: u64) -> SubSlot {
        table.insert(
            SubscriberId(id),
            SubscriptionSpec::new(format!("class = {id}")),
            Filter::parse(&format!("class = {id}")).unwrap(),
        )
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = SubscriberTable::new();
        let slot = state_for(&mut t, 7);
        assert_eq!(t.slot_of(SubscriberId(7)), Some(slot));
        assert_eq!(t.get(slot).unwrap().sub, SubscriberId(7));
        assert_eq!(t.len(), 1);
        // Re-registering replaces spec/filter in place, same slot.
        let again = t.insert(
            SubscriberId(7),
            SubscriptionSpec::new("class = 9"),
            Filter::parse("class = 9").unwrap(),
        );
        assert_eq!(again, slot);
        assert_eq!(t.get(slot).unwrap().spec.expr(), "class = 9");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn freed_slots_recycle_with_new_generation() {
        let mut t = SubscriberTable::new();
        let a = state_for(&mut t, 1);
        let st = t.remove(a).unwrap();
        assert_eq!(st.sub, SubscriberId(1));
        assert!(t.get(a).is_none(), "freed slot must reject the old gen");
        assert!(t.slot_of(SubscriberId(1)).is_none());
        let b = state_for(&mut t, 2);
        assert_eq!(b.index(), a.index(), "index recycled via free list");
        assert_ne!(b.generation(), a.generation(), "generation bumped");
        assert!(t.get(a).is_none(), "stale handle cannot alias new tenant");
        assert_eq!(t.get(b).unwrap().sub, SubscriberId(2));
        assert_eq!(t.capacity(), 1);
    }

    #[test]
    fn released_entries_die_with_the_slot() {
        // The released(s,p) cursors live inside the slot: recycling the
        // slot frees them; no dead (subscriber, pubend) pair survives.
        let mut t = SubscriberTable::new();
        let a = state_for(&mut t, 1);
        t.get_mut(a)
            .unwrap()
            .released
            .insert(PubendId(0), Timestamp(5));
        let st = t.remove(a).unwrap();
        assert_eq!(st.released.get(PubendId(0)), Some(&Timestamp(5)));
        let b = state_for(&mut t, 9); // recycles the same index
        assert!(t.get(b).unwrap().released.is_empty());
    }

    #[test]
    fn iteration_is_ascending_slot_order() {
        let mut t = SubscriberTable::new();
        for id in [30u64, 10, 20] {
            state_for(&mut t, id);
        }
        let order: Vec<u64> = t.iter().map(|(_, st)| st.sub.0).collect();
        assert_eq!(order, vec![30, 10, 20], "insertion order = slot order");
        let idxs: Vec<u32> = t.iter().map(|(s, _)| s.index()).collect();
        assert_eq!(idxs, vec![0, 1, 2]);
    }

    #[test]
    fn approx_bytes_tracks_population() {
        let mut t = SubscriberTable::new();
        let empty = t.approx_bytes();
        let slots: Vec<SubSlot> = (0..64).map(|i| state_for(&mut t, i)).collect();
        let full = t.approx_bytes();
        assert!(
            full > empty + 64 * 16,
            "64 subscriptions must cost real bytes: {empty} -> {full}"
        );
        for s in slots {
            t.remove(s);
        }
        let drained = t.approx_bytes();
        assert!(
            drained < full,
            "freeing states must release accounted bytes: {full} -> {drained}"
        );
    }

    #[test]
    fn pubend_map_is_sorted_and_compact() {
        let mut m: PubendMap<Timestamp> = PubendMap::new();
        assert!(m.is_empty());
        m.insert(PubendId(3), Timestamp(3));
        m.insert(PubendId(1), Timestamp(1));
        m.insert(PubendId(2), Timestamp(2));
        assert_eq!(m.len(), 3);
        let keys: Vec<u32> = m.keys().map(|p| p.0).collect();
        assert_eq!(keys, vec![1, 2, 3], "iteration intrinsically ascending");
        assert_eq!(m.get(PubendId(2)), Some(&Timestamp(2)));
        assert_eq!(m.insert(PubendId(2), Timestamp(9)), Some(Timestamp(2)));
        assert_eq!(m.remove(PubendId(1)), Some(Timestamp(1)));
        assert!(!m.contains_key(PubendId(1)));
        *m.get_or_default(PubendId(5)) = Timestamp(5);
        assert_eq!(m.get(PubendId(5)), Some(&Timestamp(5)));
        let drained: Vec<u32> = m.into_iter().map(|(p, _)| p.0).collect();
        assert_eq!(drained, vec![2, 3, 5]);
    }
}
