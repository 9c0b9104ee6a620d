//! Subscriber hosting broker state (paper §4): the consolidated stream,
//! per-subscriber catchup streams, durable release state, and the
//! broker-managed checkpoint commit pool for JMS-style subscribers.
//!
//! All per-subscriber state lives in one dense [`SubscriberTable`] slab
//! (DESIGN.md §15): the `SubscriberId → SubSlot` hash lookup happens only
//! at the ingress edges (connect / subscribe / ack / disconnect); every
//! interior path — constream delivery, catchup pumping, PFS reads —
//! carries a [`SubSlot`] and indexes the slab directly.

use super::sub_table::SubscriberTable;
use crate::config::{BrokerConfig, CT_COMMIT_BASE_US, CT_COMMIT_PER_UPDATE_US, CT_COMMIT_WORKERS};
use crate::pfs::{Pfs, PfsMode};
use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
use gryphon_sim::{names, traced, DeliveryPath, NodeCtx, TraceEvent};
use gryphon_storage::{MediaFactory, SharedMetaTable, StorageError, TableConfig};
use gryphon_streams::KnowledgeStream;
use gryphon_types::{
    CheckpointToken, DeliveryKind, DeliveryMsg, EventRef, KnowledgePart, NodeId, PubendId,
    ServerMsg, SubSlot, SubscriberId, SubscriptionSpec, Timestamp,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use super::sub_table::PubendMap;

/// Per-pubend consolidated-stream state.
#[derive(Debug, Default, Clone, Copy)]
pub struct Con {
    /// Durable `latestDelivered(p)`: advanced only at PFS sync points,
    /// persisted, and the resumption point after an SHB crash.
    pub latest_delivered: Timestamp,
    /// Volatile processing cursor: events `≤ processed_to` have been
    /// matched, sent to connected non-catchup subscribers and queued for
    /// the PFS. Always `≥ latest_delivered`.
    pub processed_to: Timestamp,
}

/// One per-subscriber, per-pubend catchup stream.
#[derive(Debug)]
pub struct Catchup {
    /// Per-subscriber knowledge view, based at the reconnect checkpoint.
    pub knowledge: KnowledgeStream,
    /// Everything `≤ delivered_to` has been sent to the client in order.
    pub delivered_to: Timestamp,
    /// PFS filtering information folded in up to this tick.
    pub pfs_covered_to: Timestamp,
    /// A modeled PFS batch read is in flight.
    pub reading: bool,
    /// Result of the in-flight read, applied when its latency timer
    /// fires.
    pub pending_read: Option<crate::pfs::PfsReadResult>,
    /// Reconnect-anywhere stream: this SHB has no PFS history for the
    /// subscription, so the whole missed interval is nacked to the
    /// pubend and refiltered on arrival (paper §1, feature 5).
    pub refilter: bool,
    /// When this stream was created (switchover-latency metric).
    pub started_at_us: u64,
}

impl Catchup {
    /// Approximate heap bytes beyond the struct itself (the pending read
    /// buffer; the knowledge stream's own heap is excluded — the
    /// estimate errs low, which is fine for a regression gauge).
    fn approx_heap_bytes(&self) -> usize {
        self.pending_read
            .as_ref()
            .map(|r| r.q_ticks.capacity() * std::mem::size_of::<Timestamp>())
            .unwrap_or(0)
    }
}

/// A connected subscriber.
///
/// Per-pubend maps are [`PubendMap`]s (sorted vecs): subscribers touch a
/// handful of pubends, and the intrinsic ascending iteration order means
/// emission paths need no ad-hoc sorting for golden determinism.
#[derive(Debug)]
pub struct Conn {
    /// The client node to deliver to.
    pub client: NodeId,
    /// Outstanding catchup streams (empty ⇒ fully non-catchup).
    pub catchup: PubendMap<Catchup>,
    /// Monotone per-pubend delivery cursor (order enforcement).
    pub last_sent: PubendMap<Timestamp>,
    /// Queued deliveries for gated (JMS) subscribers.
    pub outbox: VecDeque<DeliveryMsg>,
    /// A delivery is awaiting its acknowledgment commit (gated only).
    pub in_flight: bool,
}

impl Conn {
    /// Approximate heap bytes owned by this connection (slab accounting).
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        self.catchup.approx_heap_bytes()
            + self.last_sent.approx_heap_bytes()
            + self.outbox.capacity() * std::mem::size_of::<DeliveryMsg>()
            + self
                .catchup
                .iter()
                .map(|(_, cu)| cu.approx_heap_bytes())
                .sum::<usize>()
    }
}

/// One client connect as the SHB handles it: the fields of
/// [`ClientMsg::Connect`](gryphon_types::ClientMsg::Connect) plus the
/// client node it came from.
#[derive(Debug, Default)]
pub struct ConnectRequest {
    /// The durable subscription.
    pub sub: SubscriberId,
    /// The client node to deliver to.
    pub client: NodeId,
    /// The checkpoint the client resumes from, if it presents one.
    pub ct: Option<CheckpointToken>,
    /// The filter (required on a subscription's first connect).
    pub spec: Option<SubscriptionSpec>,
    /// Broker-managed checkpoints (JMS style).
    pub broker_ct: bool,
    /// Auto-acknowledge: with `broker_ct`, delivery waits on each commit.
    pub auto_ack: bool,
    /// Reconnect-anywhere (a checkpoint from another SHB). `None` derives
    /// it at connect time; the broker fixes it before parking a connect,
    /// whose registration then makes the subscription look local.
    pub anywhere: Option<bool>,
}

/// What a catchup stream needs from the broker after making progress.
#[derive(Debug, Default)]
pub struct CatchupNeeds {
    /// Tick ranges to resolve (cache first, then upstream nack).
    pub holes: Vec<(Timestamp, Timestamp)>,
    /// Issue a PFS batch read (schedule the modeled-latency timer).
    pub want_read: bool,
    /// The stream caught up and was discarded.
    pub switched: bool,
    /// Holes must be answered by the pubend, not caches
    /// (reconnect-anywhere refiltering).
    pub authoritative: bool,
}

/// One checkpoint-commit worker (JMS experiment, paper §5.2).
#[derive(Debug, Default)]
struct CtWorker {
    queue: Vec<(SubscriberId, CheckpointToken)>,
    busy: bool,
    committing: Vec<(SubscriberId, CheckpointToken)>,
}

/// Cached gauge-name strings. The constream publishes gauges on every
/// knowledge ingest, and a `format!` per publish was the hot path's last
/// steady-state allocation; names depend only on (node, pubend), so they
/// are built once and reused.
#[derive(Default)]
struct GaugeNames {
    node: Option<u32>,
    backlog: String,
    streams: String,
    slab_bytes: String,
    bytes_per_idle: String,
    doubt_width: HashMap<PubendId, String>,
}

impl GaugeNames {
    fn ensure(&mut self, node: u32) {
        if self.node == Some(node) {
            return;
        }
        self.node = Some(node);
        self.backlog = format!("{}.n{node}", names::TELEMETRY_CATCHUP_BACKLOG_TICKS);
        self.streams = format!("{}.n{node}", names::TELEMETRY_CATCHUP_STREAMS);
        self.slab_bytes = format!("{}.n{node}", names::TELEMETRY_SHB_SLAB_BYTES);
        self.bytes_per_idle = format!("{}.n{node}", names::TELEMETRY_SHB_BYTES_PER_IDLE_SUB);
        self.doubt_width.clear();
    }

    fn doubt_width(&mut self, node: u32, p: PubendId) -> &str {
        self.ensure(node);
        self.doubt_width
            .entry(p)
            .or_insert_with(|| format!("{}.n{node}.p{}", names::TELEMETRY_DOUBT_WIDTH_TICKS, p.0))
    }
}

/// The SHB role of a broker.
pub struct Shb {
    name: String,
    /// Durable state, keyed as `Key` builds and parses.
    /// Each batch is one [`SharedMetaTable::commit`]: one append, one
    /// flush. The checkpoint-commit workers are modeled latencies on this
    /// broker's one thread, so no two commits ever run at once.
    pub meta: SharedMetaTable,
    /// The persistent filtering subsystem.
    pub pfs: Pfs,
    /// All durable subscriptions hosted here (connected or not); slot
    /// assignment is shared with [`Shb::table`].
    pub index: SubscriptionIndex,
    /// The dense per-subscriber slab: spec, filter, `released(s, p)`,
    /// gated/broker-ct flags, live connection.
    pub table: SubscriberTable,
    dirty_released: bool,
    /// Per-pubend constream cursors. A `BTreeMap` so every iteration is
    /// intrinsically in ascending pubend order (golden determinism
    /// without ad-hoc sorting).
    pub con: BTreeMap<PubendId, Con>,
    /// Connected subscribers: id → slab index, ascending-id iteration.
    connected: BTreeMap<SubscriberId, u32>,
    /// Slab indices of the connected subscribers with at least one live
    /// catchup stream, so the catchup gauges walk the streams, not every
    /// connection.
    catchup_slots: BTreeSet<u32>,
    workers: Vec<CtWorker>,
    /// Events delivered (constream + catchup), for counters.
    pub delivered: u64,
    /// Per-pubend delivered-byte window counters, drained into the
    /// `hottest_pubends` attribution dimension by
    /// [`Shb::sweep_population`]. A `BTreeMap` for deterministic
    /// ascending-pubend drain order.
    pubend_bytes: BTreeMap<PubendId, u64>,
    /// Reusable match-result buffer (slab indices) for the hot path.
    match_buf: Vec<u32>,
    /// Reusable event buffer (`Arc` clones) for the hot path.
    event_buf: Vec<EventRef>,
    /// Reusable buffer of the subscribers one constream event reached,
    /// reported to the observers in one call.
    delivered_subs: Vec<SubscriberId>,
    gauges: GaugeNames,
}

impl std::fmt::Debug for Shb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shb")
            .field("name", &self.name)
            .field("subs", &self.table.len())
            .field("connected", &self.connected.len())
            .field("pubends", &self.con.len())
            .finish()
    }
}

impl Shb {
    /// Opens (recovering) the SHB state named `name`.
    ///
    /// # Panics
    ///
    /// Panics if persistent storage fails — a broker cannot run without
    /// its durable state (mirrors a database-less DB2 broker refusing to
    /// boot).
    pub fn open(factory: &dyn MediaFactory, name: &str) -> Self {
        let meta = SharedMetaTable::open(
            factory.clone_box(),
            &format!("{name}-meta"),
            TableConfig::default(),
        )
        .expect("SHB meta table must open");
        let pfs =
            Pfs::open(factory.clone_box(), name, PfsMode::Precise).expect("SHB PFS must open");
        let mut shb = Shb {
            name: name.to_owned(),
            meta,
            pfs,
            index: SubscriptionIndex::new(),
            table: SubscriberTable::new(),
            dirty_released: false,
            con: BTreeMap::new(),
            connected: BTreeMap::new(),
            catchup_slots: BTreeSet::new(),
            workers: (0..CT_COMMIT_WORKERS)
                .map(|_| CtWorker::default())
                .collect(),
            delivered: 0,
            pubend_bytes: BTreeMap::new(),
            match_buf: Vec::new(),
            event_buf: Vec::new(),
            delivered_subs: Vec::new(),
            gauges: GaugeNames::default(),
        };
        shb.load_persistent();
        shb
    }

    fn load_persistent(&mut self) {
        // Subscriptions: slab + matching index share slot assignment.
        for (key, v) in self.scan("spec/") {
            let (Key::Spec(sub), Ok(expr)) = (key, String::from_utf8(v)) else {
                continue;
            };
            if let Ok(filter) = Filter::parse(&expr) {
                let slot = self
                    .table
                    .insert(sub, SubscriptionSpec::new(expr), filter.clone());
                self.index.insert_at(slot.index(), sub, filter);
            }
        }
        // Gated / broker-managed flags, and released(s, p). Entries for
        // subscribers with no live slot are dropped: they are exactly the
        // dead (subscriber, pubend) pairs an unsubscribe-era leak would
        // have left behind, and nothing may hold release back for a
        // subscription that no longer exists.
        for (key, v) in [self.scan("gated/"), self.scan("bct/"), self.scan("rel/")].concat() {
            let (Key::Gated(sub) | Key::Bct(sub) | Key::Rel(sub, _)) = key else {
                continue;
            };
            let Some(st) = self.table.slot_of(sub).and_then(|s| self.table.get_mut(s)) else {
                continue;
            };
            match key {
                Key::Gated(_) => st.gated = true,
                Key::Bct(_) => st.broker_ct = true,
                Key::Rel(_, p) => {
                    if let Some(t) = ts_of(&v) {
                        st.released.insert(p, t);
                    }
                }
                _ => {}
            }
        }
        // latestDelivered per pubend.
        for (key, v) in self.scan("ld/") {
            if let (Key::Ld(p), Some(t)) = (key, ts_of(&v)) {
                let con = Con {
                    latest_delivered: t,
                    processed_to: t,
                };
                self.con.insert(p, con);
            }
        }
    }

    /// The durable entries under one key kind's `prefix`, parsed.
    fn scan(&self, prefix: &str) -> Vec<(Key, Vec<u8>)> {
        self.meta.with(|m| {
            m.iter_prefix(prefix)
                .filter_map(|(k, v)| Some((Key::parse(k)?, v.to_vec())))
                .collect()
        })
    }

    /// Number of durable subscriptions (connected or not).
    pub fn sub_count(&self) -> usize {
        self.table.len()
    }

    /// Number of currently connected subscribers.
    pub fn connected_count(&self) -> usize {
        self.connected.len()
    }

    /// Number of catchup streams currently alive (O(subscribers in
    /// catchup)).
    pub fn catchup_streams(&self) -> usize {
        self.catchup_conns().map(|c| c.catchup.len()).sum()
    }

    /// The connections that have at least one live catchup stream.
    fn catchup_conns(&self) -> impl Iterator<Item = &Conn> {
        self.catchup_slots
            .iter()
            .filter_map(|&i| self.table.get_at(i))
            .filter_map(|(_, st)| st.conn.as_deref())
    }

    /// The catchup gauges by the full walk over every connected
    /// subscriber that [`Shb::catchup_slots`] replaced: `(backlog ticks,
    /// live streams, whether the set holds exactly the slots the walk
    /// found streams on)` — a stale slot would not change the gauges,
    /// only bring back the walk's cost. The oracle the set is tested
    /// against.
    #[cfg(test)]
    pub(crate) fn catchup_gauges_full_walk(&self) -> (u64, usize, bool) {
        let mut backlog = 0u64;
        let mut streams = 0usize;
        let mut slots = BTreeSet::new();
        for &si in self.connected.values() {
            let Some(conn) = self.table.get_at(si).and_then(|(_, st)| st.conn.as_deref()) else {
                continue;
            };
            if !conn.catchup.is_empty() {
                slots.insert(si);
            }
            streams += conn.catchup.len();
            for (p, cu) in conn.catchup.iter() {
                let cursor = self.con.get(&p).map(|c| c.processed_to).unwrap_or_default();
                backlog += cursor.saturating_sub(cu.delivered_to);
            }
        }
        (backlog, streams, slots == self.catchup_slots)
    }

    /// Approximate bytes held by the subscriber slab (see
    /// [`SubscriberTable::approx_bytes`]).
    pub fn slab_bytes(&self) -> usize {
        self.table.approx_bytes()
    }

    /// Durable subscriptions with no live connection.
    pub fn idle_subs(&self) -> usize {
        self.table.len().saturating_sub(self.connected.len())
    }

    /// Current subscription set for upward interest aggregation.
    pub fn interest(&self) -> Vec<(SubscriberId, SubscriptionSpec)> {
        self.table
            .iter()
            .map(|(_, st)| (st.sub, st.spec.clone()))
            .collect()
    }

    /// The filter `sub` is registered under, if it is registered.
    pub fn spec_of(&self, sub: SubscriberId) -> Option<&SubscriptionSpec> {
        let slot = self.table.slot_of(sub)?;
        self.table.get(slot).map(|st| &st.spec)
    }

    /// Edge lookup: the slab slot of `sub`, if registered.
    pub fn slot_of_sub(&self, sub: SubscriberId) -> Option<SubSlot> {
        self.table.slot_of(sub)
    }

    /// Reverse lookup by bare slab index (timer parameters): the current
    /// slot handle and its subscriber.
    pub fn sub_at_slot(&self, index: u32) -> Option<(SubSlot, SubscriberId)> {
        self.table.get_at(index).map(|(slot, st)| (slot, st.sub))
    }

    /// Pubends `slot` currently has catchup streams on, ascending (the
    /// `PubendMap` makes this order intrinsic — no sorting).
    pub fn catchup_pubends(&self, slot: SubSlot) -> Vec<PubendId> {
        self.table
            .get(slot)
            .and_then(|st| st.conn.as_deref())
            .map(|c| c.catchup.keys().collect())
            .unwrap_or_default()
    }

    /// Ensures constream state for `p` exists and returns it.
    pub fn con_entry(&mut self, p: PubendId) -> Con {
        *self.con.entry(p).or_default()
    }

    /// The live connection of `sub`, if connected (edge paths only).
    fn conn_of_mut(&mut self, sub: SubscriberId) -> Option<&mut Conn> {
        let slot = self.table.slot_of(sub)?;
        self.table.get_mut(slot)?.conn.as_deref_mut()
    }

    // ------------------------------------------------------------------
    // Constream
    // ------------------------------------------------------------------

    /// Advances the consolidated stream of `p` over newly known ticks of
    /// the broker's cache: matches events, delivers to connected
    /// non-catchup subscribers, and queues PFS records. Returns the holes
    /// (`Q` ranges up to the cache high-water mark) the broker should
    /// nack upstream.
    pub fn constream_advance(
        &mut self,
        p: PubendId,
        cache: &KnowledgeStream,
        max_seen: Timestamp,
        config: &BrokerConfig,
        ctx: &mut dyn NodeCtx,
    ) -> Vec<(Timestamp, Timestamp)> {
        let mut con = self.con_entry(p);
        debug_assert!(
            cache.lost_to() <= con.latest_delivered,
            "release protocol violated: pubend lost ticks beyond Td"
        );
        let dh = if con.processed_to >= cache.base() {
            cache.doubt_horizon(con.processed_to)
        } else {
            con.processed_to
        };
        if dh > con.processed_to {
            // Reused buffers end to end — events (`Arc` clones), match
            // slots, PFS scratch, the subscribers an event reached, gauge
            // names — so the steady-state delivery path allocates nothing
            // (pinned by core/tests/zero_alloc_deliver.rs).
            let mut events = std::mem::take(&mut self.event_buf);
            events.clear();
            events.extend(cache.events_in(con.processed_to, dh).cloned());
            let mut matched = std::mem::take(&mut self.match_buf);
            let mut reached = std::mem::take(&mut self.delivered_subs);
            for event in &events {
                ctx.work(config.costs.match_us);
                self.index
                    .matches_slots_into(event, &mut MatchScratch, &mut matched);
                if matched.is_empty() {
                    continue;
                }
                // A match result is directly a slab index: the PFS
                // resolves each slot once through the slab, not through
                // a per-event id map.
                let table = &self.table;
                if self
                    .pfs
                    .write_slots(p, event.ts, &matched, |i| {
                        let (slot, st) = table.get_at(i).expect("match result points at live slot");
                        (st.sub, slot.generation())
                    })
                    .is_ok()
                {
                    ctx.work(config.costs.pfs_record_us);
                }
                for &si in &matched {
                    let Some((_, st)) = self.table.get_at_mut(si) else {
                        continue;
                    };
                    let sub = st.sub;
                    let gated = st.gated;
                    let Some(conn) = st.conn.as_deref_mut() else {
                        continue; // disconnected: recovered later via PFS
                    };
                    if conn.catchup.contains_key(p) {
                        continue; // its catchup stream owns this range
                    }
                    let last = conn.last_sent.get_or_default(p);
                    if event.ts <= *last {
                        continue;
                    }
                    *last = event.ts;
                    ctx.work(config.costs.delivery_us);
                    self.delivered += 1;
                    let wire = delivery_bytes(event);
                    st.stats.bytes_delivered += wire;
                    *self.pubend_bytes.entry(p).or_default() += wire;
                    let msg = DeliveryMsg {
                        pubend: p,
                        kind: DeliveryKind::Event(event.clone()),
                    };
                    deliver(conn, sub, msg, gated, ctx);
                    reached.push(sub);
                }
                // One report per event, whatever its fan-out: the
                // observers do the per-event work once and the ledger
                // checks each subscriber.
                if !reached.is_empty() {
                    ctx.count(names::SHB_CONSTREAM_DELIVERED, reached.len() as f64);
                    traced!(ctx.delivered(p, event.ts, DeliveryPath::Constream, &reached));
                    reached.clear();
                }
            }
            self.delivered_subs = reached;
            self.match_buf = matched;
            self.event_buf = events;
            // The constream must advance over a contiguous prefix: the
            // gap-free watchdog (paper §4.1) checks that each advance
            // starts exactly where the previous one ended.
            traced!(ctx.trace(TraceEvent::ConstreamGapCheck {
                pubend: p,
                prev: con.processed_to,
                new_to: dh,
            }));
            traced!(ctx.trace(TraceEvent::DoubtAdvanced {
                pubend: p,
                horizon: dh,
            }));
            con.processed_to = dh;
            self.con.insert(p, con);
        }
        let width = max_seen.saturating_sub(con.processed_to) as f64;
        let node = ctx.me().0;
        traced!(ctx.gauge(self.gauges.doubt_width(node, p), width));
        self.update_telemetry_gauges(ctx);
        if max_seen > con.processed_to {
            cache.q_ranges(con.processed_to, max_seen)
        } else {
            Vec::new()
        }
    }

    /// Outstanding catchup backlog in ticks: for each active
    /// per-subscriber catchup stream, the distance from its delivery
    /// cursor to the consolidated stream's processing cursor, summed.
    /// Spikes when subscribers reconnect after a crash and drains to
    /// zero as streams switch over.
    pub fn catchup_backlog_ticks(&self) -> u64 {
        let mut total = 0u64;
        for conn in self.catchup_conns() {
            for (p, cu) in conn.catchup.iter() {
                let cursor = self.con.get(&p).map(|c| c.processed_to).unwrap_or_default();
                total += cursor.saturating_sub(cu.delivered_to);
            }
        }
        total
    }

    /// Refreshes this SHB's telemetry gauges (DESIGN.md §9): catchup
    /// backlog and active catchup-stream count, published under this
    /// node's `.n<id>` shard suffix so several SHBs sharing one metrics
    /// sink stay distinct (the sampler derives the unsuffixed sum).
    pub fn update_telemetry_gauges(&mut self, ctx: &mut dyn NodeCtx) {
        let backlog = self.catchup_backlog_ticks() as f64;
        let streams = self.catchup_streams() as f64;
        let node = ctx.me().0;
        self.gauges.ensure(node);
        traced!(ctx.gauge(&self.gauges.backlog, backlog));
        traced!(ctx.gauge(&self.gauges.streams, streams));
    }

    /// Publishes the slab-memory gauges (`telemetry.shb.slab_bytes`,
    /// `telemetry.shb.bytes_per_idle_sub`, DESIGN.md §15). The byte
    /// census is O(live subscriptions), so it rides the periodic
    /// meta-persist timer rather than the delivery path.
    pub fn update_memory_gauges(&mut self, ctx: &mut dyn NodeCtx) {
        let bytes = self.table.approx_bytes();
        let idle = self.idle_subs();
        let node = ctx.me().0;
        self.gauges.ensure(node);
        traced!(ctx.gauge(&self.gauges.slab_bytes, bytes as f64));
        traced!(ctx.gauge(
            &self.gauges.bytes_per_idle,
            bytes as f64 / idle.max(1) as f64
        ));
    }

    /// Sweeps the subscriber slab, draining the per-slot attribution
    /// counters into the population sketch via [`NodeCtx::attribute`]
    /// (DESIGN.md §9):
    ///
    /// * `slowest_subs_by_lag` — connected subscribers only, weighted by
    ///   the age of their oldest live catchup stream (0 when caught up).
    ///   The lag spectrum deliberately excludes idle subscribers: a
    ///   million idle durables at lag 0 would otherwise drown the one
    ///   connected consumer that is actually behind.
    /// * `hottest_subs_by_bytes` / `top_nackers` — per-slot window
    ///   deltas, reset as they drain.
    /// * `hottest_pubends` — per-pubend delivered bytes this window.
    ///
    /// O(slab), so it rides the periodic meta-persist timer with the
    /// byte census, never the delivery path. When the sketch is
    /// disarmed every `attribute` call is a default no-op; either way
    /// the sweep touches no delivery state — pure observation.
    pub fn sweep_population(&mut self, ctx: &mut dyn NodeCtx) {
        use gryphon_sim::sketch::{DIM_PUBEND_BYTES, DIM_SUB_BYTES, DIM_SUB_LAG, DIM_SUB_NACKS};
        let now = ctx.now_us();
        for (_, st) in self.table.iter_mut() {
            if let Some(conn) = st.conn.as_deref() {
                let lag_us = conn
                    .catchup
                    .iter()
                    .map(|(_, cu)| cu.started_at_us)
                    .min()
                    .map(|t| now.saturating_sub(t))
                    .unwrap_or(0);
                ctx.attribute(DIM_SUB_LAG, st.sub.0, lag_us);
            }
            if st.stats.window_is_empty() {
                continue;
            }
            let w = st.stats.take_window();
            if w.bytes_delivered > 0 {
                ctx.attribute(DIM_SUB_BYTES, st.sub.0, w.bytes_delivered);
            }
            if w.nacks > 0 {
                ctx.attribute(DIM_SUB_NACKS, st.sub.0, w.nacks);
            }
        }
        for (&p, bytes) in self.pubend_bytes.iter_mut() {
            if *bytes > 0 {
                ctx.attribute(DIM_PUBEND_BYTES, p.0 as u64, *bytes);
                *bytes = 0;
            }
        }
    }

    /// PFS group commit: makes queued filtering records durable and
    /// advances `latestDelivered(p)` to the processing cursor, persisting
    /// it in the metadata table.
    pub fn pfs_sync(&mut self, ctx: &mut dyn NodeCtx) {
        if self.pfs.sync().is_err() {
            ctx.count("shb.pfs_sync_err", 1.0);
            return;
        }
        let mut batch = Vec::new();
        for (p, con) in self.con.iter_mut() {
            if con.processed_to > con.latest_delivered {
                con.latest_delivered = con.processed_to;
                batch.push((Key::Ld(*p).build(), ts_value(con.latest_delivered)));
            }
        }
        if !batch.is_empty() && self.meta.commit(&batch).is_err() {
            ctx.count("shb.meta_err", 1.0);
        }
    }

    // ------------------------------------------------------------------
    // Connections
    // ------------------------------------------------------------------

    /// `true` when `sub` has never been registered here.
    pub fn is_new_subscription(&self, sub: SubscriberId) -> bool {
        self.table.slot_of(sub).is_none()
    }

    /// Registers a brand-new durable subscription (filter parse +
    /// persistence + slab slot + matching-index insert at the same slot)
    /// without attaching a client. Used both by [`Shb::connect`] and by
    /// the broker when it parks a connect while the subscription's
    /// interest propagates upstream.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason (already sent to `client` as a
    /// `ConnectErr`) when the filter is missing or fails to parse.
    pub fn register_spec(
        &mut self,
        sub: SubscriberId,
        client: NodeId,
        spec: Option<&SubscriptionSpec>,
        broker_ct: bool,
        auto_ack: bool,
        ctx: &mut dyn NodeCtx,
    ) -> Result<(), String> {
        if !self.is_new_subscription(sub) {
            return Ok(());
        }
        let Some(spec) = spec else {
            let reason = "first connect requires a subscription filter".to_owned();
            ctx.send(
                client,
                gryphon_types::NetMsg::Server(ServerMsg::ConnectErr {
                    sub,
                    reason: reason.clone(),
                }),
            );
            return Err(reason);
        };
        let filter = match Filter::parse(spec.expr()) {
            Ok(f) => f,
            Err(e) => {
                let reason = e.to_string();
                ctx.send(
                    client,
                    gryphon_types::NetMsg::Server(ServerMsg::ConnectErr {
                        sub,
                        reason: reason.clone(),
                    }),
                );
                return Err(reason);
            }
        };
        let mut batch = vec![(
            Key::Spec(sub).build(),
            Some(spec.expr().as_bytes().to_vec()),
        )];
        if broker_ct {
            batch.push((Key::Bct(sub).build(), Some(vec![1])));
        }
        // Only auto-acknowledge serializes delivery on commits; lazy
        // broker-managed subscribers stream freely.
        if broker_ct && auto_ack {
            batch.push((Key::Gated(sub).build(), Some(vec![1])));
        }
        let slot = self.table.insert(sub, spec.clone(), filter.clone());
        self.index.insert_at(slot.index(), sub, filter);
        let st = self.table.get_mut(slot).expect("just inserted");
        st.broker_ct = broker_ct;
        st.gated = broker_ct && auto_ack;
        // A new subscriber starts at the constream's delivery cursor (the
        // paper's "CT(s, p) = latestDelivered(p)" — in our split-cursor
        // design the delivery point is processed_to, with
        // latest_delivered as its durable shadow). The broker raises this
        // further with the interest-propagation floor when completing a
        // parked connect.
        for (&p, con) in self.con.iter() {
            st.released.insert(p, con.processed_to);
            batch.push((Key::Rel(sub, p).build(), ts_value(con.processed_to)));
        }
        let _ = self.meta.commit(&batch);
        Ok(())
    }

    /// Handles a client connect. `floors` raises a fresh subscription's
    /// start per pubend (see [`ConnectRequest`]'s parked connects).
    /// Returns the catchup plans per pubend (the `ConnectOk`/`ConnectErr`
    /// has already been sent) or an error string.
    pub fn connect(
        &mut self,
        req: &ConnectRequest,
        floors: &HashMap<PubendId, Timestamp>,
        ctx: &mut dyn NodeCtx,
    ) -> Result<Vec<(PubendId, CatchupNeeds)>, String> {
        let ConnectRequest {
            sub,
            client,
            ref ct,
            ..
        } = *req;
        // Reconnect-anywhere: a checkpoint presented by a subscription
        // this SHB has never hosted. Its missed interval must be
        // recovered authoritatively and refiltered — this SHB's PFS and
        // caches know nothing about it.
        let anywhere = req
            .anywhere
            .unwrap_or_else(|| self.is_new_subscription(sub) && ct.is_some());
        self.register_spec(
            sub,
            client,
            req.spec.as_ref(),
            req.broker_ct,
            req.auto_ack,
            ctx,
        )?;
        let slot = self.table.slot_of(sub).expect("registered above");

        // Effective resumption point per pubend: the presented checkpoint,
        // else the broker-stored one (JMS), else released(s, p), else
        // latestDelivered (fresh subscription). `con` is a BTreeMap, so
        // catchup plans and CatchupStarted events are intrinsically in
        // ascending pubend order (golden determinism, no sorting).
        let mut start = CheckpointToken::new();
        let mut plans: Vec<(PubendId, CatchupNeeds)> = Vec::new();
        let mut conn = Conn {
            client,
            catchup: PubendMap::new(),
            last_sent: PubendMap::new(),
            outbox: VecDeque::new(),
            in_flight: false,
        };
        for (&p, pcon) in self.con.iter() {
            let stored_jct = self.meta.get_u64(&Key::Jct(sub, p).build()).map(Timestamp);
            // The client's checkpoint may be AHEAD of the recovering
            // constream (it consumed deliveries whose PFS records were
            // not yet durable when the SHB crashed). Never clamp it
            // backwards — redelivering acknowledged events would violate
            // the monotone-delivery model; the constream simply skips
            // ticks at or below `last_sent` as it re-processes.
            let explicit = ct.as_ref().map(|c| c.get(p)).or(stored_jct);
            let resume = match explicit {
                // An explicit checkpoint defines the window regardless of
                // upstream filtering history: the missed interval is
                // recovered authoritatively and refiltered.
                Some(t) => t,
                // Otherwise the subscription starts "now" — raised by the
                // interest-propagation floor, because ticks at or below
                // it may have been filtered upstream without this
                // subscription's filter.
                None => self
                    .table
                    .get(slot)
                    .and_then(|st| st.released.get(p))
                    .copied()
                    .unwrap_or(pcon.processed_to)
                    .max(floors.get(&p).copied().unwrap_or(Timestamp::ZERO)),
            };
            start.advance(p, resume);
            conn.last_sent.insert(p, resume);
            // Ledger session boundary: anything at or below `resume`
            // arriving later would be a duplicate across this reconnect.
            traced!(ctx.trace(TraceEvent::SubResumed {
                sub,
                pubend: p,
                at: resume,
            }));
            if anywhere {
                // The migrated subscription only holds release back from
                // its own checkpoint, not this SHB's cursor.
                if let Some(st) = self.table.get_mut(slot) {
                    st.released.insert(p, resume);
                }
                self.dirty_released = true;
            }
            if resume < pcon.processed_to {
                // Catchup needed. Reconnect-anywhere streams skip the PFS
                // (no history here): mark its coverage exhausted so every
                // unknown tick is nacked — authoritatively — instead.
                traced!(ctx.trace(TraceEvent::CatchupStarted {
                    pubend: p,
                    sub,
                    from: resume.next(),
                }));
                conn.catchup.insert(
                    p,
                    Catchup {
                        knowledge: KnowledgeStream::with_base(resume),
                        delivered_to: resume,
                        pfs_covered_to: if anywhere { Timestamp::MAX } else { resume },
                        reading: false,
                        pending_read: None,
                        refilter: anywhere,
                        started_at_us: ctx.now_us(),
                    },
                );
                plans.push((
                    p,
                    CatchupNeeds {
                        holes: Vec::new(),
                        want_read: !anywhere,
                        switched: false,
                        authoritative: anywhere,
                    },
                ));
            }
        }
        ctx.count("shb.connects", 1.0);
        if !conn.catchup.is_empty() {
            ctx.count("shb.catchup_connects", 1.0);
        }
        ctx.send(
            client,
            gryphon_types::NetMsg::Server(ServerMsg::ConnectOk { sub, start }),
        );
        // Attach.
        if conn.catchup.is_empty() {
            self.catchup_slots.remove(&slot.index());
        } else {
            self.catchup_slots.insert(slot.index());
        }
        let st = self.table.get_mut(slot).expect("registered above");
        st.conn = Some(Box::new(conn));
        self.connected.insert(sub, slot.index());
        Ok(plans)
    }

    /// Handles a graceful disconnect (the subscription stays durable).
    /// The connection, catchup streams included, is dropped: an idle
    /// subscription keeps only its durable state, and a reconnect
    /// rebuilds its streams from the checkpoint protocol.
    pub fn disconnect(&mut self, sub: SubscriberId) {
        self.connected.remove(&sub);
        let Some(slot) = self.table.slot_of(sub) else {
            return;
        };
        self.catchup_slots.remove(&slot.index());
        if let Some(st) = self.table.get_mut(slot) {
            st.conn = None;
        }
    }

    /// Destroys a durable subscription entirely. The slab slot is
    /// recycled (generation bumped), freeing every per-subscriber
    /// structure with it — including the `released(s, p)` cursors, whose
    /// durable twins are deleted in the same batch (no dead-pair leaks).
    pub fn unsubscribe(&mut self, sub: SubscriberId) {
        self.connected.remove(&sub);
        let mut batch = vec![
            (Key::Spec(sub).build(), None),
            (Key::Gated(sub).build(), None),
            (Key::Bct(sub).build(), None),
        ];
        if let Some(slot) = self.table.slot_of(sub) {
            self.catchup_slots.remove(&slot.index());
            self.index.remove_at(slot.index());
            if let Some(st) = self.table.remove(slot) {
                for (p, _) in st.released.into_iter() {
                    batch.push((Key::Rel(sub, p).build(), None));
                    batch.push((Key::Jct(sub, p).build(), None));
                }
            }
        }
        let _ = self.meta.commit(&batch);
    }

    /// Handles an acknowledgment: advances `released(s, p)` and, for
    /// gated (JMS) subscribers, enqueues the checkpoint commit. Returns
    /// `Some(worker)` when a commit worker should be started.
    ///
    /// Acknowledgments for subscriptions no longer registered here are
    /// ignored: the release cursors live inside the slab slot, so a late
    /// ack after an unsubscribe cannot resurrect a dead (subscriber,
    /// pubend) pair and pin release forever.
    pub fn ack(&mut self, sub: SubscriberId, ct: &CheckpointToken) -> Option<usize> {
        let slot = self.table.slot_of(sub)?;
        let st = self.table.get_mut(slot).expect("slot_of returned live");
        let mut dirty = false;
        for (p, t) in ct.iter() {
            let e = st.released.get_or_default(p);
            if t > *e {
                *e = t;
                dirty = true;
            }
        }
        let broker_ct = st.broker_ct;
        if dirty {
            self.dirty_released = true;
        }
        if !broker_ct {
            return None;
        }
        let n = self.workers.len();
        let w = (sub.0 as usize) % n;
        let worker = &mut self.workers[w];
        if let Some(entry) = worker.queue.iter_mut().find(|(s, _)| *s == sub) {
            entry.1.merge(ct);
        } else {
            worker.queue.push((sub, ct.clone()));
        }
        (!worker.busy).then_some(w)
    }

    /// Starts a commit transaction on worker `w`; returns the modeled
    /// duration (schedule the `CtCommit` timer for it), or `None` when
    /// idle.
    pub fn ct_commit_start(&mut self, w: usize) -> Option<u64> {
        let worker = self.workers.get_mut(w)?;
        if worker.busy || worker.queue.is_empty() {
            return None;
        }
        worker.committing = std::mem::take(&mut worker.queue);
        worker.busy = true;
        Some(CT_COMMIT_BASE_US + CT_COMMIT_PER_UPDATE_US * worker.committing.len() as u64)
    }

    /// Completes the commit on worker `w`: persists the checkpoints and
    /// un-gates the affected subscribers (their next delivery may flow).
    /// Returns `true` if the worker has more queued work.
    pub fn ct_commit_done(&mut self, w: usize, ctx: &mut dyn NodeCtx) -> bool {
        let Some(worker) = self.workers.get_mut(w) else {
            return false;
        };
        let committing = std::mem::take(&mut worker.committing);
        worker.busy = false;
        let mut batch = Vec::new();
        for (sub, ct) in &committing {
            for (p, t) in ct.iter() {
                batch.push((Key::Jct(*sub, p).build(), ts_value(t)));
            }
        }
        if !batch.is_empty() {
            match self.meta.commit(&batch) {
                Ok(()) => {
                    ctx.count("shb.ct_commits", 1.0);
                    ctx.count("shb.ct_commit_updates", batch.len() as f64);
                    traced!(ctx.observe(names::STORAGE_COMMIT_BATCH_RECORDS, batch.len() as f64));
                    // One commit, one flush: see `on_phb_commit_done`.
                    traced!(ctx.observe(names::STORAGE_COMMIT_GROUP_SIZE, 1.0));
                }
                Err(_) => ctx.count("shb.meta_err", 1.0),
            }
        }
        for (sub, _) in committing {
            if let Some(conn) = self.conn_of_mut(sub) {
                conn.in_flight = false;
                pump_outbox(conn, sub, ctx);
            }
        }
        !self.workers[w].queue.is_empty()
    }

    /// Sends silence messages to idle connected subscribers so their
    /// checkpoint tokens keep advancing.
    ///
    /// Emission order is intrinsic — `connected` iterates ascending
    /// subscriber id and `con` ascending pubend — so golden determinism
    /// needs no ad-hoc sorting here.
    pub fn client_silence(&mut self, ctx: &mut dyn NodeCtx) {
        for (&sub, &si) in self.connected.iter() {
            let Some((_, st)) = self.table.get_at_mut(si) else {
                continue;
            };
            if st.gated {
                continue; // gated subscribers advance via their own acks
            }
            let Some(conn) = st.conn.as_deref_mut() else {
                continue;
            };
            for (&p, c) in self.con.iter() {
                let processed = c.processed_to;
                if conn.catchup.contains_key(p) {
                    continue;
                }
                let last = conn.last_sent.get_or_default(p);
                if *last < processed {
                    *last = processed;
                    ctx.send(
                        conn.client,
                        gryphon_types::NetMsg::Server(ServerMsg::Deliver {
                            sub,
                            msg: DeliveryMsg {
                                pubend: p,
                                kind: DeliveryKind::Silence(processed),
                            },
                        }),
                    );
                }
            }
        }
    }

    /// Persists dirty `released(s, p)` values (the paper's periodic
    /// 250 ms updates). The batch iterates the slab in slot order — a
    /// deterministic commit layout.
    pub fn meta_persist(&mut self, ctx: &mut dyn NodeCtx) {
        if !self.dirty_released {
            return;
        }
        self.dirty_released = false;
        let mut batch: Vec<(String, Option<Vec<u8>>)> = Vec::new();
        for (_, st) in self.table.iter() {
            for (p, &t) in st.released.iter() {
                batch.push((Key::Rel(st.sub, p).build(), ts_value(t)));
            }
        }
        if self.meta.commit(&batch).is_err() {
            ctx.count("shb.meta_err", 1.0);
        }
    }

    /// `released(p)` over this SHB: `min(latestDelivered, min_s released)`.
    pub fn released_local(&self, p: PubendId) -> Timestamp {
        let ld = self
            .con
            .get(&p)
            .map(|c| c.latest_delivered)
            .unwrap_or(Timestamp::ZERO);
        self.table
            .iter()
            .filter_map(|(_, st)| st.released.get(p).copied())
            .fold(ld, Timestamp::min)
    }

    /// `latestDelivered(p)` (durable view).
    pub fn latest_delivered(&self, p: PubendId) -> Timestamp {
        self.con
            .get(&p)
            .map(|c| c.latest_delivered)
            .unwrap_or(Timestamp::ZERO)
    }

    /// Chops PFS state below `released(p)` (all hosted subscribers have
    /// acknowledged it).
    ///
    /// # Errors
    ///
    /// Returns the PFS volume's error if the chop frame cannot be written.
    pub fn chop_pfs(&mut self, p: PubendId) -> Result<(), StorageError> {
        let rel = self.released_local(p);
        if rel > Timestamp::ZERO {
            self.pfs.chop_below(p, rel)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Catchup
    // ------------------------------------------------------------------

    /// Performs a PFS batch read for a catchup stream, storing the result
    /// until the modeled-latency timer fires. Returns `(records visited,
    /// matching Q ticks found, was it a full read)` — the visit count
    /// drives the modeled latency, the full-read flag feeds the paper's
    /// "87 % of reads reach lastTimestamp" metric — or `None` when no
    /// read is needed.
    pub fn start_pfs_read(
        &mut self,
        slot: SubSlot,
        p: PubendId,
        buffer: usize,
    ) -> Option<(usize, usize, bool)> {
        let ld = self.con_entry(p).latest_delivered;
        let (sub, from) = {
            let st = self.table.get_mut(slot)?;
            let sub = st.sub;
            let cu = st.conn.as_deref_mut()?.catchup.get_mut(p)?;
            if cu.reading {
                return None;
            }
            let from = cu.pfs_covered_to.max(cu.delivered_to);
            if from >= ld {
                return None;
            }
            cu.reading = true;
            (sub, from)
        };
        let result = self.pfs.read_slot(p, slot, sub, from, ld, buffer).ok()?;
        let visited = result.records_visited;
        let q_ticks = result.q_ticks.len();
        let full = result.full_read;
        // Re-borrow to stash the result (pfs and the slab are disjoint
        // fields, but the `cu` borrow had to end before the read).
        if let Some(cu) = self
            .table
            .get_mut(slot)
            .and_then(|st| st.conn.as_deref_mut())
            .and_then(|c| c.catchup.get_mut(p))
        {
            cu.pending_read = Some(result);
        }
        Some((visited, q_ticks, full))
    }

    /// Applies the stored read result when its latency timer fires;
    /// returns `true` if there was one.
    pub fn finish_pfs_read(&mut self, slot: SubSlot, p: PubendId) -> bool {
        let Some(cu) = self
            .table
            .get_mut(slot)
            .and_then(|st| st.conn.as_deref_mut())
            .and_then(|c| c.catchup.get_mut(p))
        else {
            return false;
        };
        let Some(result) = cu.pending_read.take() else {
            cu.reading = false;
            return false;
        };
        cu.reading = false;
        // Ticks in (known_from, covered_to] not listed are silence.
        let mut cursor = result.known_from.max(cu.knowledge.base());
        for &q in &result.q_ticks {
            if q > cursor.next() {
                cu.knowledge.set_silence(cursor.next(), q.prev());
            }
            cursor = cursor.max(q); // the Q tick itself stays unknown → nacked
        }
        if result.covered_to > cursor {
            cu.knowledge.set_silence(cursor.next(), result.covered_to);
        }
        cu.pfs_covered_to = cu.pfs_covered_to.max(result.covered_to);
        true
    }

    /// Applies arriving knowledge parts to every catchup stream of `p`,
    /// filtered per subscriber (a data tick that does not match becomes
    /// silence for that stream). Returns the touched slots in ascending
    /// subscriber-id order (intrinsic — `connected` is a `BTreeMap`).
    pub fn distribute_to_catchup(&mut self, p: PubendId, parts: &[KnowledgePart]) -> Vec<SubSlot> {
        let mut touched = Vec::new();
        for (_, &si) in self.connected.iter() {
            let Some((slot, st)) = self.table.get_at_mut(si) else {
                continue;
            };
            let filter = &st.filter;
            let Some(conn) = st.conn.as_deref_mut() else {
                continue;
            };
            let Some(cu) = conn.catchup.get_mut(p) else {
                continue;
            };
            for part in parts {
                match part {
                    KnowledgePart::Data(e) => {
                        if filter.eval(e) {
                            cu.knowledge.set_data(e.clone());
                        } else {
                            cu.knowledge.set_silence(e.ts, e.ts);
                        }
                    }
                    KnowledgePart::Silence { from, to } => {
                        cu.knowledge.set_silence(*from, *to);
                    }
                    KnowledgePart::Lost { to, .. } => {
                        cu.knowledge.set_lost_prefix(*to);
                    }
                }
            }
            touched.push(slot);
        }
        touched
    }

    /// Drives one catchup stream: delivers what is known in order,
    /// detects switchover, and reports holes / read needs.
    pub fn catchup_progress(
        &mut self,
        slot: SubSlot,
        p: PubendId,
        config: &BrokerConfig,
        ctx: &mut dyn NodeCtx,
    ) -> CatchupNeeds {
        let mut needs = CatchupNeeds::default();
        let con = self.con_entry(p);
        let Some(st) = self.table.get_mut(slot) else {
            return needs;
        };
        let sub = st.sub;
        let gated = st.gated;
        // Flow control (paper §4.1): catchup delivery and nack initiation
        // are bounded to a window beyond what the client has acknowledged,
        // so a reconnecting client is never overwhelmed and the SHB's
        // catchup work is paced by real consumption.
        let acked = st.released.get(p).copied().unwrap_or(Timestamp::ZERO);
        let pace_limit = acked + config.catchup_window_ticks;
        let Some(conn) = st.conn.as_deref_mut() else {
            return needs;
        };
        // Detach the stream so deliveries can borrow the connection.
        let Some(mut cu) = conn.catchup.remove(p) else {
            return needs;
        };
        // 1. Deliver everything already known, in timestamp order — but
        // never further than the flow-control window past the client's
        // acknowledgments.
        loop {
            if cu.delivered_to >= pace_limit {
                break;
            }
            let lost = cu.knowledge.lost_to();
            if lost > cu.delivered_to {
                // Early release discarded this span: explicit gap.
                cu.delivered_to = lost;
                cu.pfs_covered_to = cu.pfs_covered_to.max(lost);
                ctx.count("shb.gaps_sent", 1.0);
                deliver(
                    conn,
                    sub,
                    DeliveryMsg {
                        pubend: p,
                        kind: DeliveryKind::Gap(lost),
                    },
                    gated,
                    ctx,
                );
                continue;
            }
            let dh = cu.knowledge.doubt_horizon(cu.delivered_to).min(pace_limit);
            if dh <= cu.delivered_to {
                break;
            }
            let events: Vec<EventRef> = cu
                .knowledge
                .events_in(cu.delivered_to, dh)
                .cloned()
                .collect();
            let mut last_event_ts = Timestamp::ZERO;
            for e in events {
                ctx.work(config.costs.catchup_delivery_us);
                self.delivered += 1;
                let wire = delivery_bytes(&e);
                st.stats.bytes_delivered += wire;
                *self.pubend_bytes.entry(p).or_default() += wire;
                ctx.count(names::SHB_CATCHUP_DELIVERED, 1.0);
                last_event_ts = e.ts;
                traced!(ctx.delivered(p, e.ts, DeliveryPath::Catchup, &[sub]));
                deliver(
                    conn,
                    sub,
                    DeliveryMsg {
                        pubend: p,
                        kind: DeliveryKind::Event(e),
                    },
                    gated,
                    ctx,
                );
            }
            if dh > last_event_ts {
                deliver(
                    conn,
                    sub,
                    DeliveryMsg {
                        pubend: p,
                        kind: DeliveryKind::Silence(dh),
                    },
                    gated,
                    ctx,
                );
            }
            cu.delivered_to = dh;
            cu.knowledge.advance_base(dh);
        }
        needs.authoritative = cu.refilter;
        // 2. Switchover?
        if cu.delivered_to >= con.processed_to {
            conn.last_sent.insert(p, cu.delivered_to);
            needs.switched = true;
            let latency_us = ctx.now_us().saturating_sub(cu.started_at_us);
            traced!(ctx.trace(TraceEvent::Switchover {
                pubend: p,
                sub,
                latency_us,
            }));
            traced!(ctx.observe(names::SHB_SWITCHOVER_LATENCY_US, latency_us as f64));
            if conn.catchup.is_empty() {
                self.catchup_slots.remove(&slot.index());
            }
            return needs;
        }
        // 3. Plan recovery within the flow-control window.
        let window_end = (cu.delivered_to + config.catchup_window_ticks)
            .min(con.processed_to)
            .min(pace_limit + config.catchup_window_ticks);
        let ld = con.latest_delivered;
        for (f, t) in cu.knowledge.q_ranges(cu.delivered_to, window_end) {
            // Below PFS coverage: events known to match → nack directly.
            let covered = cu.pfs_covered_to;
            if f <= covered {
                needs.holes.push((f, t.min(covered)));
            }
            // Between PFS coverage and latestDelivered: ask the PFS first
            // (that is the whole point of persistent filtering).
            if t > covered && f <= ld && covered < ld && !cu.reading {
                needs.want_read = true;
            }
            // Above latestDelivered: the PFS has nothing; recover from
            // the broker cache / upstream.
            let above = f.max(ld.next()).max(covered.next());
            if above <= t {
                needs.holes.push((above, t));
            }
        }
        conn.catchup.insert(p, cu);
        st.stats.nacks += needs.holes.len() as u64;
        needs
    }

    /// Restores volatile invariants after a crash simulated in place:
    /// every connection is gone; constreams resume from the durable
    /// `latestDelivered`. A broker restart opens its SHB afresh instead
    /// (`Shb::open` already starts in this state); this is for tests and
    /// benches that crash one `Shb` value without reopening it.
    pub fn post_restart(&mut self) {
        self.connected.clear();
        self.catchup_slots.clear();
        for (_, st) in self.table.iter_mut() {
            st.conn = None;
        }
        for worker in &mut self.workers {
            worker.queue.clear();
            worker.committing.clear();
            worker.busy = false;
        }
        for con in self.con.values_mut() {
            con.processed_to = con.latest_delivered;
        }
    }
}

/// One durable meta key of the SHB. [`Key::build`] writes it and
/// [`Key::parse`] reads it back: the only place the formats live.
/// Timestamps are stored as little-endian `u64`s ([`ts_value`]).
#[derive(Debug, Clone, Copy)]
enum Key {
    /// `spec/{sub}`: the subscription's filter expression.
    Spec(SubscriberId),
    /// `gated/{sub}`: delivery waits on each checkpoint commit.
    Gated(SubscriberId),
    /// `bct/{sub}`: checkpoints are broker-managed.
    Bct(SubscriberId),
    /// `rel/{sub}/{p}`: `released(s, p)`.
    Rel(SubscriberId, PubendId),
    /// `jct/{sub}/{p}`: the broker-stored checkpoint.
    Jct(SubscriberId, PubendId),
    /// `ld/{p}`: `latestDelivered(p)`.
    Ld(PubendId),
}

impl Key {
    fn build(self) -> String {
        match self {
            Key::Spec(s) => format!("spec/{}", s.0),
            Key::Gated(s) => format!("gated/{}", s.0),
            Key::Bct(s) => format!("bct/{}", s.0),
            Key::Rel(s, p) => format!("rel/{}/{}", s.0, p.0),
            Key::Jct(s, p) => format!("jct/{}/{}", s.0, p.0),
            Key::Ld(p) => format!("ld/{}", p.0),
        }
    }

    fn parse(key: &str) -> Option<Key> {
        let (kind, id) = key.split_once('/')?;
        let sub = || id.parse().ok().map(SubscriberId);
        let pair = || {
            let (s, p) = id.split_once('/')?;
            Some((SubscriberId(s.parse().ok()?), PubendId(p.parse().ok()?)))
        };
        Some(match kind {
            "spec" => Key::Spec(sub()?),
            "gated" => Key::Gated(sub()?),
            "bct" => Key::Bct(sub()?),
            "rel" => pair().map(|(s, p)| Key::Rel(s, p))?,
            "jct" => pair().map(|(s, p)| Key::Jct(s, p))?,
            "ld" => Key::Ld(PubendId(id.parse().ok()?)),
            _ => return None,
        })
    }
}

/// A timestamp's stored value.
fn ts_value(t: Timestamp) -> Option<Vec<u8>> {
    Some(t.0.to_le_bytes().to_vec())
}

/// A stored timestamp, if `v` is one.
fn ts_of(v: &[u8]) -> Option<Timestamp> {
    Some(Timestamp(u64::from_le_bytes(v.try_into().ok()?)))
}

/// Approximate wire bytes of one event delivery (payload plus a fixed
/// per-event frame covering pubend + tick), the weight unit of the
/// hottest-subscriber / hottest-pubend attribution dimensions.
fn delivery_bytes(e: &gryphon_types::Event) -> u64 {
    16 + e.payload.len() as u64
}

/// Sends a delivery directly, or queues it for a gated (JMS) subscriber
/// whose previous delivery has not been acknowledged-and-committed yet.
///
/// This is the single funnel every subscriber-bound event and gap passes
/// through. It emits the ledger's `GapDelivered`; the callers report
/// event deliveries through [`NodeCtx::delivered`], once per event. For
/// gated subscribers both mark the queue-accept point, not the later
/// outbox drain — the broker commits to exactly-once here.
fn deliver(
    conn: &mut Conn,
    sub: SubscriberId,
    msg: DeliveryMsg,
    gated: bool,
    ctx: &mut dyn NodeCtx,
) {
    if let DeliveryKind::Gap(upto) = msg.kind {
        traced!(ctx.trace(TraceEvent::GapDelivered {
            pubend: msg.pubend,
            sub,
            upto,
        }));
    }
    if gated {
        conn.outbox.push_back(msg);
        pump_outbox(conn, sub, ctx);
    } else {
        ctx.send(
            conn.client,
            gryphon_types::NetMsg::Server(ServerMsg::Deliver { sub, msg }),
        );
    }
}

/// Sends the next queued delivery of a gated subscriber if none is in
/// flight.
fn pump_outbox(conn: &mut Conn, sub: SubscriberId, ctx: &mut dyn NodeCtx) {
    if conn.in_flight {
        return;
    }
    if let Some(msg) = conn.outbox.pop_front() {
        conn.in_flight = true;
        ctx.send(
            conn.client,
            gryphon_types::NetMsg::Server(ServerMsg::Deliver { sub, msg }),
        );
    }
}
