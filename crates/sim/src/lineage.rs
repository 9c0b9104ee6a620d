//! End-to-end delivery lineage: per-event stage spans, latency
//! attribution, and the correctness oracle — the exactly-once delivery
//! ledger and the three protocol-invariant watchdogs.
//!
//! ## Span model
//!
//! Every persistent event is already uniquely named by its
//! [`LineageKey`] `(pubend, timestamp)` — the paper's tick model (§2)
//! means lineage needs **no new wire bytes**. The broker roles emit
//! stage-transition [`TraceEvent`]s at every hop of an event's life:
//!
//! ```text
//! PubendTimestamped → EventLogged → IbForwarded → ShbIngested → Delivered
//!      (birth)          (PHB log)    (per child)    (per SHB)   (per sub)
//! ```
//!
//! The SHB reports the last stage once per delivered event, for all the
//! subscribers it reached
//! ([`Observers::delivered`](crate::Observers::delivered)): the span,
//! histogram and lag work runs once, the ledger checks each subscriber.
//! A `Delivered` record is the one-subscriber case.
//!
//! The [`Lineage`] assembler folds that stream into per-span anchors and
//! per-stage latency histograms (`lineage.stage.*_us`). Stages are
//! deduplicated *first occurrence wins* — recovery re-forwards and
//! re-ingests legitimately re-emit — except the birth anchor, where the
//! **last** occurrence wins because a PHB crash re-timestamps unlogged
//! publishes. A stage whose predecessor anchor is unknown (span evicted,
//! or a recovery path skipped a hop) counts as `lineage.stage_orphans`
//! instead of polluting a histogram.
//!
//! ## Span store
//!
//! Spans are the observers' one per-event cost, so they are stored flat:
//! per pubend, one run of `(tick, Span)` ascending by tick. PHB births
//! and SHB constream ingests arrive in tick order, so a new span is
//! appended and a lookup hits the back; an out-of-order first anchor (a
//! nack response, a catchup of an evicted tick) is binary-searched and
//! inserted in place. A [`Span`] owns no collection: three anchors, one
//! inline SHB ingest and the delivery count are 64 B, 72 B with its tick
//! in the run — at most 128 B of live heap with the run's growth slack,
//! and one allocation per doubling of a run rather than one per span.
//! Only the ingests of further SHBs (an IB tree under one ledger) spill
//! to the heap.
//!
//! A ledger holds at most [`DEFAULT_MAX_SPANS`]. A new span beyond that
//! evicts the oldest: the lowest tick among the runs' fronts, ties to
//! the lowest pubend, so eviction is deterministic and no pubend loses
//! its new spans while another keeps its old ones
//! (`lineage.spans_evicted`). The threaded runtime merges its workers'
//! ledgers once, at stop, by value ([`Lineage::merge`]).
//!
//! ## Delivery ledger
//!
//! The ledger audits exactly-once per `(subscriber, pubend, timestamp)`
//! across reconnects — the end-to-end property the paper's three local
//! invariants cannot express. [`TraceEvent::SubResumed`] opens a
//! *session* at the broker-computed resume checkpoint; within a session
//! deliveries must be strictly increasing (`lineage.ledger.duplicate`
//! otherwise), must stay above the resume checkpoint
//! (`lineage.ledger.reconnect_duplicate`), and gap messages must never
//! cover ticks beyond the release/L-conversion boundary
//! (`lineage.ledger.gap_beyond_release`). With
//! [`Lineage::set_full_audit`] (tests under match-all filters), the
//! ledger additionally records the full delivered/gap sets so
//! [`Lineage::audit`] can prove **zero missing** deliveries offline.
//!
//! ## Watchdogs
//!
//! Three invariants from the paper are checked per `(node, pubend)` on
//! the same records:
//!
//! * **gap-free constream** (§4.1): each `ConstreamGapCheck` advance
//!   starts exactly where the previous one ended
//!   (`watchdog.constream_gap`);
//! * **monotone doubt horizon** (§3): `DoubtAdvanced` never regresses
//!   (`watchdog.doubt_regress`);
//! * **only-once logging** (§2): the PHB logs each timestamp at most
//!   once, in ascending order (`watchdog.double_log`).
//!
//! The first two reset when a node restarts (recovery legitimately
//! re-derives delivery state from the persistent `latestDelivered`); the
//! logging invariant deliberately survives restarts, because
//! `restart_at` must re-timestamp above everything previously logged.
//!
//! ## Violations
//!
//! Every check ends in one `violate()`: it counts, remembers the counter
//! and detail string ([`Lineage::last_violation`]), and never panics.
//! What a trip does is the runtime's call — the simulator dumps a
//! flight-recorder post-mortem and then panics if armed; the threaded
//! runtime only counts.

use crate::forensics::ExemplarReservoir;
use crate::metrics::names;
use crate::trace::{DeliveryPath, TraceEvent, TraceRecord};
use crate::Metrics;
use gryphon_types::{LineageKey, NodeId, PubendId, SubscriberId, Timestamp};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Default bound on live spans per [`Lineage`] (eviction rule in the
/// [module docs](self)).
pub const DEFAULT_MAX_SPANS: usize = 262_144;

/// An anchor slot's "not yet seen": virtual time never reaches it.
const UNSET: u64 = u64::MAX;

fn anchor(t: u64) -> Option<u64> {
    (t != UNSET).then_some(t)
}

/// Virtual-µs anchors of one event's life, keyed by [`LineageKey`]. Owns
/// no collection: the anchors are inline words, and so is one SHB ingest;
/// only the ingests of further SHBs (an IB tree observed by one
/// [`Lineage`]) spill to a boxed slice. The ingests are kept sorted by
/// node — the inline one is the lowest — so equal spans compare equal
/// whatever order their ingests arrived in.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    birth_us: u64,
    log_us: u64,
    forward_us: u64,
    ingest_us: u64,
    ingest_node: NodeId,
    more_ingests: Option<Box<[(NodeId, u64)]>>,
    /// Deliveries of this event across all subscribers.
    pub deliveries: u64,
}

impl Default for Span {
    fn default() -> Self {
        Span {
            birth_us: UNSET,
            log_us: UNSET,
            forward_us: UNSET,
            ingest_us: UNSET,
            ingest_node: NodeId(0),
            more_ingests: None,
            deliveries: 0,
        }
    }
}

impl Span {
    /// Pubend timestamping time (last occurrence wins — a PHB crash
    /// re-timestamps unlogged publishes).
    pub fn birth_us(&self) -> Option<u64> {
        anchor(self.birth_us)
    }

    /// Durable PHB log time.
    pub fn log_us(&self) -> Option<u64> {
        anchor(self.log_us)
    }

    /// First downstream forward by an IB.
    pub fn forward_us(&self) -> Option<u64> {
        anchor(self.forward_us)
    }

    /// First ingest time per SHB node, in node order.
    pub fn ingests(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let inline = anchor(self.ingest_us).map(|t| (self.ingest_node, t));
        inline
            .into_iter()
            .chain(self.more_ingests.iter().flat_map(|m| m.iter().copied()))
    }

    /// First ingest time at SHB `node`.
    pub fn ingest_us(&self, node: NodeId) -> Option<u64> {
        self.ingests().find(|&(n, _)| n == node).map(|(_, t)| t)
    }

    /// Earliest ingest time across SHB nodes.
    pub fn earliest_ingest_us(&self) -> Option<u64> {
        self.ingests().map(|(_, t)| t).min()
    }

    /// Records the ingest at `node` unless one is already known there
    /// (first wins); whether it was new.
    fn insert_ingest(&mut self, node: NodeId, t: u64) -> bool {
        if self.ingest_us == UNSET {
            (self.ingest_node, self.ingest_us) = (node, t);
            return true;
        }
        if self.ingest_us(node).is_some() {
            return false;
        }
        let mut entry = (node, t);
        if node < self.ingest_node {
            entry = (self.ingest_node, self.ingest_us);
            (self.ingest_node, self.ingest_us) = (node, t);
        }
        let mut more = self.more_ingests.take().map(Vec::from).unwrap_or_default();
        let at = more.partition_point(|&(n, _)| n < entry.0);
        more.insert(at, entry);
        self.more_ingests = Some(more.into_boxed_slice());
        true
    }

    /// Whether the span has the full broker-side chain for a delivered
    /// event: birth, durable log, and at least one SHB ingest. (The IB
    /// forward anchor is absent on combined brokers, where the PHB role
    /// hands events to the co-located SHB directly.)
    pub fn chain_complete(&self) -> bool {
        self.birth_us != UNSET && self.log_us != UNSET && self.ingest_us != UNSET
    }

    pub(crate) fn merge(&mut self, other: Span) {
        // Anchors: first-wins across a merge too, except birth where a
        // later (re-timestamping) anchor should already agree because
        // spans are sharded by pubend; keep self's when present.
        for (mine, theirs) in [
            (&mut self.birth_us, other.birth_us),
            (&mut self.log_us, other.log_us),
            (&mut self.forward_us, other.forward_us),
        ] {
            if *mine == UNSET {
                *mine = theirs;
            }
        }
        for (n, t) in other.ingests() {
            self.insert_ingest(n, t);
        }
        self.deliveries += other.deliveries;
    }

    /// Multi-line human rendering for post-mortem dumps.
    pub fn render(&self, key: LineageKey) -> String {
        let fmt = |v: Option<u64>| match v {
            Some(t) => format!("{t} µs"),
            None => "—".to_owned(),
        };
        let ingests = if self.ingest_us == UNSET {
            "—".to_owned()
        } else {
            self.ingests()
                .map(|(n, t)| format!("{n}:{t} µs"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "span {key}\n  timestamped: {}\n  logged:      {}\n  forwarded:   {}\n  \
             ingested:    {ingests}\n  deliveries:  {}",
            fmt(self.birth_us()),
            fmt(self.log_us()),
            fmt(self.forward_us()),
            self.deliveries,
        )
    }
}

/// One pubend's spans, ascending by tick.
type SpanRun = VecDeque<(Timestamp, Span)>;

/// The live spans: per pubend, a run ascending by tick. PHB births and
/// SHB constream ingests arrive in tick order, so a new span is almost
/// always appended, and a lookup almost always hits the back; anything
/// else binary-searches and inserts in place.
#[derive(Debug, Default)]
struct SpanStore {
    runs: BTreeMap<PubendId, SpanRun>,
    len: usize,
}

/// Where `ts` sits in `run`: `Ok` at its index, `Err` where it would go.
fn locate(run: &SpanRun, ts: Timestamp) -> Result<usize, usize> {
    match run.back() {
        Some(&(last, _)) if last == ts => Ok(run.len() - 1),
        Some(&(last, _)) if last < ts => Err(run.len()),
        None => Err(0),
        Some(_) => run.binary_search_by_key(&ts, |&(t, _)| t),
    }
}

impl SpanStore {
    fn get(&self, key: LineageKey) -> Option<&Span> {
        let run = self.runs.get(&key.pubend)?;
        locate(run, key.ts).ok().map(|i| &run[i].1)
    }

    fn iter(&self) -> impl Iterator<Item = (LineageKey, &Span)> {
        self.runs.iter().flat_map(|(&p, run)| {
            run.iter()
                .map(move |(ts, span)| (LineageKey::new(p, *ts), span))
        })
    }

    /// The span of `key`, created if new. A new span beyond `max` live
    /// ones first evicts the oldest: the lowest tick among the runs'
    /// fronts, ties to the lowest pubend.
    fn entry(&mut self, key: LineageKey, max: usize, metrics: &mut Metrics) -> &mut Span {
        if self.len >= max && self.get(key).is_none() {
            self.evict_oldest();
            metrics.count(names::LINEAGE_SPANS_EVICTED, 1.0);
        }
        let run = self.runs.entry(key.pubend).or_default();
        let i = match locate(run, key.ts) {
            Ok(i) => i,
            Err(i) => {
                run.insert(i, (key.ts, Span::default()));
                self.len += 1;
                i
            }
        };
        &mut run[i].1
    }

    fn evict_oldest(&mut self) {
        let oldest = self
            .runs
            .values_mut()
            .filter_map(|run| Some((run.front()?.0, run)))
            .min_by_key(|&(ts, _)| ts);
        if let Some((_, run)) = oldest {
            run.pop_front();
            self.len -= 1;
        }
    }

    /// Folds `other` in by value: a pubend only `other` has moves over
    /// whole; a shared one merges in place, in one pass from the back.
    fn merge(&mut self, other: SpanStore) {
        for (p, theirs) in other.runs {
            match self.runs.get_mut(&p) {
                Some(mine) if !mine.is_empty() => {
                    let before = mine.len();
                    merge_runs(mine, theirs);
                    self.len += mine.len() - before;
                }
                _ => {
                    self.len += theirs.len();
                    self.runs.insert(p, theirs);
                }
            }
        }
    }
}

/// Merges `theirs` into `mine`, both ascending by tick, without a second
/// buffer: `mine` grows by the ticks only `theirs` has, then the two are
/// merged from the back into the gap. Shared ticks merge their spans,
/// `mine`'s anchors first.
fn merge_runs(mine: &mut SpanRun, mut theirs: SpanRun) {
    let fresh = theirs.iter().filter(|e| locate(mine, e.0).is_err()).count();
    let mut read = mine.len();
    mine.resize_with(read + fresh, Default::default);
    let mut write = mine.len();
    while let Some((ts, span)) = theirs.pop_back() {
        while read > 0 && mine[read - 1].0 > ts {
            read -= 1;
            write -= 1;
            mine.swap(read, write);
        }
        write -= 1;
        if read > 0 && mine[read - 1].0 == ts {
            read -= 1;
            mine[read].1.merge(span);
            mine.swap(read, write);
        } else {
            mine[write] = (ts, span);
        }
    }
}

/// One subscriber×pubend ledger session (broker connection epoch).
#[derive(Debug, Clone, Default, PartialEq)]
struct Session {
    /// Exclusive floor for deliveries in the current session.
    resume: Timestamp,
    /// Last tick delivered (or gap-covered) in the current session.
    cursor: Timestamp,
    /// Lowest resume checkpoint ever seen (full-audit floor).
    audit_floor: Timestamp,
    /// Highest tick ever delivered across sessions.
    max_delivered: Timestamp,
    /// Full-audit only: every tick delivered, across sessions.
    delivered: BTreeSet<Timestamp>,
    /// Full-audit only: gap ranges `(from_exclusive, upto_inclusive]`.
    gaps: Vec<(Timestamp, Timestamp)>,
}

/// The watchdogs' frontiers of one `(node, pubend)` stream.
#[derive(Debug, Clone, Copy, Default)]
struct Frontier {
    /// End of the last constream advance; reset on restart.
    constream: Option<Timestamp>,
    /// Last doubt horizon; reset on restart.
    doubt: Option<Timestamp>,
    /// Highest logged tick; survives restarts.
    logged: Option<Timestamp>,
}

/// Offline audit result; see [`Lineage::audit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerAudit {
    /// In-session duplicate deliveries observed online.
    pub duplicates: u64,
    /// Deliveries at/below a session resume checkpoint (duplicate
    /// across reconnect) observed online.
    pub reconnect_duplicates: u64,
    /// Gap messages covering ticks beyond the release boundary.
    pub gap_beyond_release: u64,
    /// Full-audit only: logged ticks a subscriber should have seen but
    /// never did (neither delivered nor gap-covered). Zero when full
    /// audit is off.
    pub missing: u64,
}

impl LedgerAudit {
    /// Whether the ledger is entirely clean.
    pub fn is_clean(&self) -> bool {
        self.duplicates == 0
            && self.reconnect_duplicates == 0
            && self.gap_beyond_release == 0
            && self.missing == 0
    }
}

/// The lineage assembler and the correctness oracle. Feed it every
/// [`TraceRecord`] (the runtimes do this on emission, before any ring
/// eviction); read back spans, stage histograms (written into the
/// shared [`Metrics`]), violation counts and the exactly-once audit.
#[derive(Debug)]
pub struct Lineage {
    spans: SpanStore,
    max_spans: usize,
    sessions: BTreeMap<(SubscriberId, PubendId), Session>,
    /// Highest `LConverted` boundary per pubend.
    released: BTreeMap<PubendId, Timestamp>,
    /// The watchdogs' frontiers per (node, pubend).
    frontiers: HashMap<(NodeId, PubendId), Frontier>,
    /// Full-audit only: every durably logged tick per pubend.
    logged: BTreeMap<PubendId, BTreeSet<Timestamp>>,
    full_audit: bool,
    watchdog_violations: u64,
    duplicates: u64,
    reconnect_duplicates: u64,
    gap_beyond_release: u64,
    last_violation: Option<(&'static str, String)>,
    /// Tail-exemplar reservoir (DESIGN.md §9); `None` until armed via
    /// [`Lineage::arm_exemplars`]. Pure observer: arming it changes no
    /// span, ledger, or histogram state.
    exemplars: Option<ExemplarReservoir>,
}

impl Default for Lineage {
    fn default() -> Self {
        Lineage {
            spans: SpanStore::default(),
            max_spans: DEFAULT_MAX_SPANS,
            sessions: BTreeMap::new(),
            released: BTreeMap::new(),
            frontiers: HashMap::new(),
            logged: BTreeMap::new(),
            full_audit: false,
            watchdog_violations: 0,
            duplicates: 0,
            reconnect_duplicates: 0,
            gap_beyond_release: 0,
            last_violation: None,
            exemplars: None,
        }
    }
}

impl Lineage {
    /// Enables full-audit mode: record complete delivered/gap sets so
    /// [`Lineage::audit`] can prove zero *missing* deliveries. Only
    /// meaningful under match-all subscriptions (a filtered subscriber
    /// legitimately never sees non-matching ticks); costs memory
    /// proportional to deliveries.
    pub fn set_full_audit(&mut self, on: bool) {
        self.full_audit = on;
    }

    /// Arms tail-exemplar capture: every stage-histogram observation is
    /// offered to `reservoir`, and samples above its cached tail
    /// quantile survive for the runtime to drain each sampler window.
    pub fn arm_exemplars(&mut self, reservoir: ExemplarReservoir) {
        self.exemplars = Some(reservoir);
    }

    /// The armed exemplar reservoir, for the runtime's window drain.
    pub fn exemplars_mut(&mut self) -> Option<&mut ExemplarReservoir> {
        self.exemplars.as_mut()
    }

    /// Total ledger violations observed online.
    pub fn violations(&self) -> u64 {
        self.duplicates + self.reconnect_duplicates + self.gap_beyond_release
    }

    /// Total protocol-watchdog violations observed online.
    pub fn watchdog_violations(&self) -> u64 {
        self.watchdog_violations
    }

    /// The most recent violation of either kind: the counter it bumped
    /// (`watchdog.*` or `lineage.ledger.*`) and its description.
    pub fn last_violation(&self) -> Option<(&'static str, &str)> {
        self.last_violation.as_ref().map(|(c, d)| (*c, d.as_str()))
    }

    /// The span assembled for `key`, if still live.
    pub fn span(&self, key: LineageKey) -> Option<&Span> {
        self.spans.get(key)
    }

    /// All live spans, ordered by `(pubend, ts)`.
    pub fn spans(&self) -> impl Iterator<Item = (LineageKey, &Span)> {
        self.spans.iter()
    }

    /// Keys of delivered events whose broker-side stage chain is
    /// incomplete (missing birth, log, or ingest anchor) — the
    /// acceptance check "every delivered event has a complete chain".
    pub fn incomplete_delivered(&self) -> Vec<LineageKey> {
        self.spans
            .iter()
            .filter(|(_, s)| s.deliveries > 0 && !s.chain_complete())
            .map(|(k, _)| k)
            .collect()
    }

    /// The one violation path, for every check: counts `counter` and
    /// remembers it with `detail`. Never panics.
    fn violate(&mut self, metrics: &mut Metrics, counter: &'static str, detail: String) {
        match counter {
            names::LINEAGE_LEDGER_DUPLICATE => self.duplicates += 1,
            names::LINEAGE_LEDGER_RECONNECT_DUPLICATE => self.reconnect_duplicates += 1,
            names::LINEAGE_LEDGER_GAP_BEYOND_RELEASE => self.gap_beyond_release += 1,
            _ => self.watchdog_violations += 1,
        }
        metrics.count(counter, 1.0);
        self.last_violation = Some((counter, detail));
    }

    fn frontier(&mut self, node: NodeId, pubend: PubendId) -> &mut Frontier {
        self.frontiers.entry((node, pubend)).or_default()
    }

    /// Observes one stage latency `n` times (once per subscriber a
    /// delivered event reached) and, when exemplar capture is armed,
    /// offers the sample once to the tail reservoir — after the
    /// observation, so the cumulative distribution the threshold derives
    /// from already includes it.
    fn observe_stage(
        &mut self,
        series: &'static str,
        value: f64,
        n: u64,
        t: u64,
        key: LineageKey,
        metrics: &mut Metrics,
    ) {
        metrics.observe_n(series, value, n);
        if let Some(r) = self.exemplars.as_mut() {
            r.offer(t, series, value, key, metrics);
        }
    }

    fn span_entry(&mut self, key: LineageKey, metrics: &mut Metrics) -> &mut Span {
        self.spans.entry(key, self.max_spans, metrics)
    }

    /// Feeds one record through the assembler and the oracle.
    /// Histograms and violation counters land in `metrics`.
    pub fn observe(&mut self, rec: &TraceRecord, metrics: &mut Metrics) {
        let (t, node) = (rec.t_us, rec.node);
        match rec.event {
            TraceEvent::PubendTimestamped { pubend, ts } => {
                let span = self.span_entry(LineageKey::new(pubend, ts), metrics);
                // Last wins: a PHB crash re-timestamps unlogged events.
                span.birth_us = t;
            }
            TraceEvent::EventLogged { pubend, ts, .. } => {
                let f = self.frontier(node, pubend);
                let last = f.logged;
                f.logged = last.max(Some(ts));
                if let Some(last) = last.filter(|&last| ts <= last) {
                    self.violate(
                        metrics,
                        names::WATCHDOG_DUPLICATE_LOG,
                        format!(
                            "only-once logging violated at {node} {pubend}: logged {ts} \
                             after {last}"
                        ),
                    );
                }
                if self.full_audit {
                    self.logged.entry(pubend).or_default().insert(ts);
                }
                let key = LineageKey::new(pubend, ts);
                let span = self.span_entry(key, metrics);
                if span.log_us == UNSET {
                    span.log_us = t;
                    match span.birth_us() {
                        Some(b) => self.observe_stage(
                            names::LINEAGE_STAGE_LOG_US,
                            t.saturating_sub(b) as f64,
                            1,
                            t,
                            key,
                            metrics,
                        ),
                        None => metrics.count(names::LINEAGE_STAGE_ORPHANS, 1.0),
                    }
                }
            }
            TraceEvent::IbForwarded { pubend, ts } => {
                let key = LineageKey::new(pubend, ts);
                let span = self.span_entry(key, metrics);
                if span.forward_us == UNSET {
                    span.forward_us = t;
                    match span.log_us().or(span.birth_us()) {
                        Some(a) => self.observe_stage(
                            names::LINEAGE_STAGE_IB_FORWARD_US,
                            t.saturating_sub(a) as f64,
                            1,
                            t,
                            key,
                            metrics,
                        ),
                        None => metrics.count(names::LINEAGE_STAGE_ORPHANS, 1.0),
                    }
                }
            }
            TraceEvent::ShbIngested { pubend, ts } => {
                let key = LineageKey::new(pubend, ts);
                let span = self.span_entry(key, metrics);
                if span.insert_ingest(node, t) {
                    match span.forward_us().or(span.log_us()).or(span.birth_us()) {
                        Some(a) => self.observe_stage(
                            names::LINEAGE_STAGE_SHB_INGEST_US,
                            t.saturating_sub(a) as f64,
                            1,
                            t,
                            key,
                            metrics,
                        ),
                        None => metrics.count(names::LINEAGE_STAGE_ORPHANS, 1.0),
                    }
                }
            }
            TraceEvent::Delivered {
                pubend,
                ts,
                sub,
                path,
            } => {
                self.delivered_event(t, node, pubend, ts, path, 1, metrics);
                self.ledger_delivered(pubend, ts, sub, metrics);
            }
            TraceEvent::GapDelivered { pubend, sub, upto } => {
                let released = self.released.get(&pubend).copied();
                let sess = self.sessions.entry((sub, pubend)).or_default();
                let from = sess.cursor;
                if self.full_audit && upto > from {
                    sess.gaps.push((from, upto));
                }
                sess.cursor = sess.cursor.max(upto);
                let beyond = match released {
                    Some(r) => upto > r,
                    None => true,
                };
                if beyond {
                    let bound = released.unwrap_or(Timestamp::ZERO);
                    self.violate(
                        metrics,
                        names::LINEAGE_LEDGER_GAP_BEYOND_RELEASE,
                        format!(
                            "gap beyond release: {sub} told ticks ≤ {upto} on {pubend} are \
                             lost, but L-conversion only reached {bound}"
                        ),
                    );
                }
            }
            TraceEvent::SubResumed { sub, pubend, at } => {
                let sess = self.sessions.entry((sub, pubend)).or_default();
                let first = sess.audit_floor == Timestamp::ZERO
                    && sess.delivered.is_empty()
                    && sess.max_delivered == Timestamp::ZERO
                    && sess.cursor == Timestamp::ZERO;
                sess.resume = at;
                sess.cursor = at;
                if first {
                    sess.audit_floor = at;
                } else {
                    sess.audit_floor = sess.audit_floor.min(at);
                }
            }
            TraceEvent::LConverted { pubend, upto } => {
                let e = self.released.entry(pubend).or_insert(Timestamp::ZERO);
                *e = (*e).max(upto);
            }
            TraceEvent::ConstreamGapCheck {
                pubend,
                prev,
                new_to,
            } => {
                let last = self.frontier(node, pubend).constream.replace(new_to);
                if let Some(last) = last.filter(|&last| prev != last) {
                    self.violate(
                        metrics,
                        names::WATCHDOG_CONSTREAM_GAP,
                        format!(
                            "constream gap at {node} {pubend}: advance starts at {prev} \
                             but previous advance ended at {last}"
                        ),
                    );
                }
            }
            TraceEvent::DoubtAdvanced { pubend, horizon } => {
                let last = self.frontier(node, pubend).doubt.replace(horizon);
                if let Some(last) = last.filter(|&last| horizon < last) {
                    self.violate(
                        metrics,
                        names::WATCHDOG_DOUBT_REGRESSION,
                        format!("doubt horizon regressed at {node} {pubend}: {horizon} < {last}"),
                    );
                }
            }
            TraceEvent::NodeRestarted => {
                // Recovery rebuilds delivery state from the persisted
                // latestDelivered, which may sit below the pre-crash
                // in-memory frontier: both delivery-side checks restart
                // from scratch. The log frontier survives (module docs).
                for (_, f) in self.frontiers.iter_mut().filter(|((n, _), _)| *n == node) {
                    f.constream = None;
                    f.doubt = None;
                }
            }
            _ => {}
        }
    }

    /// The lineage work one delivered event costs once, however many
    /// subscribers (`n`) it reached: span and `deliveries += n`, the
    /// deliver and path stage histograms as one weighted observe (or
    /// `n` orphans) and one exemplar offer. Nothing for
    /// `n == 0`. A `Delivered` record is the `n == 1` case;
    /// [`Observers::delivered`](crate::Observers::delivered) passes a
    /// whole event's fan-out.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn delivered_event(
        &mut self,
        t: u64,
        node: NodeId,
        pubend: PubendId,
        ts: Timestamp,
        path: DeliveryPath,
        n: u64,
        metrics: &mut Metrics,
    ) {
        if n == 0 {
            return;
        }
        let key = LineageKey::new(pubend, ts);
        let span = self.span_entry(key, metrics);
        span.deliveries += n;
        let birth = span.birth_us();
        let ingest = span.ingest_us(node);
        match birth {
            Some(b) => self.observe_stage(
                names::LINEAGE_STAGE_DELIVER_US,
                t.saturating_sub(b) as f64,
                n,
                t,
                key,
                metrics,
            ),
            None => metrics.count(names::LINEAGE_STAGE_ORPHANS, n as f64),
        }
        if let Some(i) = ingest {
            let stage = match path {
                DeliveryPath::Catchup => names::LINEAGE_STAGE_CATCHUP_US,
                DeliveryPath::Constream => names::LINEAGE_STAGE_CONSTREAM_US,
            };
            self.observe_stage(stage, t.saturating_sub(i) as f64, n, t, key, metrics);
        }
    }

    /// The ledger check of one delivery to `sub`: exactly-once within
    /// and across sessions.
    pub(crate) fn ledger_delivered(
        &mut self,
        pubend: PubendId,
        ts: Timestamp,
        sub: SubscriberId,
        metrics: &mut Metrics,
    ) {
        let key = LineageKey::new(pubend, ts);
        let sess = self.sessions.entry((sub, pubend)).or_default();
        sess.max_delivered = sess.max_delivered.max(ts);
        if self.full_audit {
            sess.delivered.insert(ts);
        }
        if ts <= sess.resume {
            let (resume, cursor) = (sess.resume, sess.cursor);
            self.violate(
                metrics,
                names::LINEAGE_LEDGER_RECONNECT_DUPLICATE,
                format!(
                    "duplicate across reconnect: {key} delivered to {sub} at or below \
                     its resume checkpoint {resume} (cursor {cursor})"
                ),
            );
        } else if ts <= sess.cursor {
            let cursor = sess.cursor;
            self.violate(
                metrics,
                names::LINEAGE_LEDGER_DUPLICATE,
                format!(
                    "duplicate delivery: {key} delivered to {sub} but its session \
                     cursor already reached {cursor}"
                ),
            );
        } else {
            sess.cursor = ts;
        }
    }

    /// Offline exactly-once audit. The online duplicate counters are
    /// always exact; `missing` needs [`Lineage::set_full_audit`] and
    /// match-all subscriptions — it reports logged ticks inside a
    /// subscriber's audited window `(first resume, max delivered]` that
    /// were neither delivered nor covered by a gap message.
    pub fn audit(&self) -> LedgerAudit {
        let mut missing = 0u64;
        if self.full_audit {
            for (&(_sub, pubend), sess) in &self.sessions {
                let Some(logged) = self.logged.get(&pubend) else {
                    continue;
                };
                // A session resumed above everything it was ever
                // delivered has an empty window (and `range` would panic
                // on the inverted bounds).
                if sess.max_delivered <= sess.audit_floor {
                    continue;
                }
                for &ts in logged.range((
                    std::ops::Bound::Excluded(sess.audit_floor),
                    std::ops::Bound::Included(sess.max_delivered),
                )) {
                    if sess.delivered.contains(&ts) {
                        continue;
                    }
                    if sess.gaps.iter().any(|&(f, u)| ts > f && ts <= u) {
                        continue;
                    }
                    missing += 1;
                }
            }
        }
        LedgerAudit {
            duplicates: self.duplicates,
            reconnect_duplicates: self.reconnect_duplicates,
            gap_beyond_release: self.gap_beyond_release,
            missing,
        }
    }

    /// Folds another lineage into `self`, by value: nothing is copied
    /// that can be moved. Used by the threaded runtime to merge the
    /// per-worker ledgers once, in `stop()`, **in worker-index order** so
    /// the result is deterministic. A worker hosts one node: an event's
    /// stages land on several workers (anchors merge first-wins), the
    /// watchdogs' frontiers are disjoint, and where a subscriber holds a
    /// session on two workers' SHBs the session that delivered further
    /// wins the cursor state. Tail exemplars are window state, not ledger
    /// state: they travel through
    /// [`Observers::absorb`](crate::Observers::absorb) instead.
    pub fn merge(&mut self, other: Lineage) {
        self.spans.merge(other.spans);
        for (k, sess) in other.sessions {
            match self.sessions.entry(k) {
                Entry::Vacant(e) => {
                    e.insert(sess);
                }
                Entry::Occupied(mut e) => {
                    let mine = e.get_mut();
                    // Owner shard (larger cursor/max_delivered) wins the
                    // cursor state; audit sets union.
                    if (sess.max_delivered, sess.cursor) > (mine.max_delivered, mine.cursor) {
                        mine.resume = sess.resume;
                        mine.cursor = sess.cursor;
                        mine.max_delivered = sess.max_delivered;
                    }
                    mine.audit_floor = mine.audit_floor.min(sess.audit_floor);
                    mine.delivered.extend(sess.delivered);
                    mine.gaps.extend(sess.gaps);
                }
            }
        }
        for (p, r) in other.released {
            let e = self.released.entry(p).or_insert(Timestamp::ZERO);
            *e = (*e).max(r);
        }
        self.frontiers.extend(other.frontiers);
        for (p, set) in other.logged {
            self.logged.entry(p).or_default().extend(set);
        }
        self.full_audit |= other.full_audit;
        self.watchdog_violations += other.watchdog_violations;
        self.duplicates += other.duplicates;
        self.reconnect_duplicates += other.reconnect_duplicates;
        self.gap_beyond_release += other.gap_beyond_release;
        if self.last_violation.is_none() {
            self.last_violation = other.last_violation;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHB: NodeId = NodeId(1);
    const IB: NodeId = NodeId(2);
    const SHB: NodeId = NodeId(3);
    const P: PubendId = PubendId(0);
    const S: SubscriberId = SubscriberId(7);

    fn rec(t_us: u64, node: NodeId, event: TraceEvent) -> TraceRecord {
        TraceRecord { t_us, node, event }
    }

    /// Drives one event through every stage and checks anchors, the
    /// stage histograms and the ledger cursor.
    #[test]
    fn full_chain_assembles_and_attributes_latency() {
        let mut lin = Lineage::default();
        let mut m = Metrics::default();
        let ts = Timestamp(5);
        lin.observe(
            &rec(100, PHB, TraceEvent::PubendTimestamped { pubend: P, ts }),
            &mut m,
        );
        lin.observe(
            &rec(
                400,
                PHB,
                TraceEvent::EventLogged {
                    pubend: P,
                    ts,
                    bytes: 64,
                },
            ),
            &mut m,
        );
        lin.observe(
            &rec(600, IB, TraceEvent::IbForwarded { pubend: P, ts }),
            &mut m,
        );
        lin.observe(
            &rec(900, SHB, TraceEvent::ShbIngested { pubend: P, ts }),
            &mut m,
        );
        lin.observe(
            &rec(
                1500,
                SHB,
                TraceEvent::Delivered {
                    pubend: P,
                    ts,
                    sub: S,
                    path: DeliveryPath::Constream,
                },
            ),
            &mut m,
        );
        let span = lin.span(LineageKey::new(P, ts)).unwrap();
        assert!(span.chain_complete());
        assert_eq!(span.deliveries, 1);
        assert_eq!(
            m.histogram(names::LINEAGE_STAGE_LOG_US).unwrap().sum(),
            300.0
        );
        assert_eq!(
            m.histogram(names::LINEAGE_STAGE_IB_FORWARD_US)
                .unwrap()
                .sum(),
            200.0
        );
        assert_eq!(
            m.histogram(names::LINEAGE_STAGE_SHB_INGEST_US)
                .unwrap()
                .sum(),
            300.0
        );
        assert_eq!(
            m.histogram(names::LINEAGE_STAGE_CONSTREAM_US)
                .unwrap()
                .sum(),
            600.0
        );
        assert_eq!(
            m.histogram(names::LINEAGE_STAGE_DELIVER_US).unwrap().sum(),
            1400.0
        );
        assert_eq!(lin.violations(), 0);
        assert!(lin.incomplete_delivered().is_empty());
        assert!(span
            .render(LineageKey::new(P, ts))
            .contains("deliveries:  1"));
    }

    /// Stage re-emissions (recovery re-forward / re-ingest) keep the
    /// first anchor; a delivery without its ingest anchor counts as an
    /// orphan rather than a bogus histogram sample.
    #[test]
    fn dedup_first_wins_and_orphans_counted() {
        let mut lin = Lineage::default();
        let mut m = Metrics::default();
        let ts = Timestamp(9);
        lin.observe(
            &rec(10, IB, TraceEvent::IbForwarded { pubend: P, ts }),
            &mut m,
        );
        // No birth/log anchor yet: the forward is an orphan.
        assert_eq!(m.counter(names::LINEAGE_STAGE_ORPHANS), 1.0);
        lin.observe(
            &rec(50, IB, TraceEvent::IbForwarded { pubend: P, ts }),
            &mut m,
        );
        assert_eq!(
            lin.span(LineageKey::new(P, ts)).unwrap().forward_us(),
            Some(10),
            "first occurrence wins"
        );
        // Delivery with no span anchors at all: orphaned end-to-end.
        lin.observe(
            &rec(
                99,
                SHB,
                TraceEvent::Delivered {
                    pubend: P,
                    ts: Timestamp(1000), // different span
                    sub: S,
                    path: DeliveryPath::Catchup,
                },
            ),
            &mut m,
        );
        assert_eq!(m.counter(names::LINEAGE_STAGE_ORPHANS), 2.0);
        assert_eq!(
            lin.incomplete_delivered(),
            vec![LineageKey::new(P, Timestamp(1000))]
        );
    }

    /// The ledger: in-session monotone deliveries are clean; a repeat is
    /// a duplicate; after a SubResumed at a lower checkpoint, redelivery
    /// above the checkpoint is clean but at/below it is a
    /// reconnect-duplicate.
    #[test]
    fn ledger_flags_duplicates_within_and_across_sessions() {
        let mut lin = Lineage::default();
        let mut m = Metrics::default();
        let deliver = |ts: u64| TraceEvent::Delivered {
            pubend: P,
            ts: Timestamp(ts),
            sub: S,
            path: DeliveryPath::Constream,
        };
        lin.observe(
            &rec(
                1,
                SHB,
                TraceEvent::SubResumed {
                    sub: S,
                    pubend: P,
                    at: Timestamp(0),
                },
            ),
            &mut m,
        );
        lin.observe(&rec(2, SHB, deliver(1)), &mut m);
        lin.observe(&rec(3, SHB, deliver(2)), &mut m);
        assert_eq!(lin.violations(), 0);
        lin.observe(&rec(4, SHB, deliver(2)), &mut m); // in-session dup
        assert_eq!(lin.violations(), 1);
        assert_eq!(m.counter(names::LINEAGE_LEDGER_DUPLICATE), 1.0);
        let (_, detail) = lin.last_violation().unwrap();
        assert!(detail.contains("duplicate delivery"));
        // Reconnect from checkpoint t1: redelivering t2 is legitimate...
        lin.observe(
            &rec(
                5,
                SHB,
                TraceEvent::SubResumed {
                    sub: S,
                    pubend: P,
                    at: Timestamp(1),
                },
            ),
            &mut m,
        );
        lin.observe(&rec(6, SHB, deliver(2)), &mut m);
        assert_eq!(lin.violations(), 1);
        // ...but t1 itself (≤ the checkpoint) is a reconnect-duplicate.
        lin.observe(
            &rec(
                7,
                SHB,
                TraceEvent::SubResumed {
                    sub: S,
                    pubend: P,
                    at: Timestamp(1),
                },
            ),
            &mut m,
        );
        lin.observe(&rec(8, SHB, deliver(1)), &mut m);
        assert_eq!(lin.violations(), 2);
        assert_eq!(m.counter(names::LINEAGE_LEDGER_RECONNECT_DUPLICATE), 1.0);
        let audit = lin.audit();
        assert_eq!(audit.duplicates, 1);
        assert_eq!(audit.reconnect_duplicates, 1);
        assert!(!audit.is_clean());
    }

    /// Gap messages must stay at or below the L-conversion boundary.
    #[test]
    fn gap_beyond_release_boundary_is_flagged() {
        let mut lin = Lineage::default();
        let mut m = Metrics::default();
        lin.observe(
            &rec(
                1,
                IB,
                TraceEvent::LConverted {
                    pubend: P,
                    upto: Timestamp(10),
                },
            ),
            &mut m,
        );
        lin.observe(
            &rec(
                2,
                SHB,
                TraceEvent::GapDelivered {
                    pubend: P,
                    sub: S,
                    upto: Timestamp(10),
                },
            ),
            &mut m,
        );
        assert_eq!(lin.violations(), 0, "gap within the released range");
        lin.observe(
            &rec(
                3,
                SHB,
                TraceEvent::GapDelivered {
                    pubend: P,
                    sub: S,
                    upto: Timestamp(25),
                },
            ),
            &mut m,
        );
        assert_eq!(lin.violations(), 1);
        assert_eq!(m.counter(names::LINEAGE_LEDGER_GAP_BEYOND_RELEASE), 1.0);
    }

    /// Full audit: a logged tick inside the audited window that was
    /// neither delivered nor gap-covered is missing; gap-covered ticks
    /// are not.
    #[test]
    fn full_audit_detects_missing_deliveries() {
        let mut lin = Lineage::default();
        lin.set_full_audit(true);
        let mut m = Metrics::default();
        let log = |ts: u64| TraceEvent::EventLogged {
            pubend: P,
            ts: Timestamp(ts),
            bytes: 1,
        };
        let deliver = |ts: u64| TraceEvent::Delivered {
            pubend: P,
            ts: Timestamp(ts),
            sub: S,
            path: DeliveryPath::Catchup,
        };
        for t in 1..=5u64 {
            lin.observe(&rec(t, PHB, log(t)), &mut m);
        }
        lin.observe(
            &rec(
                10,
                SHB,
                TraceEvent::SubResumed {
                    sub: S,
                    pubend: P,
                    at: Timestamp(0),
                },
            ),
            &mut m,
        );
        lin.observe(&rec(11, SHB, deliver(1)), &mut m);
        lin.observe(&rec(12, SHB, deliver(2)), &mut m);
        // tick 3 skipped silently; tick 4 covered by a gap; tick 5 delivered.
        lin.observe(&rec(13, SHB, deliver(4)), &mut m);
        let mut lin2 = Lineage::default();
        lin2.set_full_audit(true);
        // Build the clean variant in a fresh ledger: 3 skipped, 4 gapped.
        for t in 1..=5u64 {
            lin2.observe(&rec(t, PHB, log(t)), &mut m);
        }
        lin2.observe(
            &rec(
                10,
                SHB,
                TraceEvent::SubResumed {
                    sub: S,
                    pubend: P,
                    at: Timestamp(0),
                },
            ),
            &mut m,
        );
        lin2.observe(&rec(11, SHB, deliver(1)), &mut m);
        lin2.observe(&rec(12, SHB, deliver(2)), &mut m);
        lin2.observe(
            &rec(
                13,
                IB,
                TraceEvent::LConverted {
                    pubend: P,
                    upto: Timestamp(4),
                },
            ),
            &mut m,
        );
        lin2.observe(
            &rec(
                14,
                SHB,
                TraceEvent::GapDelivered {
                    pubend: P,
                    sub: S,
                    upto: Timestamp(4),
                },
            ),
            &mut m,
        );
        lin2.observe(&rec(15, SHB, deliver(5)), &mut m);
        assert_eq!(lin2.violations(), 0);
        assert_eq!(
            lin2.audit().missing,
            0,
            "gap-covered ticks are accounted for"
        );

        // The first ledger delivered 1,2 then jumped to 4 with no gap:
        // tick 3 is missing from the audited window (floor 0, max 4].
        assert_eq!(lin.audit().missing, 1);
    }

    /// Merging per-worker lineages (disjoint pubends plus a session
    /// header seen on two workers) equals observing the combined stream.
    #[test]
    fn merge_agrees_with_combined_observation() {
        let p1 = PubendId(1);
        let mk_events = |p: PubendId, base: u64| {
            vec![
                rec(
                    base,
                    PHB,
                    TraceEvent::PubendTimestamped {
                        pubend: p,
                        ts: Timestamp(1),
                    },
                ),
                rec(
                    base + 10,
                    PHB,
                    TraceEvent::EventLogged {
                        pubend: p,
                        ts: Timestamp(1),
                        bytes: 8,
                    },
                ),
                rec(
                    base + 20,
                    SHB,
                    TraceEvent::ShbIngested {
                        pubend: p,
                        ts: Timestamp(1),
                    },
                ),
                rec(
                    base + 25,
                    SHB,
                    TraceEvent::SubResumed {
                        sub: S,
                        pubend: p,
                        at: Timestamp(0),
                    },
                ),
                rec(
                    base + 30,
                    SHB,
                    TraceEvent::Delivered {
                        pubend: p,
                        ts: Timestamp(1),
                        sub: S,
                        path: DeliveryPath::Constream,
                    },
                ),
            ]
        };
        let mut combined = Lineage::default();
        let mut m = Metrics::default();
        for e in mk_events(P, 100).into_iter().chain(mk_events(p1, 200)) {
            combined.observe(&e, &mut m);
        }
        let mut w0 = Lineage::default();
        let mut w1 = Lineage::default();
        let mut m0 = Metrics::default();
        for e in mk_events(P, 100) {
            w0.observe(&e, &mut m0);
        }
        // The same session header on the worker that delivers nothing.
        w1.observe(
            &rec(
                205,
                SHB,
                TraceEvent::SubResumed {
                    sub: S,
                    pubend: P,
                    at: Timestamp(0),
                },
            ),
            &mut m0,
        );
        for e in mk_events(p1, 200) {
            w1.observe(&e, &mut m0);
        }
        let mut merged = Lineage::default();
        merged.merge(w0);
        merged.merge(w1);
        assert_eq!(merged.violations(), 0);
        assert_eq!(merged.spans.len, combined.spans.len);
        for (k, s) in combined.spans() {
            assert_eq!(merged.span(k), Some(s), "span {k}");
        }
        assert_eq!(merged.audit(), combined.audit());
    }

    fn advance(prev: u64, new_to: u64) -> TraceRecord {
        rec(
            1,
            SHB,
            TraceEvent::ConstreamGapCheck {
                pubend: P,
                prev: Timestamp(prev),
                new_to: Timestamp(new_to),
            },
        )
    }

    #[test]
    fn constream_watchdog_accepts_contiguous_flags_gap() {
        let mut lin = Lineage::default();
        let mut m = Metrics::default();
        lin.observe(&advance(0, 10), &mut m);
        lin.observe(&advance(10, 25), &mut m);
        assert_eq!(lin.watchdog_violations(), 0);
        lin.observe(&advance(30, 40), &mut m); // hole: 25 → 30
        assert_eq!(lin.watchdog_violations(), 1);
        assert_eq!(m.counter(names::WATCHDOG_CONSTREAM_GAP), 1.0);
        assert_eq!(m.counter(names::WATCHDOG_DOUBT_REGRESSION), 0.0);
        assert_eq!(lin.violations(), 0, "no ledger violation");
        let (counter, detail) = lin.last_violation().unwrap();
        assert_eq!(counter, names::WATCHDOG_CONSTREAM_GAP);
        assert!(detail.contains("constream gap"));
    }

    #[test]
    fn constream_watchdog_resets_on_restart() {
        let mut lin = Lineage::default();
        let mut m = Metrics::default();
        lin.observe(&advance(0, 50), &mut m);
        lin.observe(&rec(1, SHB, TraceEvent::NodeRestarted), &mut m);
        // Post-restart the constream restarts from the persisted
        // latestDelivered (here 20): not a gap.
        lin.observe(&advance(20, 60), &mut m);
        assert_eq!(lin.watchdog_violations(), 0);
    }

    #[test]
    fn doubt_watchdog_flags_regression() {
        let mut lin = Lineage::default();
        let mut m = Metrics::default();
        let at = |h: u64| {
            rec(
                1,
                SHB,
                TraceEvent::DoubtAdvanced {
                    pubend: P,
                    horizon: Timestamp(h),
                },
            )
        };
        lin.observe(&at(5), &mut m);
        lin.observe(&at(5), &mut m); // equal is fine
        lin.observe(&at(9), &mut m);
        assert_eq!(lin.watchdog_violations(), 0);
        lin.observe(&at(4), &mut m);
        assert_eq!(lin.watchdog_violations(), 1);
        assert_eq!(m.counter(names::WATCHDOG_DOUBT_REGRESSION), 1.0);
    }

    #[test]
    fn log_watchdog_flags_duplicate_and_survives_restart() {
        let mut lin = Lineage::default();
        let mut m = Metrics::default();
        let log = |ts: u64| {
            rec(
                1,
                PHB,
                TraceEvent::EventLogged {
                    pubend: P,
                    ts: Timestamp(ts),
                    bytes: 418,
                },
            )
        };
        lin.observe(&log(3), &mut m);
        lin.observe(&log(7), &mut m);
        assert_eq!(lin.watchdog_violations(), 0);
        lin.observe(&rec(1, PHB, TraceEvent::NodeRestarted), &mut m);
        lin.observe(&log(7), &mut m); // re-logging after restart is the §2 bug
        assert_eq!(lin.watchdog_violations(), 1);
        assert_eq!(m.counter(names::WATCHDOG_DUPLICATE_LOG), 1.0);
    }

    /// Span eviction keeps the map bounded, deterministically dropping
    /// the oldest key.
    #[test]
    fn span_eviction_is_bounded_and_deterministic() {
        let mut lin = Lineage {
            max_spans: 2,
            ..Lineage::default()
        };
        let mut m = Metrics::default();
        for ts in 1..=4u64 {
            lin.observe(
                &rec(
                    ts,
                    PHB,
                    TraceEvent::PubendTimestamped {
                        pubend: P,
                        ts: Timestamp(ts),
                    },
                ),
                &mut m,
            );
        }
        assert_eq!(lin.spans.len, 2);
        assert_eq!(m.counter(names::LINEAGE_SPANS_EVICTED), 2.0);
        let keys: Vec<Timestamp> = lin.spans().map(|(k, _)| k.ts).collect();
        assert_eq!(
            keys,
            vec![Timestamp(3), Timestamp(4)],
            "oldest evicted first"
        );
    }

    /// At the cap, eviction takes the oldest span of any pubend — the
    /// lowest tick among the pubends' oldest — not the lowest pubend's.
    #[test]
    fn span_eviction_takes_the_oldest_across_pubends() {
        let mut lin = Lineage {
            max_spans: 2,
            ..Lineage::default()
        };
        let mut m = Metrics::default();
        for (p, ts) in [(0, 1), (1, 2), (0, 3), (1, 4)] {
            let (pubend, ts) = (PubendId(p), Timestamp(ts));
            lin.observe(
                &rec(ts.0, PHB, TraceEvent::PubendTimestamped { pubend, ts }),
                &mut m,
            );
        }
        assert_eq!(m.counter(names::LINEAGE_SPANS_EVICTED), 2.0);
        let keys: Vec<LineageKey> = lin.spans().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                LineageKey::new(PubendId(0), Timestamp(3)),
                LineageKey::new(PubendId(1), Timestamp(4)),
            ]
        );
    }

    /// A by-value merge of interleaved ticks on one pubend keeps the run
    /// ascending, merges the shared tick and keeps the first anchors.
    #[test]
    fn merge_interleaves_ticks_of_one_pubend() {
        let lineage = |node: NodeId, base: u64, ticks: &[u64]| {
            let mut lin = Lineage::default();
            for &ts in ticks {
                let ts = Timestamp(ts);
                lin.observe(
                    &rec(base + ts.0, node, TraceEvent::ShbIngested { pubend: P, ts }),
                    &mut Metrics::default(),
                );
            }
            lin
        };
        let mut mine = lineage(SHB, 100, &[1, 3, 5]);
        mine.merge(lineage(NodeId(4), 200, &[0, 2, 3, 6]));
        let ticks: Vec<u64> = mine.spans().map(|(k, _)| k.ts.0).collect();
        assert_eq!(ticks, vec![0, 1, 2, 3, 5, 6]);
        assert_eq!(mine.spans.len, 6);
        let shared = mine.span(LineageKey::new(P, Timestamp(3))).unwrap();
        let ingests: Vec<(NodeId, u64)> = shared.ingests().collect();
        assert_eq!(ingests, vec![(SHB, 103), (NodeId(4), 203)]);
        assert_eq!(shared.earliest_ingest_us(), Some(103));
        // Ingests arriving in the other node order compare equal.
        let mut other = lineage(NodeId(4), 200, &[3]);
        other.merge(lineage(SHB, 100, &[3]));
        assert_eq!(other.span(LineageKey::new(P, Timestamp(3))), Some(shared));
    }
}
