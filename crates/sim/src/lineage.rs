//! End-to-end delivery lineage: per-event stage spans, latency
//! attribution, and the exactly-once delivery ledger.
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
//! The [`Lineage`] assembler folds that stream into per-span anchors and
//! per-stage latency histograms (`lineage.stage.*_us`). Stages are
//! deduplicated *first occurrence wins* — recovery re-forwards and
//! re-ingests legitimately re-emit — except the birth anchor, where the
//! **last** occurrence wins because a PHB crash re-timestamps unlogged
//! publishes. A stage whose predecessor anchor is unknown (span evicted,
//! or a recovery path skipped a hop) counts as `lineage.stage_orphans`
//! instead of polluting a histogram.
//!
//! ## Delivery ledger
//!
//! The ledger audits exactly-once per `(subscriber, pubend, timestamp)`
//! across reconnects — the end-to-end property the paper's three local
//! watchdogs cannot express. [`TraceEvent::SubResumed`] opens a
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
//! ## Violations
//!
//! [`Lineage::observe`] never panics: it counts, remembers the detail
//! string, and leaves arming to the runtime — the simulator dumps a
//! flight-recorder post-mortem *before* aborting on an armed violation.

use crate::forensics::ExemplarReservoir;
use crate::metrics::names;
use crate::trace::{DeliveryPath, TraceEvent, TraceRecord};
use crate::Metrics;
use gryphon_types::{LineageKey, NodeId, PubendId, SubscriberId, Timestamp};
use std::collections::{BTreeMap, BTreeSet};

/// Default bound on live spans (oldest evicted beyond this).
pub const DEFAULT_MAX_SPANS: usize = 262_144;

/// Virtual-µs anchors of one event's life, keyed by [`LineageKey`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Span {
    /// Pubend timestamping time (last occurrence wins — a PHB crash
    /// re-timestamps unlogged publishes).
    pub birth_us: Option<u64>,
    /// Durable PHB log time.
    pub log_us: Option<u64>,
    /// First downstream forward by an IB.
    pub forward_us: Option<u64>,
    /// First ingest time per SHB node.
    pub ingest_us: BTreeMap<NodeId, u64>,
    /// Deliveries of this event across all subscribers.
    pub deliveries: u64,
}

impl Span {
    /// Whether the span has the full broker-side chain for a delivered
    /// event: birth, durable log, and at least one SHB ingest. (The IB
    /// forward anchor is absent on combined brokers, where the PHB role
    /// hands events to the co-located SHB directly.)
    pub fn chain_complete(&self) -> bool {
        self.birth_us.is_some() && self.log_us.is_some() && !self.ingest_us.is_empty()
    }

    pub(crate) fn merge(&mut self, other: &Span) {
        // Anchors: first-wins across a merge too, except birth where a
        // later (re-timestamping) anchor should already agree because
        // spans are sharded by pubend; keep self's when present.
        if self.birth_us.is_none() {
            self.birth_us = other.birth_us;
        }
        if self.log_us.is_none() {
            self.log_us = other.log_us;
        }
        if self.forward_us.is_none() {
            self.forward_us = other.forward_us;
        }
        for (&n, &t) in &other.ingest_us {
            self.ingest_us.entry(n).or_insert(t);
        }
        self.deliveries += other.deliveries;
    }

    /// Multi-line human rendering for post-mortem dumps.
    pub fn render(&self, key: LineageKey) -> String {
        let fmt = |v: Option<u64>| match v {
            Some(t) => format!("{t} µs"),
            None => "—".to_owned(),
        };
        let ingests = if self.ingest_us.is_empty() {
            "—".to_owned()
        } else {
            self.ingest_us
                .iter()
                .map(|(n, t)| format!("{n}:{t} µs"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "span {key}\n  timestamped: {}\n  logged:      {}\n  forwarded:   {}\n  \
             ingested:    {ingests}\n  deliveries:  {}",
            fmt(self.birth_us),
            fmt(self.log_us),
            fmt(self.forward_us),
            self.deliveries,
        )
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

/// The lineage assembler + delivery ledger. Feed it every
/// [`TraceRecord`] (the runtimes do this on emission, before any ring
/// eviction); read back spans, stage histograms (written into the
/// shared [`Metrics`]), and the exactly-once audit.
#[derive(Debug)]
pub struct Lineage {
    spans: BTreeMap<LineageKey, Span>,
    max_spans: usize,
    sessions: BTreeMap<(SubscriberId, PubendId), Session>,
    /// Highest `LConverted` boundary per pubend.
    released: BTreeMap<PubendId, Timestamp>,
    /// Doubt horizon per (SHB node, pubend), for the lag gauge.
    doubt: BTreeMap<(NodeId, PubendId), Timestamp>,
    /// Constream frontier per (SHB node, pubend), for backlog depth.
    constream_to: BTreeMap<(NodeId, PubendId), Timestamp>,
    /// Full-audit only: every durably logged tick per pubend.
    logged: BTreeMap<PubendId, BTreeSet<Timestamp>>,
    full_audit: bool,
    violations: u64,
    duplicates: u64,
    reconnect_duplicates: u64,
    gap_beyond_release: u64,
    last_violation: Option<String>,
    /// Tail-exemplar reservoir (DESIGN.md §9); `None` until armed via
    /// [`Lineage::arm_exemplars`]. Pure observer: arming it changes no
    /// span, ledger, or histogram state.
    exemplars: Option<ExemplarReservoir>,
}

impl Default for Lineage {
    fn default() -> Self {
        Lineage {
            spans: BTreeMap::new(),
            max_spans: DEFAULT_MAX_SPANS,
            sessions: BTreeMap::new(),
            released: BTreeMap::new(),
            doubt: BTreeMap::new(),
            constream_to: BTreeMap::new(),
            logged: BTreeMap::new(),
            full_audit: false,
            violations: 0,
            duplicates: 0,
            reconnect_duplicates: 0,
            gap_beyond_release: 0,
            last_violation: None,
            exemplars: None,
        }
    }
}

/// Deterministic subsampling period (in ticks) for the per-delivery
/// doubt-lag gauge, keeping series growth bounded on long runs.
const LAG_SAMPLE_TICKS: u64 = 32;

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
        self.violations
    }

    /// Human-readable description of the most recent ledger violation.
    pub fn last_violation(&self) -> Option<&str> {
        self.last_violation.as_deref()
    }

    /// The span assembled for `key`, if still live.
    pub fn span(&self, key: LineageKey) -> Option<&Span> {
        self.spans.get(&key)
    }

    /// All live spans, ordered by `(pubend, ts)`.
    pub fn spans(&self) -> impl Iterator<Item = (&LineageKey, &Span)> {
        self.spans.iter()
    }

    /// Keys of delivered events whose broker-side stage chain is
    /// incomplete (missing birth, log, or ingest anchor) — the
    /// acceptance check "every delivered event has a complete chain".
    pub fn incomplete_delivered(&self) -> Vec<LineageKey> {
        self.spans
            .iter()
            .filter(|(_, s)| s.deliveries > 0 && !s.chain_complete())
            .map(|(&k, _)| k)
            .collect()
    }

    fn violate(&mut self, metrics: &mut Metrics, counter: &'static str, detail: String) {
        self.violations += 1;
        match counter {
            names::LINEAGE_LEDGER_DUPLICATE => self.duplicates += 1,
            names::LINEAGE_LEDGER_RECONNECT_DUPLICATE => self.reconnect_duplicates += 1,
            names::LINEAGE_LEDGER_GAP_BEYOND_RELEASE => self.gap_beyond_release += 1,
            _ => {}
        }
        metrics.count(counter, 1.0);
        self.last_violation = Some(detail);
    }

    /// Observes one stage latency and, when exemplar capture is armed,
    /// offers the sample to the tail reservoir — after the observation,
    /// so the cumulative distribution the threshold derives from
    /// already includes it.
    fn observe_stage(
        &mut self,
        series: &'static str,
        value: f64,
        t: u64,
        key: LineageKey,
        metrics: &mut Metrics,
    ) {
        metrics.observe(series, value);
        if let Some(r) = self.exemplars.as_mut() {
            r.offer(t, series, value, key, metrics);
        }
    }

    fn span_entry(&mut self, key: LineageKey, metrics: &mut Metrics) -> &mut Span {
        if !self.spans.contains_key(&key) && self.spans.len() >= self.max_spans {
            self.spans.pop_first();
            metrics.count(names::LINEAGE_SPANS_EVICTED, 1.0);
        }
        self.spans.entry(key).or_default()
    }

    /// Feeds one record through the assembler and ledger. Histograms,
    /// lag gauges and violation counters land in `metrics`.
    pub fn observe(&mut self, rec: &TraceRecord, metrics: &mut Metrics) {
        let t = rec.t_us;
        match rec.event {
            TraceEvent::PubendTimestamped { pubend, ts } => {
                let span = self.span_entry(LineageKey::new(pubend, ts), metrics);
                // Last wins: a PHB crash re-timestamps unlogged events.
                span.birth_us = Some(t);
            }
            TraceEvent::EventLogged { pubend, ts, .. } => {
                if self.full_audit {
                    self.logged.entry(pubend).or_default().insert(ts);
                }
                let key = LineageKey::new(pubend, ts);
                let span = self.span_entry(key, metrics);
                if span.log_us.is_none() {
                    span.log_us = Some(t);
                    match span.birth_us {
                        Some(b) => self.observe_stage(
                            names::LINEAGE_STAGE_LOG_US,
                            t.saturating_sub(b) as f64,
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
                if span.forward_us.is_none() {
                    span.forward_us = Some(t);
                    match span.log_us.or(span.birth_us) {
                        Some(a) => self.observe_stage(
                            names::LINEAGE_STAGE_IB_FORWARD_US,
                            t.saturating_sub(a) as f64,
                            t,
                            key,
                            metrics,
                        ),
                        None => metrics.count(names::LINEAGE_STAGE_ORPHANS, 1.0),
                    }
                }
            }
            TraceEvent::ShbIngested { pubend, ts } => {
                let node = rec.node;
                let key = LineageKey::new(pubend, ts);
                let span = self.span_entry(key, metrics);
                if let std::collections::btree_map::Entry::Vacant(e) = span.ingest_us.entry(node) {
                    e.insert(t);
                    match span.forward_us.or(span.log_us).or(span.birth_us) {
                        Some(a) => self.observe_stage(
                            names::LINEAGE_STAGE_SHB_INGEST_US,
                            t.saturating_sub(a) as f64,
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
                let node = rec.node;
                let key = LineageKey::new(pubend, ts);
                let span = self.span_entry(key, metrics);
                span.deliveries += 1;
                let birth = span.birth_us;
                let ingest = span.ingest_us.get(&node).copied();
                match birth {
                    Some(b) => self.observe_stage(
                        names::LINEAGE_STAGE_DELIVER_US,
                        t.saturating_sub(b) as f64,
                        t,
                        key,
                        metrics,
                    ),
                    None => metrics.count(names::LINEAGE_STAGE_ORPHANS, 1.0),
                }
                if let Some(i) = ingest {
                    let stage = match path {
                        DeliveryPath::Catchup => names::LINEAGE_STAGE_CATCHUP_US,
                        DeliveryPath::Constream => names::LINEAGE_STAGE_CONSTREAM_US,
                    };
                    self.observe_stage(stage, t.saturating_sub(i) as f64, t, key, metrics);
                }
                // Lag gauge: how far behind this SHB's doubt horizon the
                // subscriber runs (deterministically subsampled).
                if ts.0 % LAG_SAMPLE_TICKS == 0 {
                    if let Some(&h) = self.doubt.get(&(node, pubend)) {
                        metrics.record(
                            t,
                            names::LINEAGE_LAG_DOUBT_TICKS,
                            h.0.saturating_sub(ts.0) as f64,
                        );
                    }
                }
                // Ledger: exactly-once within and across sessions.
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
            TraceEvent::DoubtAdvanced { pubend, horizon } => {
                self.doubt.insert((rec.node, pubend), horizon);
            }
            TraceEvent::ConstreamGapCheck { pubend, new_to, .. } => {
                self.constream_to.insert((rec.node, pubend), new_to);
            }
            TraceEvent::CatchupStarted { pubend, from, .. } => {
                // Backlog depth the catchup stream must close before it
                // can switch over to the consolidated stream.
                if let Some(&frontier) = self.constream_to.get(&(rec.node, pubend)) {
                    metrics.record(
                        t,
                        names::LINEAGE_LAG_CATCHUP_BACKLOG_TICKS,
                        frontier.0.saturating_sub(from.0) as f64,
                    );
                }
            }
            _ => {}
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

    /// Folds another lineage into `self`. Used by the threaded runtime
    /// to merge per-worker ledgers once, in `stop()`, **in worker-index
    /// order** so the result is deterministic. Per-pubend sharding means
    /// span and ledger keys are essentially disjoint across workers;
    /// where control-traffic broadcast duplicated a session header, the
    /// owner shard's session (the one that saw deliveries) wins. Tail
    /// exemplars are window state, not ledger state: they travel through
    /// [`Observers::absorb`](crate::Observers::absorb) instead.
    pub fn merge(&mut self, other: &Lineage) {
        for (&k, s) in &other.spans {
            self.spans.entry(k).or_default().merge(s);
        }
        for (&k, sess) in &other.sessions {
            match self.sessions.get_mut(&k) {
                None => {
                    self.sessions.insert(k, sess.clone());
                }
                Some(mine) => {
                    // Owner shard (larger cursor/max_delivered) wins the
                    // cursor state; audit sets union.
                    if (sess.max_delivered, sess.cursor) > (mine.max_delivered, mine.cursor) {
                        mine.resume = sess.resume;
                        mine.cursor = sess.cursor;
                        mine.max_delivered = sess.max_delivered;
                    }
                    mine.audit_floor = mine.audit_floor.min(sess.audit_floor);
                    mine.delivered.extend(sess.delivered.iter().copied());
                    mine.gaps.extend_from_slice(&sess.gaps);
                }
            }
        }
        for (&p, &r) in &other.released {
            let e = self.released.entry(p).or_insert(Timestamp::ZERO);
            *e = (*e).max(r);
        }
        for (&k, &h) in &other.doubt {
            let e = self.doubt.entry(k).or_insert(Timestamp::ZERO);
            *e = (*e).max(h);
        }
        for (&k, &c) in &other.constream_to {
            let e = self.constream_to.entry(k).or_insert(Timestamp::ZERO);
            *e = (*e).max(c);
        }
        for (&p, set) in &other.logged {
            self.logged
                .entry(p)
                .or_default()
                .extend(set.iter().copied());
        }
        self.full_audit |= other.full_audit;
        self.violations += other.violations;
        self.duplicates += other.duplicates;
        self.reconnect_duplicates += other.reconnect_duplicates;
        self.gap_beyond_release += other.gap_beyond_release;
        if self.last_violation.is_none() {
            self.last_violation = other.last_violation.clone();
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
            lin.span(LineageKey::new(P, ts)).unwrap().forward_us,
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
        assert!(lin.last_violation().unwrap().contains("duplicate delivery"));
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

    /// Merging per-worker lineages (disjoint pubend shards plus a
    /// broadcast-duplicated session header) equals observing the
    /// combined stream.
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
        // Broadcast-duplicated session header on the non-owner shard.
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
        merged.merge(&w0);
        merged.merge(&w1);
        assert_eq!(merged.violations(), 0);
        assert_eq!(merged.spans.len(), combined.spans.len());
        for (k, s) in combined.spans() {
            assert_eq!(merged.span(*k), Some(s), "span {k}");
        }
        assert_eq!(merged.audit(), combined.audit());
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
        assert_eq!(lin.spans.len(), 2);
        assert_eq!(m.counter(names::LINEAGE_SPANS_EVICTED), 2.0);
        let keys: Vec<Timestamp> = lin.spans().map(|(k, _)| k.ts).collect();
        assert_eq!(
            keys,
            vec![Timestamp(3), Timestamp(4)],
            "oldest evicted first"
        );
    }
}
