//! Intermediate-broker (IB) role: knowledge routing with per-subtree
//! filtering, curiosity/nack consolidation, interest versioning, and
//! release aggregation (§3, §5.3).
//!
//! Every broker runs this role — a PHB routes its own emissions through
//! it, and on an SHB `ingest` hands each message to the SHB feed (see
//! `shb_role`) before forwarding it — so it owns the broker's tree wiring
//! (children, per-child state) and the interest-version plumbing that
//! makes subscription starts causally safe.

use super::{now_ticks, Broker};
use crate::config::NACK_RESPONSE_CHUNK_TICKS;
use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
use gryphon_sim::{names, traced, NodeCtx, TraceEvent};
use gryphon_streams::{push_coalesced, RetryPolicy};
use gryphon_types::{
    CuriosityMsg, InterestChange, KnowledgeMsg, KnowledgePart, NetMsg, NodeId, PubendId,
    ReleaseMsg, SubInterestMsg, SubscriberId, SubscriptionSpec, Timestamp,
};
use std::collections::{BTreeMap, HashMap};

/// State owned by the intermediate role.
#[derive(Default)]
pub(crate) struct IbRole {
    /// Downstream brokers, in attachment order.
    pub(crate) children: Vec<NodeId>,
    /// Everything known about one child broker (filter index, raw specs,
    /// interest versions) — one struct per child so the pieces cannot
    /// drift out of sync.
    pub(crate) child: HashMap<NodeId, ChildState>,
    /// Interest-version plumbing (subscription-start causality; see
    /// [`gryphon_types::SubInterestMsg::version`]). Versions are virtual
    /// timestamps, so they stay monotone across restarts.
    pub(crate) my_interest_version: u64,
    /// Highest interest version the parent has confirmed via knowledge
    /// stamps.
    pub(crate) upstream_confirmed: u64,
    /// Set by a restart: the parent's copy of our interest may hold
    /// entries we no longer know about, so the next change goes up as a
    /// snapshot instead of a delta.
    pub(crate) resync: bool,
}

/// A net interest change: entries added (or whose filter changed) and
/// ids removed.
type Change = (Vec<(SubscriberId, SubscriptionSpec)>, Vec<SubscriberId>);

/// Per-child subscription and interest-version state.
#[derive(Default)]
pub(crate) struct ChildState {
    /// Aggregate subscription filter of the child's subtree (for D→S
    /// downgrades), changed in place by each interest message; `None`
    /// until the first one applies.
    pub(crate) index: Option<SubscriptionIndex>,
    /// The raw specs behind `index`, re-aggregated upstream.
    pub(crate) specs: BTreeMap<SubscriberId, SubscriptionSpec>,
    /// The child's interest version applied here.
    pub(crate) version: u64,
    /// Highest child interest version known to be causally upstream.
    pub(crate) confirmed: u64,
    /// Child interest versions awaiting upstream confirmation:
    /// `(child version, our upward version carrying it)`.
    pub(crate) pending: Vec<(u64, u64)>,
}

impl ChildState {
    /// Applies one interest message from the child in place and returns
    /// the net change, or `None` when nothing applies: a delta on a base
    /// other than the applied version (a gap, healed by the child's next
    /// snapshot) or a snapshot of a version already applied. Only new or
    /// changed filters are parsed: one per entry the change adds.
    fn apply(&mut self, msg: SubInterestMsg) -> Option<Change> {
        if self.index.is_some() && msg.version <= self.version {
            return None;
        }
        let (added, removed) = match msg.change {
            InterestChange::Delta {
                base,
                added,
                removed,
            } => {
                if base != self.version {
                    return None;
                }
                (added, removed)
            }
            InterestChange::Snapshot(subs) => {
                // Later entries win, as they would by re-inserting.
                let next: BTreeMap<SubscriberId, SubscriptionSpec> = subs.into_iter().collect();
                let removed = self
                    .specs
                    .keys()
                    .filter(|sub| !next.contains_key(sub))
                    .copied()
                    .collect();
                let added = next
                    .into_iter()
                    .filter(|(sub, spec)| self.specs.get(sub) != Some(spec))
                    .collect();
                (added, removed)
            }
        };
        let index = self.index.get_or_insert_with(Default::default);
        for sub in &removed {
            self.specs.remove(sub);
            index.remove(*sub);
        }
        for (sub, spec) in &added {
            match Filter::parse(spec.expr()) {
                Ok(filter) => index.insert(*sub, filter),
                Err(_) => {
                    index.remove(*sub);
                }
            }
            self.specs.insert(*sub, spec.clone());
        }
        self.version = msg.version;
        Some((added, removed))
    }
}

impl Broker {
    /// Central ingest: applies parts to the pipeline's cache, advances
    /// the constream, feeds catchup streams, and forwards downstream.
    /// `interest_stamp` is the parent's interest-version stamp (`0` for
    /// locally originated knowledge, which confirms nothing upstream).
    pub(crate) fn ingest(
        &mut self,
        p: PubendId,
        parts: Vec<KnowledgePart>,
        nack_response: bool,
        interest_stamp: u64,
        ctx: &mut dyn NodeCtx,
    ) {
        if interest_stamp > self.ib.upstream_confirmed {
            self.ib.upstream_confirmed = interest_stamp;
            self.promote_child_confirmations(ctx);
            self.finish_parked(self.ib.upstream_confirmed, ctx);
        }
        if parts.is_empty() {
            return;
        }
        // SHB: constream first (so processed_to is current), then catchup.
        if let Some(holes) = self.feed_constream(p, &parts, ctx) {
            self.resolve_for_constream(p, holes, ctx);
            self.feed_catchup(p, &parts, ctx);
        }
        // Forward downstream.
        if self.ib.children.is_empty() {
            return;
        }
        if nack_response {
            let targets: Vec<NodeId> = {
                let route = &mut self.pipeline_mut(p).route;
                let mut t = Vec::new();
                for part in &parts {
                    let (f, to) = part.range();
                    for c in route.interest.interested(f, to) {
                        if !t.contains(&c) {
                            t.push(c);
                        }
                    }
                    route.interest.discharge(f, to);
                }
                t
            };
            for child in targets {
                self.send_filtered(child, p, &parts, true, ctx);
            }
        } else {
            // Index loop instead of cloning the child list per message:
            // `children` only grows at wiring time, never inside
            // `send_filtered`.
            for i in 0..self.ib.children.len() {
                let child = self.ib.children[i];
                self.send_filtered(child, p, &parts, false, ctx);
            }
        }
    }

    /// Forwards parts to one child, downgrading data ticks that match no
    /// subscription in the child's subtree to silence (the paper's
    /// intermediate filtering), in the wakeup that brought them: hosted,
    /// routed and nack-response knowledge alike. Knowledge is batched
    /// once, at its source, by the PHB's commit window; the link to the
    /// child is FIFO, so nothing sent later can overtake it.
    pub(crate) fn send_filtered(
        &mut self,
        child: NodeId,
        p: PubendId,
        parts: &[KnowledgePart],
        nack_response: bool,
        ctx: &mut dyn NodeCtx,
    ) {
        let hosted = self.hosts(p);
        let state = self.ib.child.get(&child);
        // Until a child's interest is known (fresh boot / just
        // restarted), forward unfiltered: over-delivery is safe,
        // silent downgrades of a subscription's events are not.
        let index = state.and_then(|c| c.index.as_ref());
        // The stamp: for locally hosted pubends the child's interest
        // is applied the moment it arrives; for routed pubends it
        // must also be confirmed upstream (everything this broker
        // forwards was filtered up there too).
        let stamp = match state {
            Some(c) if hosted => c.version,
            Some(c) => c.confirmed.min(c.version),
            None => 0,
        };
        let mut out: Vec<KnowledgePart> = Vec::with_capacity(parts.len());
        for part in parts {
            match part {
                KnowledgePart::Data(e) => {
                    ctx.work(self.config.costs.match_us);
                    let relevant = index.is_none_or(|i| i.any_match(e, &mut MatchScratch));
                    if relevant {
                        out.push(KnowledgePart::Data(e.clone()));
                    } else {
                        // Downgrade to silence; adjacent downgrades
                        // coalesce into one run.
                        push_coalesced(
                            &mut out,
                            KnowledgePart::Silence {
                                from: e.ts,
                                to: e.ts,
                            },
                        );
                    }
                }
                other => push_coalesced(&mut out, other.clone()),
            }
        }
        if out.is_empty() {
            return;
        }
        if !nack_response {
            traced!(ctx.observe(names::IB_KNOWLEDGE_BATCH_PARTS, out.len() as f64));
            traced!(ctx.count(names::IB_KNOWLEDGE_BATCHES, 1.0));
        }
        note_ib_forward(p, &out, ctx);
        ctx.send(
            child,
            NetMsg::Knowledge(KnowledgeMsg {
                pubend: p,
                parts: out,
                nack_response,
                interest_version: stamp,
            }),
        );
    }

    /// Answers `[from, to]` locally (pubend-authoritative or cache) and
    /// returns `(answered parts, unanswerable holes)`.
    pub(crate) fn answer_locally(
        &mut self,
        p: PubendId,
        from: Timestamp,
        to: Timestamp,
    ) -> (Vec<KnowledgePart>, Vec<(Timestamp, Timestamp)>) {
        let pe = self.pipelines.get(&p).and_then(|pl| pl.pubend.as_ref());
        if let (Some(pe), Some(log)) = (pe, self.phb.log.as_ref()) {
            let parts = log.with(|l| pe.answer(from, to, l)).unwrap_or_default();
            (parts, Vec::new())
        } else {
            let route = &mut self.pipeline_mut(p).route;
            route.answer_from_cache(from, to)
        }
    }

    /// Sends `parts` to `child` as chunked nack responses.
    pub(crate) fn respond_chunked(
        &mut self,
        child: NodeId,
        p: PubendId,
        parts: Vec<KnowledgePart>,
        ctx: &mut dyn NodeCtx,
    ) {
        let mut batch: Vec<KnowledgePart> = Vec::new();
        let mut batch_ticks = 0u64;
        for part in parts {
            let (f, t) = part.range();
            batch_ticks += t.saturating_sub(f) + 1;
            batch.push(part);
            if batch_ticks >= NACK_RESPONSE_CHUNK_TICKS {
                self.send_filtered(child, p, &std::mem::take(&mut batch), true, ctx);
                batch_ticks = 0;
            }
        }
        if !batch.is_empty() {
            self.send_filtered(child, p, &batch, true, ctx);
        }
    }

    /// Forwards unanswered holes upstream (tracked for retry unless
    /// open-ended). `authoritative` requests a pubend-only answer
    /// (reconnect-anywhere recovery must not trust interior caches).
    pub(crate) fn nack_upstream(
        &mut self,
        p: PubendId,
        holes: Vec<(Timestamp, Timestamp)>,
        authoritative: bool,
        ctx: &mut dyn NodeCtx,
    ) {
        let Some(parent) = self.parent else {
            return; // no upstream: the root answers what it has
        };
        if holes.is_empty() {
            return;
        }
        let now = ctx.now_us();
        let fan_in = holes.len();
        let route = &mut self.pipeline_mut(p).route;
        let mut fresh: Vec<(Timestamp, Timestamp)> = Vec::new();
        for (f, t) in holes {
            if t == Timestamp::MAX {
                // Open-ended recovery nacks are one-shot: steady-state
                // hole detection self-heals if the response is lost.
                fresh.push((f, t));
            } else {
                fresh.extend(route.curiosity.add_wanted(f, t, now));
            }
        }
        if !fresh.is_empty() {
            // Consolidation (paper §4.2): `fan_in` requested ranges were
            // deduplicated against outstanding curiosity into one upward
            // nack spanning the surviving span.
            let span_from = fresh
                .iter()
                .map(|&(f, _)| f)
                .min()
                .unwrap_or(Timestamp::ZERO);
            let span_to = fresh
                .iter()
                .map(|&(_, t)| t)
                .max()
                .unwrap_or(Timestamp::ZERO);
            traced!(ctx.trace(TraceEvent::NackConsolidated {
                pubend: p,
                from: span_from,
                to: span_to,
                fan_in,
            }));
            traced!(ctx.observe(names::CURIOSITY_NACK_FANIN, fan_in as f64));
            traced!(ctx.count(names::CURIOSITY_NACKS_SENT, 1.0));
            ctx.send(
                parent,
                NetMsg::Curiosity(CuriosityMsg {
                    pubend: p,
                    ranges: fresh,
                    authoritative,
                }),
            );
        }
    }

    /// Resolution path for constream holes: they are cache gaps by
    /// definition, so they go straight upstream — but only one
    /// response-chunk window at a time. Windowed nacking paces a large
    /// recovery (SHB restart) into round trips, which both bounds burst
    /// sizes and lets multiple pubends' recoveries share the uplink
    /// fairly instead of serializing whole backlogs.
    pub(crate) fn resolve_for_constream(
        &mut self,
        p: PubendId,
        holes: Vec<(Timestamp, Timestamp)>,
        ctx: &mut dyn NodeCtx,
    ) {
        let window = NACK_RESPONSE_CHUNK_TICKS;
        if self.parent.is_none() && self.hosts(p) {
            // A root broker hosting `p` has no upstream to nack, so it
            // answers its own constream holes authoritatively from the
            // local pubend, window by window until the constream stops
            // reporting them. Two cases reach here: a pubend booted at
            // t > 0 (its trivially-emitted prefix never flowed through
            // `ingest`, so the colocated constream starts behind it) and
            // a combined broker recovering a subscriber backlog after
            // restart.
            let mut holes = holes;
            while !holes.is_empty() {
                let mut parts = Vec::new();
                for (f, t) in holes.drain(..) {
                    let (answered, _) = self.answer_locally(p, f, t.min(f + window));
                    parts.extend(answered);
                }
                if parts.is_empty() {
                    return; // nothing answerable: stop rather than spin
                }
                // Root-hosted self-answer: these parts enter the local
                // SHB's streams without passing through `ingest`.
                let Some(next) = self.feed_constream(p, &parts, ctx) else {
                    return;
                };
                holes = next;
                self.feed_catchup(p, &parts, ctx);
            }
            return;
        }
        let bounded: Vec<(Timestamp, Timestamp)> = holes
            .into_iter()
            .map(|(f, t)| (f, t.min(f + window)))
            .collect();
        self.nack_upstream(p, bounded, false, ctx);
    }

    pub(crate) fn on_curiosity(&mut self, from: NodeId, msg: CuriosityMsg, ctx: &mut dyn NodeCtx) {
        let p = msg.pubend;
        let mut all_holes = Vec::new();
        for (f, t) in msg.ranges.clone() {
            if msg.authoritative && !self.hosts(p) {
                // Reconnect-anywhere recovery: only the pubend may answer.
                let route = &mut self.pipeline_mut(p).route;
                route.interest.register(from, f, t);
                all_holes.push((f, t));
                continue;
            }
            let (parts, holes) = self.answer_locally(p, f, t);
            if !parts.is_empty() {
                if self.hosts(p) {
                    // Authoritative answer from the event log.
                    ctx.count("phb.nack_responses", 1.0);
                } else {
                    // Interior cache absorbed a downstream nack — the
                    // scalability mechanism of paper §3.
                    ctx.count("broker.cache_answers", 1.0);
                }
                self.respond_chunked(from, p, parts, ctx);
            }
            if !holes.is_empty() {
                let route = &mut self.pipeline_mut(p).route;
                for &(hf, ht) in &holes {
                    route.interest.register(from, hf, ht);
                }
                all_holes.extend(holes);
            }
        }
        self.nack_upstream(p, all_holes, msg.authoritative, ctx);
    }

    pub(crate) fn on_sub_interest(
        &mut self,
        from: NodeId,
        msg: SubInterestMsg,
        ctx: &mut dyn NodeCtx,
    ) {
        if !self.ib.children.contains(&from) {
            return;
        }
        let v_child = msg.version;
        let Some((added, removed)) = self.ib.child.entry(from).or_default().apply(msg) else {
            return;
        };
        if !added.is_empty() {
            ctx.count(names::IB_INTEREST_FILTERS_PARSED, added.len() as f64);
        }
        if self.parent.is_some() {
            let v_up = self.bump_and_send_interest(added, removed, ctx);
            self.ib
                .child
                .entry(from)
                .or_default()
                .pending
                .push((v_child, v_up));
        } else {
            // Root: the interest is applied here and now.
            let state = self.ib.child.entry(from).or_default();
            state.confirmed = state.confirmed.max(v_child);
            self.confirm_child(from, ctx);
        }
    }

    /// Promotes per-child confirmations from `upstream_confirmed`, and
    /// confirms at once to every child whose confirmation rose.
    pub(crate) fn promote_child_confirmations(&mut self, ctx: &mut dyn NodeCtx) {
        let upstream = self.ib.upstream_confirmed;
        // Attachment order, not map order: the confirmations are sends.
        for i in 0..self.ib.children.len() {
            let child = self.ib.children[i];
            let Some(ChildState {
                confirmed, pending, ..
            }) = self.ib.child.get_mut(&child)
            else {
                continue;
            };
            let before = *confirmed;
            pending.retain(|&(v_child, v_up)| {
                if v_up <= upstream {
                    *confirmed = (*confirmed).max(v_child);
                    false
                } else {
                    true
                }
            });
            if *confirmed > before {
                self.confirm_child(child, ctx);
            }
        }
    }

    /// Tells `child` its interest is confirmed without waiting for fresh
    /// knowledge to carry the stamp: sends a stamp-only knowledge message.
    /// Knowledge filtered under the child's older interest already left,
    /// and the link is FIFO, so it arrives first. With no pipeline to
    /// stamp on, the next knowledge forwarded to `child` carries the stamp
    /// instead.
    fn confirm_child(&mut self, child: NodeId, ctx: &mut dyn NodeCtx) {
        let Some(&p) = self.pipelines.keys().min_by_key(|p| p.0) else {
            return;
        };
        let Some(state) = self.ib.child.get(&child) else {
            return;
        };
        let stamp = state.confirmed.min(state.version);
        ctx.send(
            child,
            NetMsg::Knowledge(KnowledgeMsg {
                pubend: p,
                parts: Vec::new(),
                nack_response: false,
                interest_version: stamp,
            }),
        );
    }

    /// Moves this broker's interest to a fresh version and reports the
    /// change upward: as a delta on the version the parent last saw, or,
    /// after a restart, as a snapshot. Versions are virtual timestamps:
    /// monotone across crashes.
    pub(crate) fn bump_and_send_interest(
        &mut self,
        mut added: Vec<(SubscriberId, SubscriptionSpec)>,
        removed: Vec<SubscriberId>,
        ctx: &mut dyn NodeCtx,
    ) -> u64 {
        let base = self.ib.my_interest_version;
        self.ib.my_interest_version = (base + 1).max(ctx.now_us());
        if std::mem::take(&mut self.ib.resync) {
            self.send_interest_snapshot(ctx);
        } else if let Some(parent) = self.parent {
            // The parent keeps one spec per subscription id: an id that
            // another child or a local subscriber still holds stays
            // upstream, under that holder's spec.
            let removed = removed
                .into_iter()
                .filter(|&sub| match self.upward_spec(sub) {
                    Some(spec) => {
                        added.push((sub, spec));
                        false
                    }
                    None => true,
                })
                .collect();
            ctx.send(
                parent,
                NetMsg::SubInterest(SubInterestMsg {
                    version: self.ib.my_interest_version,
                    change: InterestChange::Delta {
                        base,
                        added,
                        removed,
                    },
                }),
            );
        }
        self.ib.my_interest_version
    }

    /// The spec under which `sub` is still part of this broker's upward
    /// interest, if a local subscriber or a child holds it.
    fn upward_spec(&self, sub: SubscriberId) -> Option<SubscriptionSpec> {
        if let Some(spec) = self.shb.state.as_ref().and_then(|shb| shb.spec_of(sub)) {
            return Some(spec.clone());
        }
        self.ib
            .children
            .iter()
            .find_map(|c| self.ib.child.get(c)?.specs.get(&sub).cloned())
    }

    /// Sends this broker's whole interest set upward under its current
    /// version: the resync that heals a parent which lost a delta or
    /// restarted. A parent that already applied the version skips it.
    pub(crate) fn send_interest_snapshot(&mut self, ctx: &mut dyn NodeCtx) {
        let Some(parent) = self.parent else {
            return;
        };
        let mut subs: Vec<(SubscriberId, SubscriptionSpec)> = Vec::new();
        // Sorted child order keeps the upstream message deterministic.
        let mut child_ids: Vec<NodeId> = self.ib.child.keys().copied().collect();
        child_ids.sort_by_key(|n| n.0);
        for id in child_ids {
            subs.extend(
                self.ib.child[&id]
                    .specs
                    .iter()
                    .map(|(&sub, spec)| (sub, spec.clone())),
            );
        }
        if let Some(shb) = &self.shb.state {
            subs.extend(shb.interest());
        }
        ctx.send(
            parent,
            NetMsg::SubInterest(SubInterestMsg {
                version: self.ib.my_interest_version,
                change: InterestChange::Snapshot(subs),
            }),
        );
    }

    pub(crate) fn on_release_msg(&mut self, from: NodeId, msg: ReleaseMsg) {
        if self.ib.children.contains(&from) {
            self.pipeline_mut(msg.pubend)
                .child_release
                .insert(from, (msg.released, msg.latest_delivered));
        }
    }

    pub(crate) fn on_release_timer(&mut self, ctx: &mut dyn NodeCtx) {
        let now = now_ticks(ctx);
        // Every pubend this broker has seen, in deterministic order.
        for p in self.pipeline_ids() {
            // Aggregate over children + local SHB.
            let mut released = Timestamp::MAX;
            let mut latest = Timestamp::MAX;
            let mut constrained = false;
            if let Some(pl) = self.pipelines.get(&p) {
                for child in &self.ib.children {
                    match pl.child_release.get(child) {
                        Some(&(r, l)) => {
                            released = released.min(r);
                            latest = latest.min(l);
                            constrained = true;
                        }
                        None => {
                            // Child has not reported yet: fully conservative.
                            released = Timestamp::ZERO;
                            latest = Timestamp::ZERO;
                            constrained = true;
                        }
                    }
                }
            }
            if let Some(shb) = &self.shb.state {
                released = released.min(shb.released_local(p));
                latest = latest.min(shb.latest_delivered(p));
                constrained = true;
            }
            if !constrained {
                // No subscribers anywhere below: nothing holds release
                // back, but with nobody consuming there is also no point
                // advancing it; skip.
                continue;
            }
            if self.hosts(p) {
                // Root: run the release decision.
                let advanced = {
                    let pe = self.pipelines.get_mut(&p).and_then(|pl| pl.pubend.as_mut());
                    let (Some(pe), Some(log)) = (pe, self.phb.log.as_ref()) else {
                        continue;
                    };
                    // `with` (not `commit_with`): the chop forces its own
                    // sync whenever it deletes a segment file, and a chop
                    // frame still in the tail is allowed to be lost (the
                    // release decision is then forgotten atomically).
                    match log.with(|l| pe.apply_release(released, latest, now, &self.config, l)) {
                        Ok(advanced) => advanced,
                        Err(_) => {
                            ctx.count("phb.chop_err", 1.0);
                            None
                        }
                    }
                };
                if let Some(lost) = advanced {
                    ctx.count("phb.early_release_advances", 1.0);
                    traced!(ctx.trace(TraceEvent::LConverted {
                        pubend: p,
                        upto: lost
                    }));
                    traced!(ctx.count(names::RELEASE_L_CONVERSIONS, 1.0));
                }
                // Report forward progress of the aggregated release point
                // (Tr) — once per distinct value, and never the MAX
                // sentinel of an unconstrained aggregate.
                if released < Timestamp::MAX {
                    let pl = self.pipeline_mut(p);
                    if released > pl.last_release_reported {
                        pl.last_release_reported = released;
                        traced!(ctx.trace(TraceEvent::ReleaseAdvanced {
                            pubend: p,
                            released
                        }));
                        traced!(ctx.count(names::RELEASE_ADVANCES, 1.0));
                    }
                }
            } else if let Some(parent) = self.parent {
                ctx.send(
                    parent,
                    NetMsg::Release(ReleaseMsg {
                        pubend: p,
                        released,
                        latest_delivered: latest,
                    }),
                );
            }
            // SHB-side housekeeping + metrics.
            if let Some(shb) = self.shb.state.as_mut() {
                if shb.chop_pfs(p).is_err() {
                    ctx.count("shb.chop_err", 1.0);
                }
                let ld = shb.latest_delivered(p);
                let rel = shb.released_local(p);
                ctx.record(&format!("shb{}.ld.{}", self.id, p.0), ld.0 as f64);
                ctx.record(&format!("shb{}.released.{}", self.id, p.0), rel.0 as f64);
            }
        }
        // Periodic interest refresh heals a parent that restarted or lost
        // a delta (same version: a parent that kept up skips it).
        self.send_interest_snapshot(ctx);
    }

    pub(crate) fn on_cache_trim(&mut self, ctx: &mut dyn NodeCtx) {
        let now = now_ticks(ctx);
        let window = self.config.cache_window_ticks;
        for (&p, pl) in self.pipelines.iter_mut() {
            let mut limit = now - window;
            if let Some(shb) = &self.shb.state {
                if let Some(con) = shb.con.get(&p) {
                    limit = limit.min(con.processed_to);
                }
            }
            pl.route.knowledge.advance_base(limit);
        }
    }

    pub(crate) fn on_retry_nacks(&mut self, ctx: &mut dyn NodeCtx) {
        let now = ctx.now_us();
        let retry = RetryPolicy::default();
        if let Some(parent) = self.parent {
            let mut msgs = Vec::new();
            for (&p, pl) in self.pipelines.iter_mut() {
                let due = pl.route.curiosity.due_retries(now, retry);
                if !due.is_empty() {
                    msgs.push((p, due));
                }
            }
            // Deterministic re-nack order regardless of map iteration.
            msgs.sort_by_key(|&(p, _)| p.0);
            for (p, ranges) in msgs {
                ctx.count("net.renacks", 1.0);
                ctx.send(
                    parent,
                    NetMsg::Curiosity(CuriosityMsg {
                        pubend: p,
                        ranges,
                        authoritative: false,
                    }),
                );
            }
        }
    }
}

/// Lineage stage: one `IbForwarded` per data part put on the wire toward
/// a child, in the wakeup that sends it.
fn note_ib_forward(p: PubendId, parts: &[KnowledgePart], ctx: &mut dyn NodeCtx) {
    for part in parts {
        if let KnowledgePart::Data(e) = part {
            traced!(ctx.trace(TraceEvent::IbForwarded {
                pubend: p,
                ts: e.ts
            }));
        }
    }
}
