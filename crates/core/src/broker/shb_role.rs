//! Subscriber-hosting broker (SHB) role: durable subscriber
//! connections, the consolidated stream, per-subscriber catchup and the
//! filtered event store (§4).
//!
//! The detailed SHB state machine lives in [`Shb`] (`shb.rs`); this
//! module owns its composition into the broker, one function per step:
//!
//! * the feed: `feed_constream` absorbs knowledge into the route and
//!   advances the constream, returning its holes; `feed_catchup` applies
//!   the same parts to the catchup streams and drives each one touched.
//!   `ingest` and a root's self-answer of its own constream holes both
//!   feed through them, in that order;
//! * `drive_catchup`: runs one catchup stream, with one switchover branch
//!   and one read-scheduling branch;
//! * connects: each [`ConnectRequest`] finishes at once or, when it
//!   registers a new subscription under a parent, parks until its
//!   interest is confirmed upstream. "Parked" means only that: a
//!   re-sent connect for a parked subscription just redirects its
//!   `ConnectOk`, and `finish_parked`, on confirmation, is the one place
//!   a parked connect attaches;
//! * PFS read scheduling and the client-facing message handlers.

use super::{Broker, ConnectRequest, Shb};
use crate::config::{CATCHUP_READ_BUFFER, PFS_READ_BASE_US, PFS_READ_PER_RECORD_US};
use crate::timer::{self, Kind};
use gryphon_sim::{names, traced, NodeCtx, TraceEvent};
use gryphon_types::{ClientMsg, KnowledgePart, NodeId, PubendId, SubSlot, SubscriberId, Timestamp};
use std::collections::HashMap;

/// State owned by the SHB role.
#[derive(Default)]
pub(crate) struct ShbRole {
    /// Whether this broker accepts durable subscribers (set at
    /// construction; the [`Shb`] itself is opened at boot).
    pub(crate) hosts_subscribers: bool,
    /// The SHB state machine (`None` for pure PHB/intermediate brokers).
    pub(crate) state: Option<Shb>,
    /// First-time connects held until their interest is confirmed
    /// upstream (volatile: a restart drops them).
    pub(crate) parked: Vec<ParkedConnect>,
}

/// A first-time connect waiting for upstream interest confirmation.
pub(crate) struct ParkedConnect {
    /// The connect, its reconnect-anywhere flag fixed before the
    /// registration at park time made the subscription look local.
    pub(crate) req: ConnectRequest,
    /// The interest version that carries its filter upstream.
    pub(crate) version: u64,
}

impl Broker {
    /// The local-SHB feed, first half: absorbs `parts` into `p`'s route
    /// and, on an SHB, advances the constream over them. Returns the
    /// constream's holes, or `None` on a broker without an SHB.
    pub(crate) fn feed_constream(
        &mut self,
        p: PubendId,
        parts: &[KnowledgePart],
        ctx: &mut dyn NodeCtx,
    ) -> Option<Vec<(Timestamp, Timestamp)>> {
        let route = &mut self.pipelines.entry(p).or_default().route;
        for part in parts {
            route.absorb(part);
        }
        let shb = self.shb.state.as_mut()?;
        // Lineage stage anchor: events enter this SHB's streams now.
        // Emitted before `constream_advance` so any delivery it triggers
        // sees the ingest time already recorded.
        note_shb_ingest(p, parts, ctx);
        Some(shb.constream_advance(p, &route.knowledge, route.max_seen, &self.config, ctx))
    }

    /// The local-SHB feed, second half: applies `parts` to every catchup
    /// stream on `p` and drives each stream they touched.
    pub(crate) fn feed_catchup(
        &mut self,
        p: PubendId,
        parts: &[KnowledgePart],
        ctx: &mut dyn NodeCtx,
    ) {
        let Some(shb) = self.shb.state.as_mut() else {
            return;
        };
        for slot in shb.distribute_to_catchup(p, parts) {
            self.drive_catchup(slot, p, ctx);
        }
    }

    /// Resolution path for catchup holes: answer from local authority or
    /// cache (feeding every catchup stream on `p` immediately), push the
    /// rest upstream. `needs_authoritative` (reconnect-anywhere) bypasses
    /// caches — they may hold knowledge filtered without the
    /// subscription.
    pub(crate) fn resolve_for_catchup(
        &mut self,
        p: PubendId,
        holes: Vec<(Timestamp, Timestamp)>,
        needs_authoritative: bool,
        ctx: &mut dyn NodeCtx,
    ) {
        let mut upstream = Vec::new();
        let mut local_parts = Vec::new();
        for (f, t) in holes {
            if needs_authoritative && !self.hosts(p) {
                upstream.push((f, t));
                continue;
            }
            let (parts, missing) = self.answer_locally(p, f, t);
            local_parts.extend(parts);
            upstream.extend(missing);
        }
        if !local_parts.is_empty() {
            if let Some(shb) = self.shb.state.as_mut() {
                // The caller drives the stream that asked; the others
                // use the parts the next time they are driven.
                shb.distribute_to_catchup(p, &local_parts);
            }
        }
        self.nack_upstream(p, upstream, needs_authoritative, ctx);
    }

    /// Runs one catchup stream forward and services its needs. When the
    /// first round's holes go to [`Broker::resolve_for_catchup`], local
    /// answers may unblock delivery at once, so a second round runs; the
    /// last round's holes go upstream.
    pub(crate) fn drive_catchup(&mut self, slot: SubSlot, p: PubendId, ctx: &mut dyn NodeCtx) {
        let mut want_read = false;
        for round in 0..2 {
            let Some(shb) = self.shb.state.as_mut() else {
                return;
            };
            let needs = shb.catchup_progress(slot, p, &self.config, ctx);
            shb.update_telemetry_gauges(ctx);
            if needs.switched {
                ctx.count("shb.switchovers", 1.0);
                return;
            }
            want_read |= needs.want_read;
            if round == 0 && !needs.holes.is_empty() {
                self.resolve_for_catchup(p, needs.holes, needs.authoritative, ctx);
                continue;
            }
            if want_read {
                self.schedule_pfs_read(slot, p, ctx);
            }
            self.nack_upstream(p, needs.holes, needs.authoritative, ctx);
            return;
        }
    }

    pub(crate) fn schedule_pfs_read(&mut self, slot: SubSlot, p: PubendId, ctx: &mut dyn NodeCtx) {
        let Some(shb) = self.shb.state.as_mut() else {
            return;
        };
        let Some((visited, q_ticks, full)) = shb.start_pfs_read(slot, p, CATCHUP_READ_BUFFER)
        else {
            return;
        };
        let sub = shb
            .sub_at_slot(slot.index())
            .map(|(_, s)| s)
            .unwrap_or(SubscriberId(0));
        ctx.work(self.config.costs.pfs_read_record_us * visited as u64);
        ctx.count("shb.pfs_reads", 1.0);
        if full {
            ctx.count("shb.pfs_full_reads", 1.0);
        }
        traced!(ctx.trace(TraceEvent::PfsBatchRead {
            pubend: p,
            sub,
            records: visited,
            q_ticks,
            full,
        }));
        traced!(ctx.observe(names::PFS_BATCH_READ_RECORDS, visited as f64));
        traced!(ctx.observe(names::PFS_BATCH_READ_QTICKS, q_ticks as f64));
        let latency = PFS_READ_BASE_US + PFS_READ_PER_RECORD_US * visited as u64;
        // The timer parameter carries only the bare slab index (32 bits —
        // no room for the generation). If the slot is recycled before the
        // timer fires, the new tenant's own pending read (if any) is
        // applied slightly early — a harmless, deterministic outcome —
        // and otherwise `finish_pfs_read` finds no pending read and
        // no-ops.
        ctx.set_timer(
            latency,
            timer::pack(Kind::CatchupRead, self.epoch, p.0 as u16, slot.index()),
        );
    }

    /// Completes, in parking order, the parked first-time connects whose
    /// interest version the parent has `confirmed`. The start floor per
    /// pubend is the cache high-water mark: every tick at or below it may
    /// have been filtered without the new subscription.
    pub(crate) fn finish_parked(&mut self, confirmed: u64, ctx: &mut dyn NodeCtx) {
        if self.shb.parked.is_empty() {
            return;
        }
        let (done, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.shb.parked)
            .into_iter()
            .partition(|pc| pc.version <= confirmed);
        self.shb.parked = keep;
        for pc in &done {
            let floors = self.release_floors();
            self.finish_connect(&pc.req, &floors, ctx);
        }
    }

    /// Per-pubend connect floors: the cache high-water mark of every
    /// pipeline (absent pubends are implicitly `Timestamp::ZERO`).
    fn release_floors(&self) -> HashMap<PubendId, Timestamp> {
        self.pipelines
            .iter()
            .map(|(&p, pl)| (p, pl.route.max_seen))
            .collect()
    }

    /// Runs the actual SHB connect (shared by the direct and parked
    /// paths) and services the resulting catchup plans.
    fn finish_connect(
        &mut self,
        req: &ConnectRequest,
        floors: &HashMap<PubendId, Timestamp>,
        ctx: &mut dyn NodeCtx,
    ) {
        let Some(shb) = self.shb.state.as_mut() else {
            return;
        };
        let Ok(plans) = shb.connect(req, floors, ctx) else {
            return;
        };
        // Edge boundary: resolve the id → slot mapping once; everything
        // below carries the slot.
        let Some(slot) = shb.slot_of_sub(req.sub) else {
            return;
        };
        let had_plans = !plans.is_empty();
        for (p, _) in plans {
            self.drive_catchup(slot, p, ctx);
        }
        if had_plans {
            ctx.count("shb.reconnect_catchups", 1.0);
        }
    }

    pub(crate) fn on_client(&mut self, from: NodeId, msg: ClientMsg, ctx: &mut dyn NodeCtx) {
        let Some(shb) = self.shb.state.as_mut() else {
            return;
        };
        match msg {
            ClientMsg::Connect {
                sub,
                ct,
                spec,
                broker_ct,
                auto_ack,
            } => {
                // A parked subscription attaches only on confirmation: a
                // re-sent connect just redirects its `ConnectOk`.
                if let Some(pc) = self.shb.parked.iter_mut().find(|pc| pc.req.sub == sub) {
                    pc.req.client = from;
                    return;
                }
                let is_new = shb.is_new_subscription(sub);
                let req = ConnectRequest {
                    sub,
                    client: from,
                    anywhere: Some(is_new && ct.is_some()),
                    ct,
                    spec,
                    broker_ct,
                    auto_ack,
                };
                if is_new && self.parent.is_some() {
                    // Register the filter now (it starts matching and the
                    // interest goes upstream), but hold the attachment
                    // until the interest is confirmed causally upstream —
                    // otherwise the subscription's window could cover
                    // ticks that were filtered without it.
                    let spec = req.spec.as_ref();
                    if shb
                        .register_spec(sub, from, spec, broker_ct, auto_ack, ctx)
                        .is_err()
                    {
                        return;
                    }
                    let added = spec.iter().map(|&s| (sub, s.clone())).collect();
                    let version = self.bump_and_send_interest(added, Vec::new(), ctx);
                    self.shb.parked.push(ParkedConnect { req, version });
                    ctx.count("shb.parked_connects", 1.0);
                    return;
                }
                self.finish_connect(&req, &HashMap::new(), ctx);
            }
            ClientMsg::Ack { sub, ct } => {
                let start_worker = shb.ack(sub, &ct);
                // The acknowledgment may have opened the flow-control
                // window of this subscriber's catchup streams.
                let slot = shb.slot_of_sub(sub);
                let catching_up = slot.map(|s| shb.catchup_pubends(s)).unwrap_or_default();
                if let Some(w) = start_worker {
                    self.start_ct_commit(w, ctx);
                }
                if let Some(slot) = slot {
                    for p in catching_up {
                        self.drive_catchup(slot, p, ctx);
                    }
                }
            }
            ClientMsg::Disconnect { sub } => {
                shb.disconnect(sub);
                ctx.count("shb.disconnects", 1.0);
            }
            ClientMsg::Unsubscribe { sub } => {
                let registered = !shb.is_new_subscription(sub);
                shb.unsubscribe(sub);
                if registered {
                    self.bump_and_send_interest(Vec::new(), vec![sub], ctx);
                }
            }
        }
    }

    pub(crate) fn start_ct_commit(&mut self, w: usize, ctx: &mut dyn NodeCtx) {
        let Some(shb) = self.shb.state.as_mut() else {
            return;
        };
        if let Some(duration) = shb.ct_commit_start(w) {
            ctx.set_timer(
                duration,
                timer::pack(Kind::CtCommit, self.epoch, 0, w as u32),
            );
        }
    }

    /// A PFS batch read's modeled latency elapsed: apply it and keep the
    /// catchup stream moving.
    pub(crate) fn on_catchup_read(&mut self, p: PubendId, index: u32, ctx: &mut dyn NodeCtx) {
        let Some(shb) = self.shb.state.as_mut() else {
            return;
        };
        let Some((slot, _)) = shb.sub_at_slot(index) else {
            return;
        };
        if shb.finish_pfs_read(slot, p) {
            self.drive_catchup(slot, p, ctx);
        }
    }

    /// A checkpoint-commit worker finished; start the next batch if acks
    /// queued behind it.
    pub(crate) fn on_ct_commit(&mut self, w: usize, ctx: &mut dyn NodeCtx) {
        let more = self
            .shb
            .state
            .as_mut()
            .map(|s| s.ct_commit_done(w, ctx))
            .unwrap_or(false);
        if more {
            self.start_ct_commit(w, ctx);
        }
    }
}

/// Lineage stage: one `ShbIngested` per data part entering this SHB's
/// consolidated/catchup streams.
fn note_shb_ingest(p: PubendId, parts: &[KnowledgePart], ctx: &mut dyn NodeCtx) {
    for part in parts {
        if let KnowledgePart::Data(e) = part {
            traced!(ctx.trace(TraceEvent::ShbIngested {
                pubend: p,
                ts: e.ts
            }));
        }
    }
}
