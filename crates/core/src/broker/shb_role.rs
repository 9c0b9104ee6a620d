//! Subscriber-hosting broker (SHB) role: durable subscriber
//! connections, the consolidated stream, per-subscriber catchup and the
//! filtered event store (§4).
//!
//! The detailed SHB state machine lives in [`Shb`] (`shb.rs`); this
//! module owns its composition into the broker — connect parking until
//! interest confirmation, catchup driving, PFS read scheduling, and the
//! client-facing message handlers.

use super::{Broker, Shb};
use crate::config::{CATCHUP_READ_BUFFER, PFS_READ_BASE_US, PFS_READ_PER_RECORD_US};
use crate::timer::{self, Kind};
use gryphon_sim::{names, traced, NodeCtx, TraceEvent};
use gryphon_types::{
    CheckpointToken, ClientMsg, NodeId, PubendId, SubSlot, SubscriberId, SubscriptionSpec,
    Timestamp,
};
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
    /// upstream.
    pub(crate) parked: Vec<ParkedConnect>,
}

/// A connect waiting for upstream interest confirmation.
pub(crate) struct ParkedConnect {
    pub(crate) sub: SubscriberId,
    pub(crate) client: NodeId,
    pub(crate) ct: Option<CheckpointToken>,
    pub(crate) spec: Option<SubscriptionSpec>,
    pub(crate) broker_ct: bool,
    pub(crate) auto_ack: bool,
    /// Reconnect-anywhere (checkpoint from another SHB), captured before
    /// registration made the subscription look local.
    pub(crate) anywhere: bool,
    pub(crate) version: u64,
    pub(crate) parked_at_us: u64,
}

impl Broker {
    /// Resolution path for catchup holes: answer from local authority or
    /// cache (feeding the stream immediately), push the rest upstream.
    /// `needs_authoritative` (reconnect-anywhere) bypasses caches — they
    /// may hold knowledge filtered without this subscription.
    pub(crate) fn resolve_for_catchup(
        &mut self,
        slot: SubSlot,
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
                // Feed only this subscriber's stream; other streams will
                // pull the same ranges when they need them.
                let filtered: Vec<SubSlot> = shb
                    .distribute_to_catchup(p, &local_parts)
                    .into_iter()
                    .filter(|&s| s == slot)
                    .collect();
                let _ = filtered;
            }
        }
        self.nack_upstream(p, upstream, needs_authoritative, ctx);
    }

    /// Runs one catchup stream forward and services its needs.
    pub(crate) fn drive_catchup(&mut self, slot: SubSlot, p: PubendId, ctx: &mut dyn NodeCtx) {
        let needs = {
            let Some(shb) = self.shb.state.as_mut() else {
                return;
            };
            let needs = shb.catchup_progress(slot, p, &self.config, ctx);
            shb.update_telemetry_gauges(ctx);
            needs
        };
        if needs.switched {
            ctx.count("shb.switchovers", 1.0);
            return;
        }
        if !needs.holes.is_empty() {
            self.resolve_for_catchup(slot, p, needs.holes.clone(), needs.authoritative, ctx);
            // Local answers may have unblocked delivery immediately.
            let again = {
                let shb = self.shb.state.as_mut().expect("checked");
                let again = shb.catchup_progress(slot, p, &self.config, ctx);
                shb.update_telemetry_gauges(ctx);
                again
            };
            if again.switched {
                ctx.count("shb.switchovers", 1.0);
                return;
            }
            if again.want_read || needs.want_read {
                self.schedule_pfs_read(slot, p, ctx);
            }
            self.nack_upstream(p, again.holes, needs.authoritative, ctx);
            return;
        }
        if needs.want_read {
            self.schedule_pfs_read(slot, p, ctx);
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

    /// Completes parked first-time connects whose interest version is now
    /// confirmed upstream. The start floor per pubend is the cache
    /// high-water mark: every tick at or below it may have been filtered
    /// without the new subscription.
    pub(crate) fn complete_parked(&mut self, ctx: &mut dyn NodeCtx) {
        if self.shb.parked.is_empty() {
            return;
        }
        let confirmed = self.ib.upstream_confirmed;
        let mut keep = Vec::new();
        let mut ready = Vec::new();
        for pc in self.shb.parked.drain(..) {
            if pc.version <= confirmed {
                ready.push(pc);
            } else {
                keep.push(pc);
            }
        }
        self.shb.parked = keep;
        for pc in ready {
            let floors = self.release_floors();
            self.finish_connect(
                pc.sub,
                pc.client,
                pc.ct,
                pc.spec,
                pc.broker_ct,
                pc.auto_ack,
                floors,
                Some(pc.anywhere),
                ctx,
            );
        }
    }

    /// Times out parked connects (e.g. no parent traffic): complete with
    /// conservative floors rather than never.
    pub(crate) fn expire_parked(&mut self, ctx: &mut dyn NodeCtx) {
        let now = ctx.now_us();
        let mut keep = Vec::new();
        let mut expired = Vec::new();
        for pc in self.shb.parked.drain(..) {
            if now.saturating_sub(pc.parked_at_us) > 2_000_000 {
                expired.push(pc);
            } else {
                keep.push(pc);
            }
        }
        self.shb.parked = keep;
        for pc in expired {
            ctx.count("shb.parked_timeout", 1.0);
            let floors = self.release_floors();
            self.finish_connect(
                pc.sub,
                pc.client,
                pc.ct,
                pc.spec,
                pc.broker_ct,
                pc.auto_ack,
                floors,
                Some(pc.anywhere),
                ctx,
            );
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_connect(
        &mut self,
        sub: SubscriberId,
        client: NodeId,
        ct: Option<CheckpointToken>,
        spec: Option<SubscriptionSpec>,
        broker_ct: bool,
        auto_ack: bool,
        floors: HashMap<PubendId, Timestamp>,
        anywhere: Option<bool>,
        ctx: &mut dyn NodeCtx,
    ) {
        let plans = {
            let Some(shb) = self.shb.state.as_mut() else {
                return;
            };
            shb.connect(
                sub,
                client,
                ct,
                spec,
                broker_ct,
                auto_ack,
                &floors,
                anywhere,
                &self.config,
                ctx,
            )
        };
        let Ok(plans) = plans else {
            return;
        };
        // Edge boundary: resolve the id → slot mapping once; everything
        // below carries the slot.
        let Some(slot) = self.shb.state.as_ref().and_then(|s| s.slot_of_sub(sub)) else {
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
        if self.shb.state.is_none() {
            return;
        }
        match msg {
            ClientMsg::Connect {
                sub,
                ct,
                spec,
                broker_ct,
                auto_ack,
            } => {
                let is_new = self
                    .shb
                    .state
                    .as_ref()
                    .map(|s| s.is_new_subscription(sub))
                    .unwrap_or(false);
                let anywhere = is_new && ct.is_some();
                if is_new && self.parent.is_some() {
                    // Register the filter now (it starts matching and the
                    // interest goes upstream), but hold the attachment
                    // until the interest is confirmed causally upstream —
                    // otherwise the subscription's window could cover
                    // ticks that were filtered without it.
                    let registered = {
                        let shb = self.shb.state.as_mut().expect("checked");
                        shb.register_spec(sub, from, spec.as_ref(), broker_ct, auto_ack, ctx)
                    };
                    if registered.is_err() {
                        return;
                    }
                    let version = self.bump_and_send_interest(ctx);
                    self.shb.parked.push(ParkedConnect {
                        sub,
                        client: from,
                        ct,
                        spec,
                        broker_ct,
                        auto_ack,
                        anywhere,
                        version,
                        parked_at_us: ctx.now_us(),
                    });
                    ctx.count("shb.parked_connects", 1.0);
                    return;
                }
                self.finish_connect(
                    sub,
                    from,
                    ct,
                    spec,
                    broker_ct,
                    auto_ack,
                    HashMap::new(),
                    Some(anywhere),
                    ctx,
                );
                if is_new {
                    self.send_interest_upstream(ctx);
                }
            }
            ClientMsg::Ack { sub, ct } => {
                let start_worker = {
                    let shb = self.shb.state.as_mut().expect("checked");
                    shb.ack(sub, &ct)
                };
                if let Some(w) = start_worker {
                    self.start_ct_commit(w, ctx);
                }
                // The acknowledgment may have opened the flow-control
                // window of this subscriber's catchup streams.
                let slot = self.shb.state.as_ref().and_then(|s| s.slot_of_sub(sub));
                if let Some(slot) = slot {
                    let catching_up = self
                        .shb
                        .state
                        .as_ref()
                        .map(|s| s.catchup_pubends(slot))
                        .unwrap_or_default();
                    for p in catching_up {
                        self.drive_catchup(slot, p, ctx);
                    }
                }
            }
            ClientMsg::Disconnect { sub } => {
                let now = ctx.now_us();
                self.shb
                    .state
                    .as_mut()
                    .expect("checked")
                    .disconnect(sub, now);
                ctx.count("shb.disconnects", 1.0);
            }
            ClientMsg::Unsubscribe { sub } => {
                self.shb.state.as_mut().expect("checked").unsubscribe(sub);
                self.send_interest_upstream(ctx);
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
        let slot = self
            .shb
            .state
            .as_ref()
            .and_then(|s| s.sub_at_slot(index))
            .map(|(slot, _)| slot);
        if let Some(slot) = slot {
            let applied = self
                .shb
                .state
                .as_mut()
                .expect("checked")
                .finish_pfs_read(slot, p);
            if applied {
                self.drive_catchup(slot, p, ctx);
            }
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
