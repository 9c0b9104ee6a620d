//! Publisher-hosting broker (PHB) role: pubend timestamping, the
//! only-once event log, and group-committed knowledge emission (§2–3).
//!
//! The role owns the broker's declared pubends and the shared event log;
//! the per-pubend `Pubend` state machines themselves live in each
//! [`PubendPipeline`](super::pipeline::PubendPipeline) so a sharded
//! runtime can split them across workers.

use super::{now_ticks, Broker};
use crate::timer::{self, Kind};
use gryphon_sim::{names, traced, NodeCtx, TraceEvent};
use gryphon_storage::{CommitPipeline, EventLog};
use gryphon_types::{KnowledgePart, PubendId, PublishMsg};

/// State owned by the PHB role.
#[derive(Default)]
pub(crate) struct PhbRole {
    /// Pubends this broker hosts (instantiated lazily at start/restart).
    pub(crate) declared: Vec<PubendId>,
    /// The only-once event log shared by all hosted pubends. Every
    /// durability point is one [`CommitPipeline::commit_with`]: a
    /// pubend's batch appended, then one flush. Each `Broker`, and each
    /// shard of a sharded one, opens its own log and commits to it from
    /// one thread.
    pub(crate) log: Option<CommitPipeline<EventLog>>,
}

impl Broker {
    pub(crate) fn on_publish(&mut self, msg: PublishMsg, ctx: &mut dyn NodeCtx) {
        let now = now_ticks(ctx);
        let p = msg.pubend;
        let Some(pe) = self.pipelines.get_mut(&p).and_then(|pl| pl.pubend.as_mut()) else {
            ctx.count("phb.publish_dropped", 1.0);
            return;
        };
        let event = pe.publish(msg, now);
        traced!(ctx.trace(TraceEvent::PubendTimestamped {
            pubend: p,
            ts: event.ts,
        }));
        ctx.work(self.config.costs.event_log_append_us);
        ctx.count("phb.published", 1.0);
        if pe.needs_commit() {
            pe.commit_scheduled = true;
            let delay = self.config.phb_commit_interval_us;
            let key = timer::pack(Kind::PhbCommit, self.epoch, p.0 as u16, 0);
            ctx.set_timer(delay, key);
        }
    }

    /// Batch window closed: start the disk write (durable after the
    /// modeled latency).
    pub(crate) fn on_phb_commit(&mut self, p: PubendId, ctx: &mut dyn NodeCtx) {
        let Some(pe) = self.hosted_mut(p) else {
            return;
        };
        if pe.begin_commit() {
            ctx.set_timer(
                self.config.phb_commit_latency_us,
                timer::pack(Kind::PhbCommitDone, self.epoch, p.0 as u16, 0),
            );
        }
    }

    /// The disk write became durable: log, emit knowledge, and open the
    /// next batch if publishes accumulated meanwhile.
    pub(crate) fn on_phb_commit_done(&mut self, p: PubendId, ctx: &mut dyn NodeCtx) {
        let parts = {
            let pe = self.pipelines.get_mut(&p).and_then(|pl| pl.pubend.as_mut());
            let (Some(pe), Some(pipe)) = (pe, self.phb.log.as_ref()) else {
                return;
            };
            match pipe.commit_with(|log| pe.finish_commit_appends(log)) {
                Ok(parts) => parts,
                Err(_) => {
                    ctx.count("phb.commit_err", 1.0);
                    return;
                }
            }
        };
        ctx.count("phb.commits", 1.0);
        let records = parts
            .iter()
            .filter(|part| matches!(part, KnowledgePart::Data(_)))
            .count();
        traced!(ctx.observe(names::STORAGE_COMMIT_BATCH_RECORDS, records as f64));
        // Always 1, since each commit pays its own flush; still observed
        // because the benchmark reports its mean as
        // `storage.group_size_mean`.
        traced!(ctx.observe(names::STORAGE_COMMIT_GROUP_SIZE, 1.0));
        ctx.interval(
            gryphon_sim::forensics::KIND_COMMIT,
            self.config.phb_commit_latency_us,
        );
        for part in &parts {
            if let KnowledgePart::Data(e) = part {
                let bytes = e.encoded_len();
                traced!(ctx.trace(TraceEvent::EventLogged {
                    pubend: p,
                    ts: e.ts,
                    bytes,
                }));
                traced!(ctx.count(names::PHB_LOG_BYTES, bytes as f64));
                traced!(ctx.count(names::PHB_LOG_EVENTS, 1.0));
            }
        }
        // Locally originated knowledge confirms nothing about the parent
        // (stamp 0): a broker that both hosts pubends and routes others
        // must not complete parked connects off its own emissions.
        self.ingest(p, parts, false, 0, ctx);
    }

    pub(crate) fn on_phb_silence(&mut self, ctx: &mut dyn NodeCtx) {
        let now = now_ticks(ctx);
        // Declared order: stable across runs, unlike map iteration. An
        // index loop avoids cloning the pubend list per tick — `declared`
        // is fixed after construction, so the indices stay valid across
        // the `ingest` calls.
        for i in 0..self.phb.declared.len() {
            let p = self.phb.declared[i];
            let parts = self
                .hosted_mut(p)
                .map(|pe| pe.emit_silence(now))
                .unwrap_or_default();
            self.ingest(p, parts, false, 0, ctx);
        }
        ctx.set_timer(
            self.config.pubend_silence_interval_us,
            timer::pack(Kind::PhbSilence, self.epoch, 0, 0),
        );
    }
}
