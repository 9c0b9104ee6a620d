//! Publisher-hosting broker (PHB) role: pubend timestamping, the
//! only-once event log, and group-committed knowledge emission (§2–3).
//!
//! The role owns the broker's declared pubends, the shared event log and
//! the broker's one group-commit window: a window collects the publishes
//! of every hosted pubend, and one sync makes them all durable. The
//! per-pubend `Pubend` state machines themselves live in each
//! [`PubendPipeline`](super::pipeline::PubendPipeline).

use super::{now_ticks, Broker};
use crate::timer::{self, Kind};
use gryphon_sim::{names, traced, NodeCtx, TraceEvent};
use gryphon_storage::{CommitPipeline, EventLog};
use gryphon_types::{KnowledgePart, PubendId, PublishMsg};
use std::collections::VecDeque;

/// State owned by the PHB role.
#[derive(Default)]
pub(crate) struct PhbRole {
    /// Pubends this broker hosts (instantiated lazily at start/restart).
    pub(crate) declared: Vec<PubendId>,
    /// The only-once event log shared by all hosted pubends. Every
    /// durability point is one [`CommitPipeline::commit_with`]: the
    /// batches one window closed, appended, then one flush. Each
    /// `Broker` opens its own log and commits to it from one thread.
    pub(crate) log: Option<CommitPipeline<EventLog>>,
    /// The broker's one batch-close timer is outstanding.
    pub(crate) commit_scheduled: bool,
    /// Per in-flight write, oldest first: the pubends whose batches
    /// that window closed, in declared order. Each `PhbCommitDone`
    /// finishes exactly the front entry (writes pipeline, so several
    /// windows may be in flight at once).
    pub(crate) in_flight: VecDeque<Vec<PubendId>>,
}

impl Broker {
    pub(crate) fn on_publish(&mut self, msg: PublishMsg, ctx: &mut dyn NodeCtx) {
        let now = now_ticks(ctx);
        let p = msg.pubend;
        let Some(pe) = self.hosted_mut(p) else {
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
        // One window per broker: the first publish to any hosted pubend
        // opens it; an in-flight write does not block the next window.
        if !self.phb.commit_scheduled {
            self.phb.commit_scheduled = true;
            let key = timer::pack(Kind::PhbCommit, self.epoch, 0, 0);
            ctx.set_timer(self.config.phb_commit_interval_us, key);
        }
    }

    /// The window closed: every hosted pubend with pending events
    /// snapshots its batch, and one disk write starts for all of them
    /// (durable after the modeled latency).
    pub(crate) fn on_phb_commit(&mut self, ctx: &mut dyn NodeCtx) {
        self.phb.commit_scheduled = false;
        let mut began = Vec::new();
        for &p in &self.phb.declared {
            let pe = self.pipelines.get_mut(&p).and_then(|pl| pl.pubend.as_mut());
            if pe.is_some_and(|pe| pe.begin_commit()) {
                began.push(p);
            }
        }
        if !began.is_empty() {
            self.phb.in_flight.push_back(began);
            ctx.set_timer(
                self.config.phb_commit_latency_us,
                timer::pack(Kind::PhbCommitDone, self.epoch, 0, 0),
            );
        }
    }

    /// The oldest disk write became durable: append the batches it
    /// began inside one commit (one sync), then emit each pubend's
    /// knowledge, which leaves for the children in this same wakeup.
    pub(crate) fn on_phb_commit_done(&mut self, ctx: &mut dyn NodeCtx) {
        let Some(began) = self.phb.in_flight.pop_front() else {
            return;
        };
        let Some(pipe) = self.phb.log.as_ref() else {
            return;
        };
        let pipelines = &mut self.pipelines;
        // Every batch the window began is taken off its pubend's FIFO,
        // even after an append failed, so later windows stay aligned
        // with `in_flight`.
        let committed = pipe.commit_with(|log| {
            let mut committed = Vec::with_capacity(began.len());
            let mut failed = None;
            for p in began {
                let Some(pe) = pipelines.get_mut(&p).and_then(|pl| pl.pubend.as_mut()) else {
                    continue;
                };
                match pe.finish_commit_appends(log) {
                    Ok(parts) => committed.push((p, parts)),
                    Err(e) => failed = failed.or(Some(e)),
                }
            }
            failed.map_or(Ok(committed), Err)
        });
        let Ok(committed) = committed else {
            ctx.count("phb.commit_err", 1.0);
            return;
        };
        ctx.count("phb.commits", 1.0);
        let records = committed
            .iter()
            .flat_map(|(_, parts)| parts)
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
        for (p, parts) in committed {
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
            // Locally originated knowledge confirms nothing about the
            // parent (stamp 0): a broker that both hosts pubends and
            // routes others must not complete parked connects off its
            // own emissions.
            self.ingest(p, parts, false, 0, ctx);
        }
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
    }
}
