//! Pubend state: timestamp assignment, group commit, authoritative
//! knowledge, and the release-protocol root.

use crate::config::BrokerConfig;
use gryphon_storage::{EventLog, StorageError};
use gryphon_types::{Event, EventRef, KnowledgePart, PubendId, PublishMsg, Timestamp};

/// One publishing endpoint hosted by a PHB.
///
/// The pubend is the root of its knowledge tree: it assigns a unique,
/// monotone tick to every published event, persists it **once** in the
/// PHB event log (group-committed), emits knowledge downstream only after
/// the commit is durable, answers nacks authoritatively (`D` from the
/// log, `S` elsewhere, `L` below the lost prefix), and converts the
/// prefix allowed by the release protocol to `L`.
#[derive(Debug)]
pub struct Pubend {
    /// This pubend's id.
    pub id: PubendId,
    /// Highest tick assigned to an event (or covered by emitted silence).
    frontier: Timestamp,
    /// Knowledge has been emitted downstream for all ticks ≤ this.
    emitted_to: Timestamp,
    /// Events accumulating for the next batch (already timestamped).
    pending: Vec<EventRef>,
    /// Batches whose disk writes are in flight (the controller's write
    /// cache pipelines commits, as the paper's SSA setup does), oldest
    /// first.
    committing: std::collections::VecDeque<Vec<EventRef>>,
    /// Ticks `≤ lost_to` are `L` (released or early-released).
    lost_to: Timestamp,
    /// Events published (monotone counter for stats).
    pub published: u64,
    /// Bytes appended to the event log by this incarnation (stable-storage
    /// write volume; the broker mirrors it into `phb.log_bytes`).
    pub log_bytes: u64,
}

impl Pubend {
    /// Creates the pubend with both cursors at `now_ticks` (a pubend
    /// joining at virtual time `t` has trivially emitted all ticks before
    /// it existed).
    pub fn new(id: PubendId, now_ticks: Timestamp) -> Self {
        Pubend {
            id,
            frontier: now_ticks,
            emitted_to: now_ticks,
            pending: Vec::new(),
            committing: std::collections::VecDeque::new(),
            lost_to: Timestamp::ZERO,
            published: 0,
            log_bytes: 0,
        }
    }

    /// Assigns a timestamp to a publish request and buffers it for the
    /// next group commit. Returns the event.
    pub fn publish(&mut self, msg: PublishMsg, now_ticks: Timestamp) -> EventRef {
        let ts = self.frontier.next().max(now_ticks);
        self.frontier = ts;
        let event = std::sync::Arc::new(Event {
            pubend: self.id,
            ts,
            attrs: msg.attrs,
            payload: msg.payload,
        });
        self.pending.push(event.clone());
        self.published += 1;
        event
    }

    /// Batch close: snapshots the accumulating batch as an in-flight
    /// write (writes pipeline; each becomes durable after the device
    /// latency). The caller schedules the durability timer
    /// (`PhbCommitDone`). Returns `false` when there was nothing to
    /// commit.
    pub fn begin_commit(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        self.committing.push_back(std::mem::take(&mut self.pending));
        true
    }

    /// Appends the oldest in-flight batch and builds its knowledge
    /// parts (`S` gaps + `D` events) covering `(emitted_to, batch end]`
    /// **without** syncing. The caller owns the durability point — the
    /// PHB runs this inside
    /// [`CommitPipeline::commit_with`](gryphon_storage::CommitPipeline::commit_with),
    /// which flushes once after it returns, and must not emit the parts
    /// downstream until that flush returns.
    ///
    /// # Errors
    ///
    /// Returns an error if an append fails.
    pub fn finish_commit_appends(
        &mut self,
        log: &mut EventLog,
    ) -> Result<Vec<KnowledgePart>, StorageError> {
        let batch = self.committing.pop_front().unwrap_or_default();
        for e in &batch {
            log.append(e)?;
            self.log_bytes += e.encoded_len() as u64;
        }
        let mut parts = Vec::with_capacity(batch.len() * 2);
        let mut cursor = self.emitted_to;
        for e in batch {
            if e.ts > cursor.next() {
                parts.push(KnowledgePart::Silence {
                    from: cursor.next(),
                    to: e.ts.prev(),
                });
            }
            cursor = e.ts;
            parts.push(KnowledgePart::Data(e));
        }
        self.emitted_to = cursor;
        Ok(parts)
    }

    /// Emits silence up to `now_ticks` for an idle pubend (no pending or
    /// in-flight events). Returns the parts to emit (empty when already
    /// covered).
    pub fn emit_silence(&mut self, now_ticks: Timestamp) -> Vec<KnowledgePart> {
        if !self.pending.is_empty() || !self.committing.is_empty() || now_ticks <= self.emitted_to {
            return Vec::new();
        }
        let from = self.emitted_to.next();
        self.emitted_to = now_ticks;
        self.frontier = self.frontier.max(now_ticks);
        vec![KnowledgePart::Silence {
            from,
            to: now_ticks,
        }]
    }

    /// Applies the release decision (paper §3): a tick `t` becomes `L`
    /// when `t ≤ Tr ∨ (t ≤ Td ∧ T − t > maxRetain)`. Chops the event log
    /// accordingly and returns the new lost prefix if it advanced.
    ///
    /// # Errors
    ///
    /// Returns an error if the log chop fails.
    pub fn apply_release(
        &mut self,
        tr: Timestamp,
        td: Timestamp,
        now_ticks: Timestamp,
        config: &BrokerConfig,
        log: &mut EventLog,
    ) -> Result<Option<Timestamp>, StorageError> {
        let mut candidate = tr;
        if let Some(max_retain) = config.max_retain_ticks {
            let age_limit = now_ticks - (max_retain + 1);
            candidate = candidate.max(td.min(age_limit));
        }
        if candidate <= self.lost_to {
            return Ok(None);
        }
        self.lost_to = candidate;
        log.chop_below(self.id, candidate.next())?;
        Ok(Some(candidate))
    }

    /// Ticks `≤ lost_to` are `L`.
    pub fn lost_to(&self) -> Timestamp {
        self.lost_to
    }

    /// Restores the lost prefix from persistent metadata after a crash.
    pub fn restore_lost_to(&mut self, lost_to: Timestamp) {
        self.lost_to = self.lost_to.max(lost_to);
    }

    /// Knowledge emitted up to this tick.
    pub fn emitted_to(&self) -> Timestamp {
        self.emitted_to
    }

    /// Re-seeds the cursors after a crash: the wall clock has advanced
    /// past anything the pre-crash incarnation could have emitted, so
    /// starting both cursors at `now_ticks` can never contradict
    /// previously emitted knowledge.
    pub fn restart_at(&mut self, now_ticks: Timestamp) {
        self.pending.clear();
        self.committing.clear();
        self.frontier = self.frontier.max(now_ticks);
        self.emitted_to = self.emitted_to.max(now_ticks);
    }

    /// Authoritatively answers a nack for `[from, to]` (clipped to what
    /// has been emitted): `L` below the lost prefix, `D` from the log,
    /// `S` everywhere else.
    ///
    /// # Errors
    ///
    /// Returns an error if the log read fails.
    pub fn answer(
        &self,
        from: Timestamp,
        to: Timestamp,
        log: &mut EventLog,
    ) -> Result<Vec<KnowledgePart>, StorageError> {
        let lo = from.max(Timestamp(1));
        let hi = to.min(self.emitted_to);
        if lo > hi {
            return Ok(Vec::new());
        }
        let mut parts = Vec::new();
        let mut cursor = lo;
        if self.lost_to >= lo {
            let l_end = self.lost_to.min(hi);
            parts.push(KnowledgePart::Lost {
                from: lo,
                to: l_end,
            });
            cursor = l_end.next();
        }
        if cursor > hi {
            return Ok(parts);
        }
        let events = log.read_range(self.id, cursor, hi)?;
        for e in events {
            if e.ts > cursor {
                parts.push(KnowledgePart::Silence {
                    from: cursor,
                    to: e.ts.prev(),
                });
            }
            cursor = e.ts.next();
            parts.push(KnowledgePart::Data(e));
        }
        if cursor <= hi {
            parts.push(KnowledgePart::Silence {
                from: cursor,
                to: hi,
            });
        }
        Ok(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_storage::MemFactory;
    use gryphon_types::TickKind;

    fn log() -> EventLog {
        EventLog::open(Box::new(MemFactory::new()), "el", Default::default()).unwrap()
    }

    fn publish(p: &mut Pubend, now: u64) -> EventRef {
        p.publish(
            PublishMsg {
                pubend: p.id,
                attrs: Default::default(),
                payload: bytes::Bytes::new(),
            },
            Timestamp(now),
        )
    }

    /// Closes the batch and makes it durable the way the PHB does:
    /// `begin_commit`, the appends, then the log's sync.
    fn commit(p: &mut Pubend, l: &mut EventLog) -> Vec<KnowledgePart> {
        assert!(p.begin_commit());
        let parts = p.finish_commit_appends(l).unwrap();
        l.sync().unwrap();
        parts
    }

    fn kind_at(parts: &[KnowledgePart], t: u64) -> Option<TickKind> {
        for p in parts {
            let (f, to) = p.range();
            if f.0 <= t && t <= to.0 {
                return Some(match p {
                    KnowledgePart::Silence { .. } => TickKind::S,
                    KnowledgePart::Data(_) => TickKind::D,
                    KnowledgePart::Lost { .. } => TickKind::L,
                });
            }
        }
        None
    }

    #[test]
    fn timestamps_unique_and_monotone() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        let e1 = publish(&mut p, 5);
        let e2 = publish(&mut p, 5); // same millisecond
        let e3 = publish(&mut p, 4); // clock regression tolerated
        assert_eq!(e1.ts, Timestamp(5));
        assert_eq!(e2.ts, Timestamp(6));
        assert_eq!(e3.ts, Timestamp(7));
    }

    #[test]
    fn commit_emits_silence_gaps_and_data() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        let mut l = log();
        publish(&mut p, 3);
        publish(&mut p, 7);
        let parts = commit(&mut p, &mut l);
        assert_eq!(kind_at(&parts, 1), Some(TickKind::S));
        assert_eq!(kind_at(&parts, 2), Some(TickKind::S));
        assert_eq!(kind_at(&parts, 3), Some(TickKind::D));
        assert_eq!(kind_at(&parts, 5), Some(TickKind::S));
        assert_eq!(kind_at(&parts, 7), Some(TickKind::D));
        assert_eq!(p.emitted_to(), Timestamp(7));
        assert_eq!(l.live_events(PubendId(0)), 2);
    }

    #[test]
    fn silence_emission_only_when_idle() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        let parts = p.emit_silence(Timestamp(10));
        assert_eq!(parts.len(), 1);
        assert_eq!(p.emitted_to(), Timestamp(10));
        assert!(p.emit_silence(Timestamp(10)).is_empty(), "already covered");
        publish(&mut p, 15);
        assert!(p.emit_silence(Timestamp(20)).is_empty(), "pending commit");
    }

    #[test]
    fn events_after_silence_get_later_ticks() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        p.emit_silence(Timestamp(10));
        let e = publish(&mut p, 8); // publish "in the past"
        assert!(e.ts > Timestamp(10), "must not contradict emitted silence");
    }

    #[test]
    fn answer_is_authoritative() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        let mut l = log();
        publish(&mut p, 4);
        commit(&mut p, &mut l);
        p.emit_silence(Timestamp(9));
        let parts = p.answer(Timestamp(1), Timestamp(20), &mut l).unwrap();
        assert_eq!(kind_at(&parts, 2), Some(TickKind::S));
        assert_eq!(kind_at(&parts, 4), Some(TickKind::D));
        assert_eq!(kind_at(&parts, 9), Some(TickKind::S));
        assert_eq!(kind_at(&parts, 10), None, "future ticks not answered");
    }

    #[test]
    fn release_without_early_release_uses_tr() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        let mut l = log();
        for now in [2u64, 4, 6] {
            publish(&mut p, now);
        }
        commit(&mut p, &mut l);
        let cfg = BrokerConfig::default();
        let adv = p
            .apply_release(Timestamp(4), Timestamp(6), Timestamp(100), &cfg, &mut l)
            .unwrap();
        assert_eq!(adv, Some(Timestamp(4)));
        assert_eq!(l.live_events(PubendId(0)), 1, "events ≤ 4 chopped");
        // Nack below the lost prefix answers L.
        let parts = p.answer(Timestamp(1), Timestamp(6), &mut l).unwrap();
        assert_eq!(kind_at(&parts, 3), Some(TickKind::L));
        assert_eq!(kind_at(&parts, 6), Some(TickKind::D));
    }

    #[test]
    fn early_release_bounded_by_td() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        let mut l = log();
        publish(&mut p, 10);
        publish(&mut p, 50);
        commit(&mut p, &mut l);
        let cfg = BrokerConfig {
            max_retain_ticks: Some(20),
            ..BrokerConfig::default()
        };
        // T = 100, maxRetain = 20 → age limit 79; Td = 40 caps it.
        let adv = p
            .apply_release(Timestamp(5), Timestamp(40), Timestamp(100), &cfg, &mut l)
            .unwrap();
        assert_eq!(adv, Some(Timestamp(40)));
        assert_eq!(l.live_events(PubendId(0)), 1);
        // A non-catchup subscriber (t > Td) is never early-released.
        assert!(p.lost_to() <= Timestamp(40));
    }

    #[test]
    fn release_regression_is_ignored() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        let mut l = log();
        p.emit_silence(Timestamp(50));
        let cfg = BrokerConfig::default();
        p.apply_release(Timestamp(30), Timestamp(40), Timestamp(50), &cfg, &mut l)
            .unwrap();
        let adv = p
            .apply_release(Timestamp(20), Timestamp(40), Timestamp(60), &cfg, &mut l)
            .unwrap();
        assert_eq!(adv, None);
        assert_eq!(p.lost_to(), Timestamp(30));
    }

    #[test]
    fn restart_at_never_regresses_cursors() {
        let mut p = Pubend::new(PubendId(0), Timestamp::ZERO);
        p.emit_silence(Timestamp(100));
        publish(&mut p, 101);
        p.restart_at(Timestamp(150));
        assert!(p.emitted_to() >= Timestamp(100));
        let e = publish(&mut p, 120);
        assert!(e.ts > Timestamp(150));
    }
}
