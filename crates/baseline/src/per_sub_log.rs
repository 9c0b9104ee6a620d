//! Per-subscriber persistent event logs (the MQ baseline storage engine).

use gryphon_storage::{
    decode_event, encode_event, LogIndex, LogVolume, MediaFactory, StorageError, StreamId,
    VolumeConfig, VolumeStats,
};
use gryphon_types::{EventRef, SubscriberId, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A persistent event log per durable subscriber, multiplexed on one
/// [`LogVolume`] (one stream per subscriber).
///
/// This is the "obvious, but undesirable" design of the paper's §1: an
/// event is logged once **per matching subscriber**, so the write volume
/// is `Σ_s |matching events| × event size` instead of the PFS's
/// `8 + 16·n` bytes per matched timestamp.
pub struct PerSubscriberLog {
    volume: LogVolume,
    /// sub → stream id (dense assignment).
    streams: HashMap<SubscriberId, StreamId>,
    next_stream: u32,
    /// (sub) → ts → record index, for ack-driven chopping and reads.
    by_ts: HashMap<SubscriberId, BTreeMap<Timestamp, LogIndex>>,
}

impl std::fmt::Debug for PerSubscriberLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerSubscriberLog")
            .field("subscribers", &self.streams.len())
            .finish()
    }
}

impl PerSubscriberLog {
    /// Opens (recovering) or creates the log named `name`.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or non-tail corruption.
    pub fn open(factory: Box<dyn MediaFactory>, name: &str) -> Result<Self, StorageError> {
        let volume = LogVolume::open(factory, name, VolumeConfig::default())?;
        let mut log = PerSubscriberLog {
            volume,
            streams: HashMap::new(),
            next_stream: 0,
            by_ts: HashMap::new(),
        };
        // Recovery: stream→subscriber mapping is rebuilt from record
        // contents (each record is a self-describing encoded event; the
        // subscriber id is the stream id assigned at first append, which
        // we recover by scanning).
        for stream in log.volume.stream_ids() {
            let records = log.volume.read_all(stream)?;
            for (idx, data) in &records {
                let event = decode_event(&data[8..])?;
                let sub = SubscriberId(u64::from_le_bytes(
                    data[..8].try_into().expect("sub header"),
                ));
                log.streams.insert(sub, stream);
                log.next_stream = log.next_stream.max(stream.0 + 1);
                log.by_ts.entry(sub).or_default().insert(event.ts, *idx);
            }
        }
        Ok(log)
    }

    fn stream_for(&mut self, sub: SubscriberId) -> StreamId {
        if let Some(&s) = self.streams.get(&sub) {
            return s;
        }
        let s = StreamId(self.next_stream);
        self.next_stream += 1;
        self.streams.insert(sub, s);
        s
    }

    /// Appends `event` to `sub`'s log (full event bytes — the baseline's
    /// cost).
    ///
    /// # Errors
    ///
    /// Returns an error if the volume fails.
    pub fn append(&mut self, sub: SubscriberId, event: &EventRef) -> Result<(), StorageError> {
        let stream = self.stream_for(sub);
        let mut data = Vec::with_capacity(8 + event.encoded_len());
        data.extend_from_slice(&sub.0.to_le_bytes());
        data.extend_from_slice(&encode_event(event));
        let idx = self.volume.append(stream, &data)?;
        self.by_ts.entry(sub).or_default().insert(event.ts, idx);
        Ok(())
    }

    /// Group-commit point.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.volume.sync()
    }

    /// Acknowledgment: discards `sub`'s events with `ts ≤ upto`.
    ///
    /// # Errors
    ///
    /// Returns an error if the volume fails.
    pub fn ack(&mut self, sub: SubscriberId, upto: Timestamp) -> Result<(), StorageError> {
        let Some(&stream) = self.streams.get(&sub) else {
            return Ok(());
        };
        let Some(map) = self.by_ts.get_mut(&sub) else {
            return Ok(());
        };
        let boundary = map
            .range(upto.next()..)
            .next()
            .map(|(_, &i)| i)
            .unwrap_or_else(|| self.volume.next_index(stream));
        let dead: Vec<Timestamp> = map.range(..=upto).map(|(&t, _)| t).collect();
        for t in dead {
            map.remove(&t);
        }
        self.volume.chop(stream, boundary, 0)
    }

    /// Reads `sub`'s logged events with `ts > from`, ascending — the
    /// baseline's catchup path (no refiltering needed, but every event
    /// was stored per subscriber to make this possible).
    ///
    /// # Errors
    ///
    /// Returns an error if the volume fails or a record fails to decode.
    pub fn read_from(
        &mut self,
        sub: SubscriberId,
        from: Timestamp,
    ) -> Result<Vec<EventRef>, StorageError> {
        let Some(&stream) = self.streams.get(&sub) else {
            return Ok(Vec::new());
        };
        let indexes: Vec<LogIndex> = match self.by_ts.get(&sub) {
            Some(map) => map.range(from.next()..).map(|(_, &i)| i).collect(),
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::with_capacity(indexes.len());
        for idx in indexes {
            if let Some(data) = self.volume.read(stream, idx)? {
                out.push(Arc::new(decode_event(&data[8..])?));
            }
        }
        Ok(out)
    }

    /// Pending (unacknowledged) events for `sub`.
    pub fn pending(&self, sub: SubscriberId) -> usize {
        self.by_ts.get(&sub).map(|m| m.len()).unwrap_or(0)
    }

    /// Volume counters — the microbenchmark compares `payload_bytes`
    /// against the PFS's.
    pub fn stats(&self) -> VolumeStats {
        self.volume.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_storage::MemFactory;
    use gryphon_types::{Event, PubendId};

    fn ev(ts: u64) -> EventRef {
        Event::builder(PubendId(0))
            .attr("n", ts as i64)
            .payload(vec![0u8; 64])
            .build_ref(Timestamp(ts))
    }

    #[test]
    fn append_read_per_subscriber() {
        let mut log = PerSubscriberLog::open(Box::new(MemFactory::new()), "mq").unwrap();
        let (a, b) = (SubscriberId(1), SubscriberId(2));
        log.append(a, &ev(1)).unwrap();
        log.append(b, &ev(1)).unwrap();
        log.append(a, &ev(2)).unwrap();
        assert_eq!(log.read_from(a, Timestamp::ZERO).unwrap().len(), 2);
        assert_eq!(log.read_from(b, Timestamp::ZERO).unwrap().len(), 1);
        assert_eq!(log.read_from(a, Timestamp(1)).unwrap().len(), 1);
        assert_eq!(log.pending(a), 2);
    }

    #[test]
    fn ack_discards_prefix() {
        let mut log = PerSubscriberLog::open(Box::new(MemFactory::new()), "mq").unwrap();
        let s = SubscriberId(1);
        for t in 1..=10 {
            log.append(s, &ev(t)).unwrap();
        }
        log.ack(s, Timestamp(7)).unwrap();
        let rest = log.read_from(s, Timestamp::ZERO).unwrap();
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[0].ts, Timestamp(8));
        assert_eq!(log.pending(s), 3);
    }

    #[test]
    fn recovery_restores_streams_and_events() {
        let f = MemFactory::new();
        {
            let mut log = PerSubscriberLog::open(Box::new(f.clone()), "mq").unwrap();
            log.append(SubscriberId(1), &ev(1)).unwrap();
            log.append(SubscriberId(2), &ev(2)).unwrap();
            log.ack(SubscriberId(1), Timestamp(1)).unwrap();
            log.append(SubscriberId(1), &ev(3)).unwrap();
            log.sync().unwrap();
        }
        let mut log = PerSubscriberLog::open(Box::new(f), "mq").unwrap();
        let a = log.read_from(SubscriberId(1), Timestamp::ZERO).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].ts, Timestamp(3));
        assert_eq!(
            log.read_from(SubscriberId(2), Timestamp::ZERO)
                .unwrap()
                .len(),
            1
        );
        // New appends go to the right streams after recovery.
        log.append(SubscriberId(2), &ev(9)).unwrap();
        assert_eq!(
            log.read_from(SubscriberId(2), Timestamp::ZERO)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn bytes_scale_with_matching_subscribers() {
        // The baseline's defining cost: n matching subscribers ⇒ n full
        // event copies.
        let mut log = PerSubscriberLog::open(Box::new(MemFactory::new()), "mq").unwrap();
        let e = ev(1);
        for s in 0..25u64 {
            log.append(SubscriberId(s), &e).unwrap();
        }
        let bytes = log.stats().payload_bytes;
        assert!(bytes as usize >= 25 * e.encoded_len());
    }
}
