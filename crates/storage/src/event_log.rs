//! The pubend's persistent event log — the **only** place an event is
//! persistently logged in the whole system (paper contribution #1).
//!
//! One [`EventLog`] serves all pubends of a PHB by mapping each pubend to
//! a [`LogVolume`] stream and keeping a timestamp → index map so nacks can
//! be answered by timestamp range. The release protocol chops the prefix
//! (`t ≤ Tr(p)` or early-released) which reclaims whole segments. Each
//! chop frame carries the timestamp boundary as its floor, so recovery
//! knows the lost prefix (a chopped tick must answer `L`, never `S`).

use crate::log_volume::{LogIndex, LogVolume, StreamId, VolumeConfig};
use crate::{codec, StorageError};
#[cfg(test)]
use gryphon_types::Event;
use gryphon_types::{EventRef, PubendId, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Persistent, timestamp-indexed event streams for a PHB's pubends.
///
/// # Examples
///
/// ```
/// use gryphon_storage::{EventLog, MemFactory};
/// use gryphon_types::{Event, PubendId, Timestamp};
///
/// let mut log = EventLog::open(Box::new(MemFactory::new()), "phb0", Default::default())?;
/// let e = Event::builder(PubendId(0)).attr("class", 1i64).build_ref(Timestamp(10));
/// log.append(&e)?;
/// log.sync()?;
/// let got = log.read_range(PubendId(0), Timestamp(1), Timestamp(100))?;
/// assert_eq!(got.len(), 1);
/// assert_eq!(got[0].ts, Timestamp(10));
/// # Ok::<(), gryphon_storage::StorageError>(())
/// ```
pub struct EventLog {
    volume: LogVolume,
    /// pubend → (timestamp → record index)
    by_ts: HashMap<PubendId, BTreeMap<Timestamp, LogIndex>>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("pubends", &self.by_ts.len())
            .field("volume", &self.volume)
            .finish()
    }
}

fn stream_for(pubend: PubendId) -> StreamId {
    StreamId(pubend.0)
}

impl EventLog {
    /// Opens (recovering) or creates the event log named `name`.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or corrupt non-tail records.
    pub fn open(
        factory: Box<dyn crate::MediaFactory>,
        name: &str,
        config: VolumeConfig,
    ) -> Result<Self, StorageError> {
        let volume = LogVolume::open(factory, name, config)?;
        let mut log = EventLog {
            volume,
            by_ts: HashMap::new(),
        };
        log.rebuild_index()?;
        Ok(log)
    }

    /// Rebuilds the timestamp index from every stream the volume has
    /// state for (the chop floors come back with the volume itself).
    fn rebuild_index(&mut self) -> Result<(), StorageError> {
        for stream in self.volume.stream_ids() {
            let pubend = PubendId(stream.0);
            let records = self.volume.read_all(stream)?;
            let map = self.by_ts.entry(pubend).or_default();
            for (idx, data) in records {
                let event = codec::decode_event(&data)?;
                map.insert(event.ts, idx);
            }
        }
        Ok(())
    }

    /// Appends `event` to its pubend's stream.
    ///
    /// Durability requires a subsequent [`EventLog::sync`] (the PHB group
    /// commits: one sync covers a batch of appends — this is the 44 ms of
    /// the paper's latency budget).
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails.
    pub fn append(&mut self, event: &EventRef) -> Result<LogIndex, StorageError> {
        let data = codec::encode_event(event);
        let idx = self.volume.append(stream_for(event.pubend), &data)?;
        self.by_ts
            .entry(event.pubend)
            .or_default()
            .insert(event.ts, idx);
        Ok(idx)
    }

    /// Group-commit point: flushes all appended events.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.volume.sync()
    }

    /// Reads events of `pubend` with `from ≤ ts ≤ to`, ascending.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails or a record fails
    /// to decode.
    pub fn read_range(
        &mut self,
        pubend: PubendId,
        from: Timestamp,
        to: Timestamp,
    ) -> Result<Vec<EventRef>, StorageError> {
        let Some(map) = self.by_ts.get(&pubend) else {
            return Ok(Vec::new());
        };
        let indexes: Vec<LogIndex> = map.range(from..=to).map(|(_, &i)| i).collect();
        let stream = stream_for(pubend);
        let mut out = Vec::with_capacity(indexes.len());
        for idx in indexes {
            if let Some(data) = self.volume.read(stream, idx)? {
                out.push(Arc::new(codec::decode_event(&data)?));
            }
        }
        Ok(out)
    }

    /// Reads the single event at `ts`, if present and not chopped.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails.
    pub fn read_at(
        &mut self,
        pubend: PubendId,
        ts: Timestamp,
    ) -> Result<Option<EventRef>, StorageError> {
        let Some(&idx) = self.by_ts.get(&pubend).and_then(|m| m.get(&ts)) else {
            return Ok(None);
        };
        match self.volume.read(stream_for(pubend), idx)? {
            Some(data) => Ok(Some(Arc::new(codec::decode_event(&data)?))),
            None => Ok(None),
        }
    }

    /// Discards all events of `pubend` with `ts < below` (release/early
    /// release). Reclaims fully-dead segments.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails.
    pub fn chop_below(&mut self, pubend: PubendId, below: Timestamp) -> Result<(), StorageError> {
        let stream = stream_for(pubend);
        let Some(map) = self.by_ts.get_mut(&pubend) else {
            return Ok(());
        };
        if below <= Timestamp(self.volume.chop_floor(stream)) {
            return Ok(());
        }
        // The first surviving record's index bounds the volume chop. The
        // boundary rides in the chop frame as its floor, so the events
        // and the boundary are forgotten (or kept) together.
        let chop_to = map
            .range(below..)
            .next()
            .map_or_else(|| self.volume.next_index(stream), |(_, &i)| i);
        *map = map.split_off(&below);
        self.volume.chop(stream, chop_to, below.0)
    }

    /// Number of live (unchopped) events for `pubend`.
    pub fn live_events(&self, pubend: PubendId) -> usize {
        self.by_ts.get(&pubend).map(|m| m.len()).unwrap_or(0)
    }

    /// Everything strictly below this timestamp has been chopped.
    pub fn chopped_below_ts(&self, pubend: PubendId) -> Timestamp {
        Timestamp(self.volume.chop_floor(stream_for(pubend)))
    }

    /// Underlying volume counters (bytes logged, syncs, ...).
    pub fn stats(&self) -> crate::VolumeStats {
        self.volume.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{MediaFactory, MemFactory};

    fn ev(p: u32, ts: u64) -> EventRef {
        Event::builder(PubendId(p))
            .attr("n", ts as i64)
            .payload(vec![0u8; 32])
            .build_ref(Timestamp(ts))
    }

    fn fresh() -> (MemFactory, EventLog) {
        let f = MemFactory::new();
        let log = EventLog::open(Box::new(f.clone()), "el", VolumeConfig::default()).unwrap();
        (f, log)
    }

    #[test]
    fn append_and_range_read() {
        let (_f, mut log) = fresh();
        for ts in [5u64, 10, 15, 20] {
            log.append(&ev(0, ts)).unwrap();
        }
        let got = log
            .read_range(PubendId(0), Timestamp(6), Timestamp(15))
            .unwrap();
        assert_eq!(got.iter().map(|e| e.ts.0).collect::<Vec<_>>(), vec![10, 15]);
        assert_eq!(log.live_events(PubendId(0)), 4);
    }

    #[test]
    fn pubends_are_isolated() {
        let (_f, mut log) = fresh();
        log.append(&ev(0, 5)).unwrap();
        log.append(&ev(1, 5)).unwrap();
        assert_eq!(
            log.read_range(PubendId(0), Timestamp(0), Timestamp::MAX)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            log.read_range(PubendId(2), Timestamp(0), Timestamp::MAX)
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn chop_below_discards_prefix() {
        let (_f, mut log) = fresh();
        for ts in 1..=10u64 {
            log.append(&ev(0, ts)).unwrap();
        }
        log.chop_below(PubendId(0), Timestamp(6)).unwrap();
        assert_eq!(log.live_events(PubendId(0)), 5);
        assert!(log.read_at(PubendId(0), Timestamp(5)).unwrap().is_none());
        assert!(log.read_at(PubendId(0), Timestamp(6)).unwrap().is_some());
        assert_eq!(log.chopped_below_ts(PubendId(0)), Timestamp(6));
        // Chop regressions are ignored.
        log.chop_below(PubendId(0), Timestamp(2)).unwrap();
        assert_eq!(log.chopped_below_ts(PubendId(0)), Timestamp(6));
    }

    #[test]
    fn recovery_restores_events_and_chops() {
        let f = MemFactory::new();
        {
            let mut log =
                EventLog::open(Box::new(f.clone()), "el", VolumeConfig::default()).unwrap();
            for ts in 1..=6u64 {
                log.append(&ev(0, ts)).unwrap();
            }
            log.chop_below(PubendId(0), Timestamp(3)).unwrap();
            log.sync().unwrap();
        }
        let mut log = EventLog::open(Box::new(f), "el", VolumeConfig::default()).unwrap();
        assert_eq!(log.live_events(PubendId(0)), 4);
        assert!(log.read_at(PubendId(0), Timestamp(2)).unwrap().is_none());
        let e = log.read_at(PubendId(0), Timestamp(4)).unwrap().unwrap();
        assert_eq!(e.attr("n"), Some(&gryphon_types::AttrValue::Int(4)));
    }

    #[test]
    fn chop_moving_only_the_floor_survives_reopen() {
        let f = MemFactory::new();
        {
            let mut log =
                EventLog::open(Box::new(f.clone()), "el", VolumeConfig::default()).unwrap();
            for ts in 1..=3u64 {
                log.append(&ev(0, ts)).unwrap();
            }
            log.chop_below(PubendId(0), Timestamp(4)).unwrap();
            // An idle pubend's silence: the floor moves, the index cannot.
            log.chop_below(PubendId(0), Timestamp(10)).unwrap();
            log.sync().unwrap();
        }
        let log = EventLog::open(Box::new(f), "el", VolumeConfig::default()).unwrap();
        assert_eq!(log.chopped_below_ts(PubendId(0)), Timestamp(10));
        assert_eq!(log.live_events(PubendId(0)), 0);
    }

    #[test]
    fn chops_free_segments_as_they_go() {
        let f = MemFactory::new();
        let config = VolumeConfig {
            segment_bytes: 4096,
            ..VolumeConfig::default()
        };
        let mut log = EventLog::open(Box::new(f.clone()), "el", config).unwrap();
        for round in 1..=500u64 {
            for p in 0..4 {
                log.append(&ev(p, round)).unwrap();
            }
            for p in 0..4 {
                log.chop_below(PubendId(p), Timestamp(round)).unwrap();
            }
            let segs = f.list().unwrap();
            assert!(segs.len() <= 2, "round {round}: {segs:?}");
        }
    }

    #[test]
    fn unsynced_tail_lost_on_crash() {
        let f = MemFactory::new();
        {
            let mut log =
                EventLog::open(Box::new(f.clone()), "el", VolumeConfig::default()).unwrap();
            log.append(&ev(0, 1)).unwrap();
            log.sync().unwrap();
            log.append(&ev(0, 2)).unwrap(); // not synced
        }
        f.crash_lose_unsynced();
        let mut log = EventLog::open(Box::new(f), "el", VolumeConfig::default()).unwrap();
        assert!(log.read_at(PubendId(0), Timestamp(1)).unwrap().is_some());
        assert!(log.read_at(PubendId(0), Timestamp(2)).unwrap().is_none());
    }
}
