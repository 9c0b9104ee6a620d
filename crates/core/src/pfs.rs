//! The Persistent Filtering Subsystem (paper §4.2).
//!
//! The PFS stores, per pubend, *which timestamps matched which durable
//! subscribers*, so a reconnecting subscriber's missed interval can be
//! recovered without retrieving and refiltering every event published
//! while it was away.
//!
//! ## On-disk layout
//!
//! One [`LogVolume`] stream per pubend. One record is written per
//! timestamp that is `Q` (matched) for at least one subscriber — nothing
//! is written for all-silent ticks. A record is exactly the paper's
//! `8 + 16·n` bytes:
//!
//! ```text
//! ts: u64 | n × ( subscriber: u64, prev_index: u64 )
//! ```
//!
//! where `prev_index` is the volume index of the previous record that
//! contains this subscriber (the backpointer), or `⊥` for the first. The
//! per-subscriber metadata `lastIndex(s)` / `lastTimestamp(p)` is held in
//! memory and rebuilt by a scan on recovery; the chop floor rides in the
//! stream's chop frames ([`LogVolume::chop_floor`]).
//!
//! Writes and reads name a subscriber by its SHB slab slot
//! ([`Pfs::write_slots`], [`Pfs::read_slot`]): the newest chain head per
//! slot is a dense in-memory array, and the id-keyed `lastIndex(s)` map
//! the recovery scan rebuilds answers for a slot not written since.
//!
//! ## Reading
//!
//! A batch read walks backpointers newest→oldest within `(from, to]`,
//! yielding the subscriber's `Q` ticks; ticks between them are implicitly
//! `S`. A read that returns every available `Q` tick (no buffer
//! saturation) is a *full* read — the paper reports 87 % of catchup reads
//! being full with a 5000-tick buffer.

use gryphon_storage::{
    LogIndex, LogVolume, MediaFactory, StorageError, StreamId, VolumeConfig, VolumeStats,
};
use gryphon_types::{PubendId, SubSlot, SubscriberId, Timestamp};
use std::collections::{BTreeMap, HashMap};

/// Record shape; see the [module docs](self). One record per matched
/// timestamp is the only shape the PFS writes; the parameter of
/// [`Pfs::open`] keeps its existing callers compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfsMode {
    /// One record per matched timestamp (the paper's implementation).
    Precise,
}

/// Result of a batch read for one subscriber; see [`Pfs::read_slot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfsReadResult {
    /// The subscriber's `Q` ticks, ascending, all within
    /// `(known_from, covered_to]`.
    pub q_ticks: Vec<Timestamp>,
    /// Every tick in `(known_from, covered_to]` **not** in `q_ticks` is
    /// `S` for this subscriber.
    pub covered_to: Timestamp,
    /// Ticks in `(from, known_from]` are *undetermined* (their records
    /// were chopped): the caller must nack that whole range. Equal to
    /// `from` when the chain was intact.
    pub known_from: Timestamp,
    /// `true` when the walk returned every available `Q` tick (no buffer
    /// saturation) — the paper's "read reached `lastTimestamp`" metric.
    pub full_read: bool,
    /// Records visited (cost/latency accounting).
    pub records_visited: usize,
}

/// Newest backpointer-chain head for one slab slot (the dense-index
/// mirror of `lastIndex(s)` used by the slot-keyed hot path).
#[derive(Debug, Clone, Copy)]
struct SlotHead {
    generation: u32,
    idx: LogIndex,
    ts: Timestamp,
}

/// The Persistent Filtering Subsystem of one SHB.
///
/// # Examples
///
/// ```
/// use gryphon::Pfs;
/// use gryphon_storage::MemFactory;
/// use gryphon_types::{PubendId, SubSlot, SubscriberId, Timestamp};
///
/// let mut pfs = Pfs::open(Box::new(MemFactory::new()), "shb0", gryphon::PfsMode::Precise)?;
/// let p = PubendId(0);
/// // Slab slot `i` holds subscriber `i`, generation 0.
/// let resolve = |i: u32| (SubscriberId(i.into()), 0);
/// pfs.write_slots(p, Timestamp(1), &[1, 2], resolve)?;
/// pfs.write_slots(p, Timestamp(4), &[1], resolve)?;
/// pfs.write_slots(p, Timestamp(5), &[2], resolve)?;
/// pfs.sync()?;
///
/// let s1 = SubSlot::new(1, 0);
/// let r = pfs.read_slot(p, s1, SubscriberId(1), Timestamp::ZERO, Timestamp(10), 100)?;
/// assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(4)]);
/// assert!(r.full_read);
/// # Ok::<(), gryphon_storage::StorageError>(())
/// ```
pub struct Pfs {
    volume: LogVolume,
    /// (pubend, sub) → (newest record index containing it, its ts),
    /// rebuilt by the recovery scan: the paper's `lastIndex(s)`. Chains
    /// are per log stream, i.e. per pubend.
    last_index: HashMap<(PubendId, SubscriberId), (LogIndex, Timestamp)>,
    /// pubend → newest record timestamp.
    last_timestamp: HashMap<PubendId, Timestamp>,
    /// pubend → record-ts → volume index (for ts-based chopping).
    ts_index: HashMap<PubendId, BTreeMap<Timestamp, LogIndex>>,
    /// pubend → dense per-slab-slot chain heads, generation-stamped,
    /// kept by every write. A miss (slot recycled, or not written since
    /// recovery) falls back to `last_index`.
    slot_heads: HashMap<PubendId, Vec<Option<SlotHead>>>,
    /// Reusable write-path buffers (the constream hot path must not
    /// allocate per event).
    scratch_pairs: Vec<(SubscriberId, LogIndex)>,
    scratch_gens: Vec<u32>,
    scratch_data: Vec<u8>,
}

impl std::fmt::Debug for Pfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pfs")
            .field("subs", &self.last_index.len())
            .field("pubends", &self.last_timestamp.len())
            .finish()
    }
}

fn stream_for(p: PubendId) -> StreamId {
    StreamId(p.0)
}

impl Pfs {
    /// Opens (recovering) or creates the PFS named `name`.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or non-tail corruption.
    pub fn open(
        factory: Box<dyn MediaFactory>,
        name: &str,
        _mode: PfsMode,
    ) -> Result<Self, StorageError> {
        let volume = LogVolume::open(factory, &format!("{name}-pfs"), VolumeConfig::default())?;
        let mut pfs = Pfs {
            volume,
            last_index: HashMap::new(),
            last_timestamp: HashMap::new(),
            ts_index: HashMap::new(),
            slot_heads: HashMap::new(),
            scratch_pairs: Vec::new(),
            scratch_gens: Vec::new(),
            scratch_data: Vec::new(),
        };
        pfs.rebuild()?;
        Ok(pfs)
    }

    fn rebuild(&mut self) -> Result<(), StorageError> {
        for stream in self.volume.stream_ids() {
            let pubend = PubendId(stream.0);
            let records = self.volume.read_all(stream)?;
            for (idx, data) in records {
                let rec = decode_record(&data)?;
                for (sub, _) in &rec.subs {
                    self.last_index.insert((pubend, *sub), (idx, rec.ts));
                }
                let lt = self.last_timestamp.entry(pubend).or_insert(Timestamp::ZERO);
                *lt = (*lt).max(rec.ts);
                self.ts_index.entry(pubend).or_default().insert(rec.ts, idx);
            }
        }
        Ok(())
    }

    /// Everything of `p` at or below this tick may have been chopped.
    fn floor(&self, p: PubendId) -> Timestamp {
        Timestamp(self.volume.chop_floor(stream_for(p)))
    }

    /// Records that `ts` on pubend `p` matched the subscribers in `slots`
    /// (must be non-empty; calls must use ascending `ts` per pubend — the
    /// constream's order). `slots` are slab indices (a match result), and
    /// `resolve` maps one to its `(SubscriberId, generation)` via the slab.
    ///
    /// The backpointer for each slot comes from a dense generation-stamped
    /// head vector — no per-subscriber hash lookup per event. A
    /// generation miss (slot recycled since the last write, or freshly
    /// recovered) falls back to the `lastIndex` map the recovery scan
    /// rebuilt. Writes at or below `lastTimestamp(p)` return without
    /// touching anything, which makes the call idempotent (and
    /// allocation-free) across crash-recovery re-processing: the
    /// constream may replay a span whose records are already durable.
    ///
    /// Durability requires a subsequent [`Pfs::sync`].
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails.
    ///
    /// # Panics
    ///
    /// Debug-asserts a non-empty slot list.
    pub fn write_slots(
        &mut self,
        p: PubendId,
        ts: Timestamp,
        slots: &[u32],
        resolve: impl Fn(u32) -> (SubscriberId, u32),
    ) -> Result<(), StorageError> {
        debug_assert!(!slots.is_empty(), "PFS write with no matching slots");
        if self.last_timestamp.get(&p).is_some_and(|&lt| ts <= lt) {
            return Ok(()); // idempotent replay after recovery
        }
        let mut pairs = std::mem::take(&mut self.scratch_pairs);
        let mut gens = std::mem::take(&mut self.scratch_gens);
        let mut data = std::mem::take(&mut self.scratch_data);
        pairs.clear();
        gens.clear();
        let heads = self.slot_heads.entry(p).or_default();
        let max = slots.iter().copied().max().unwrap_or(0) as usize;
        if heads.len() <= max {
            heads.resize(max + 1, None);
        }
        for &si in slots {
            let (sub, generation) = resolve(si);
            let prev = match heads[si as usize] {
                Some(h) if h.generation == generation => h.idx,
                _ => self
                    .last_index
                    .get(&(p, sub))
                    .map(|&(i, _)| i)
                    .unwrap_or(LogIndex::NONE),
            };
            pairs.push((sub, prev));
            gens.push(generation);
        }
        encode_record(&mut data, ts, &pairs);
        let idx = self.volume.append(stream_for(p), &data)?;
        for (&si, &generation) in slots.iter().zip(gens.iter()) {
            heads[si as usize] = Some(SlotHead {
                generation,
                idx,
                ts,
            });
        }
        self.last_timestamp
            .entry(p)
            .and_modify(|lt| *lt = (*lt).max(ts))
            .or_insert(ts);
        self.ts_index.entry(p).or_default().insert(ts, idx);
        self.scratch_pairs = pairs;
        self.scratch_gens = gens;
        self.scratch_data = data;
        Ok(())
    }

    /// Group-commit point: syncs the volume.
    ///
    /// # Errors
    ///
    /// Returns an error if the sync fails.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.volume.sync()
    }

    /// Batch read for subscriber `sub` in slab slot `slot` on pubend `p`
    /// over `(from, to]`, returning at most `max_q` of the **oldest** `Q`
    /// ticks; see [`PfsReadResult`] for the semantics of the returned
    /// bounds. The backpointer walk starts from the slot's cached chain
    /// head when its generation still matches, falling back to the
    /// `lastIndex` map otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails.
    pub fn read_slot(
        &mut self,
        p: PubendId,
        slot: SubSlot,
        sub: SubscriberId,
        from: Timestamp,
        to: Timestamp,
        max_q: usize,
    ) -> Result<PfsReadResult, StorageError> {
        let head = self
            .slot_heads
            .get(&p)
            .and_then(|hs| hs.get(slot.index() as usize).copied().flatten())
            .filter(|h| h.generation == slot.generation())
            .map(|h| h.idx)
            .or_else(|| self.last_index.get(&(p, sub)).map(|&(i, _)| i));
        let max_q = max_q.max(1); // a zero-sized buffer still reads one tick
        let mut known_from = from.max(self.floor(p));
        let mut collected: Vec<Timestamp> = Vec::new(); // newest → oldest
        let mut visited = 0usize;
        let mut cursor = head.unwrap_or(LogIndex::NONE);
        let stream = stream_for(p);
        while cursor != LogIndex::NONE {
            let Some(data) = self.volume.read(stream, cursor)? else {
                // Chain broken by a chop: everything below the oldest
                // collected tick is undetermined.
                let boundary = collected.last().map(|t| t.prev()).unwrap_or(to);
                known_from = known_from.max(boundary).min(to);
                break;
            };
            visited += 1;
            let rec = decode_record(&data)?;
            let Some(&(_, prev)) = rec.subs.iter().find(|(s, _)| *s == sub) else {
                // The walk follows this subscriber's chain, so every
                // record must contain it; a miss means index corruption.
                return Err(StorageError::Corrupt {
                    media: format!("pfs stream {p}"),
                    offset: cursor.0,
                    detail: format!("record lacks {sub}"),
                });
            };
            if rec.ts <= known_from {
                break; // walked past the window: chain is intact below
            }
            if rec.ts <= to {
                collected.push(rec.ts);
            }
            cursor = prev;
        }
        collected.reverse(); // ascending
        let full_read = collected.len() <= max_q;
        collected.truncate(max_q);
        let covered_to = match collected.last() {
            Some(&last) if !full_read => last,
            _ => to,
        };
        Ok(PfsReadResult {
            q_ticks: collected,
            covered_to,
            known_from,
            full_read,
            records_visited: visited,
        })
    }

    /// Discards all records with timestamps `< below` for `p` (everything
    /// there has been released by every durable subscriber). The floor
    /// rides in the chop frame, so reads after a crash stay conservative.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails.
    pub fn chop_below(&mut self, p: PubendId, below: Timestamp) -> Result<(), StorageError> {
        let new_floor = below.prev();
        if new_floor <= self.floor(p) {
            return Ok(());
        }
        let stream = stream_for(p);
        let mut boundary = self.volume.next_index(stream);
        if let Some(map) = self.ts_index.get_mut(&p) {
            if let Some((_, &i)) = map.range(below..).next() {
                boundary = i;
            }
            *map = map.split_off(&below);
        }
        self.volume.chop(stream, boundary, new_floor.0)?;
        // Prune subscribers whose entire chain (on this pubend) is gone:
        // their newest record was below the chop, so every surviving tick
        // is S for them — exactly what an absent last_index means. The
        // slot heads mirror that: a head pointing below the chop must be
        // cleared, or a later read would walk into chopped records and
        // report undetermined instead of all-silence.
        self.last_index
            .retain(|&(rp, _), &mut (_, ts)| rp != p || ts >= below);
        if let Some(heads) = self.slot_heads.get_mut(&p) {
            for h in heads.iter_mut() {
                if h.is_some_and(|sh| sh.ts < below) {
                    *h = None;
                }
            }
        }
        Ok(())
    }

    /// Volume counters (records, payload bytes, syncs) — the PFS
    /// microbenchmark reads the "25× less data" off these.
    pub fn stats(&self) -> VolumeStats {
        self.volume.stats()
    }
}

/// Ticks stay below 2^63; a record whose timestamp has bit 63 set is
/// corrupt.
const TS_BIT_63: u64 = 1 << 63;

struct Record {
    ts: Timestamp,
    subs: Vec<(SubscriberId, LogIndex)>,
}

/// Encodes into a caller-owned buffer so the hot path can reuse it.
fn encode_record(out: &mut Vec<u8>, ts: Timestamp, pairs: &[(SubscriberId, LogIndex)]) {
    out.clear();
    out.reserve(8 + 16 * pairs.len());
    out.extend_from_slice(&ts.0.to_le_bytes());
    for (s, prev) in pairs {
        out.extend_from_slice(&s.0.to_le_bytes());
        out.extend_from_slice(&prev.0.to_le_bytes());
    }
}

fn decode_record(data: &[u8]) -> Result<Record, StorageError> {
    let corrupt = |detail: &str| StorageError::Corrupt {
        media: "pfs".into(),
        offset: 0,
        detail: detail.into(),
    };
    let Some((ts, rest)) = data.split_first_chunk::<8>() else {
        return Err(corrupt("record shorter than timestamp"));
    };
    let ts = u64::from_le_bytes(*ts);
    if ts & TS_BIT_63 != 0 {
        return Err(corrupt("record timestamp has bit 63 set"));
    }
    let (words, odd_bytes) = rest.as_chunks::<8>();
    let (pairs, odd_words) = words.as_chunks::<2>();
    if !odd_bytes.is_empty() || !odd_words.is_empty() {
        return Err(corrupt("record pair section misaligned"));
    }
    let subs = pairs
        .iter()
        .map(|&[s, i]| {
            (
                SubscriberId(u64::from_le_bytes(s)),
                LogIndex(u64::from_le_bytes(i)),
            )
        })
        .collect();
    Ok(Record {
        ts: Timestamp(ts),
        subs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_storage::MemFactory;

    fn fresh() -> (MemFactory, Pfs) {
        let f = MemFactory::new();
        let pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
        (f, pfs)
    }

    const P: PubendId = PubendId(0);
    const S1: SubscriberId = SubscriberId(1);
    const S2: SubscriberId = SubscriberId(2);

    /// Slab slot `i` holds subscriber `i` at generation 0.
    fn resolve(i: u32) -> (SubscriberId, u32) {
        (SubscriberId(i.into()), 0)
    }

    fn write(pfs: &mut Pfs, p: PubendId, ts: u64, slots: &[u32]) {
        pfs.write_slots(p, Timestamp(ts), slots, resolve).unwrap();
    }

    /// Reads slot `slot`'s subscriber over `(from, to]`.
    fn read(
        pfs: &mut Pfs,
        p: PubendId,
        slot: u32,
        from: u64,
        to: u64,
        max_q: usize,
    ) -> PfsReadResult {
        let sub = resolve(slot).0;
        pfs.read_slot(
            p,
            SubSlot::new(slot, 0),
            sub,
            Timestamp(from),
            Timestamp(to),
            max_q,
        )
        .unwrap()
    }

    fn ticks(ts: &[u64]) -> Vec<Timestamp> {
        ts.iter().copied().map(Timestamp).collect()
    }

    /// The paper's figure-2 example: records at t=1 (s1,s2,s3), t=3 (s2),
    /// t=4 (s1, s3), t=5 (s2, s3).
    fn figure2(pfs: &mut Pfs) {
        write(pfs, P, 1, &[1, 2, 3]);
        write(pfs, P, 3, &[2]);
        write(pfs, P, 4, &[1, 3]);
        write(pfs, P, 5, &[2, 3]);
        pfs.sync().unwrap();
    }

    #[test]
    fn figure2_reads_per_subscriber() {
        let (_f, mut pfs) = fresh();
        figure2(&mut pfs);
        let r = read(&mut pfs, P, 1, 0, 10, 100);
        assert_eq!(r.q_ticks, ticks(&[1, 4]));
        assert_eq!(r.known_from, Timestamp::ZERO);
        assert_eq!(r.covered_to, Timestamp(10));
        assert_eq!(read(&mut pfs, P, 2, 0, 10, 100).q_ticks, ticks(&[1, 3, 5]));
        assert_eq!(read(&mut pfs, P, 3, 0, 10, 100).q_ticks, ticks(&[1, 4, 5]));
    }

    #[test]
    fn read_window_clips_both_ends() {
        let (_f, mut pfs) = fresh();
        figure2(&mut pfs);
        let r = read(&mut pfs, P, 3, 1, 4, 100);
        assert_eq!(r.q_ticks, ticks(&[4]));
        assert_eq!(r.covered_to, Timestamp(4));
    }

    #[test]
    fn saturated_read_returns_oldest_and_reports_partial() {
        let (_f, mut pfs) = fresh();
        for t in 1..=20u64 {
            write(&mut pfs, P, t, &[1]);
        }
        pfs.sync().unwrap();
        let r = read(&mut pfs, P, 1, 0, 30, 5);
        assert_eq!(r.q_ticks, ticks(&[1, 2, 3, 4, 5]), "oldest five");
        assert_eq!(r.covered_to, Timestamp(5));
        assert!(!r.full_read);
        // Next read resumes above covered_to.
        let r2 = read(&mut pfs, P, 1, r.covered_to.0, 30, 100);
        assert_eq!(r2.q_ticks.first(), Some(&Timestamp(6)));
        assert!(r2.full_read);
    }

    #[test]
    fn subscriber_with_no_records_sees_all_silence() {
        let (_f, mut pfs) = fresh();
        figure2(&mut pfs);
        let r = read(&mut pfs, P, 99, 0, 10, 100);
        assert!(r.q_ticks.is_empty());
        assert_eq!(r.covered_to, Timestamp(10));
        assert!(r.full_read);
    }

    #[test]
    fn pubends_are_isolated() {
        let (_f, mut pfs) = fresh();
        write(&mut pfs, PubendId(0), 1, &[1]);
        write(&mut pfs, PubendId(1), 2, &[1]);
        pfs.sync().unwrap();
        // Chains are keyed per (pubend, sub): s1's records on pubend 0
        // must not appear when reading pubend 1.
        assert_eq!(
            read(&mut pfs, PubendId(1), 1, 0, 10, 100).q_ticks,
            ticks(&[2])
        );
        assert_eq!(
            read(&mut pfs, PubendId(0), 1, 0, 10, 100).q_ticks,
            ticks(&[1])
        );
    }

    #[test]
    fn recovery_rebuilds_chains() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            figure2(&mut pfs);
        }
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        assert_eq!(read(&mut pfs, P, 2, 0, 10, 100).q_ticks, ticks(&[1, 3, 5]));
        // Replays at or below the recovered lastTimestamp are ignored.
        let records = pfs.stats().records;
        write(&mut pfs, P, 5, &[1]);
        assert_eq!(pfs.stats().records, records);
        // Appending after recovery chains onto the rebuilt lastIndex map.
        write(&mut pfs, P, 7, &[2]);
        pfs.sync().unwrap();
        assert_eq!(read(&mut pfs, P, 2, 2, 10, 100).q_ticks, ticks(&[3, 5, 7]));
    }

    #[test]
    fn unsynced_writes_lost_on_crash() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            write(&mut pfs, P, 1, &[1]);
            pfs.sync().unwrap();
            write(&mut pfs, P, 2, &[1]); // not synced
        }
        f.crash_lose_unsynced();
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        assert_eq!(read(&mut pfs, P, 1, 0, 10, 100).q_ticks, ticks(&[1]));
    }

    #[test]
    fn chop_prunes_dead_chains_and_persists_floor() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            write(&mut pfs, P, 1, &[1]);
            write(&mut pfs, P, 5, &[2]);
            pfs.sync().unwrap();
            pfs.chop_below(P, Timestamp(3)).unwrap();
            // S1's whole chain is below the chop: all-silence, not a
            // broken walk into chopped records.
            let r = read(&mut pfs, P, 1, 3, 10, 100);
            assert!(r.q_ticks.is_empty());
            assert!(r.full_read);
            // S2 unaffected.
            assert_eq!(read(&mut pfs, P, 2, 3, 10, 100).q_ticks, ticks(&[5]));
        }
        // Floor survives crash: reads from below it report undetermined.
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        let r = read(&mut pfs, P, 2, 0, 10, 100);
        assert_eq!(r.known_from, Timestamp(2), "ticks ≤ floor undetermined");
        assert_eq!(r.q_ticks, ticks(&[5]));
    }

    #[test]
    fn chop_on_a_pubend_with_no_records_keeps_its_floor() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            pfs.chop_below(P, Timestamp(10)).unwrap();
            pfs.sync().unwrap();
        }
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        let r = read(&mut pfs, P, 1, 0, 20, 100);
        assert_eq!(r.known_from, Timestamp(9), "ticks ≤ floor undetermined");
        assert!(r.q_ticks.is_empty());
    }

    #[test]
    fn one_factory_holds_only_segment_files() {
        use gryphon_storage::{EventLog, MediaFactory, SharedMetaTable, TableConfig};
        use gryphon_types::Event;
        let f = MemFactory::new();
        let mut log =
            EventLog::open(Box::new(f.clone()), "b0-events", VolumeConfig::default()).unwrap();
        let mut pfs = Pfs::open(Box::new(f.clone()), "b0", PfsMode::Precise).unwrap();
        let meta =
            SharedMetaTable::open(Box::new(f.clone()), "b0-meta", TableConfig::default()).unwrap();
        for ts in 1..=20u64 {
            log.append(&Event::builder(P).build_ref(Timestamp(ts)))
                .unwrap();
            write(&mut pfs, P, ts, &[1]);
            meta.put_u64("ld/0", ts).unwrap();
        }
        log.sync().unwrap();
        pfs.sync().unwrap();
        log.chop_below(P, Timestamp(10)).unwrap();
        pfs.chop_below(P, Timestamp(10)).unwrap();
        pfs.chop_below(PubendId(1), Timestamp(10)).unwrap();
        let mut names = f.list().unwrap();
        names.sort();
        assert_eq!(
            names,
            [
                "b0-events-00000000.seg",
                "b0-meta-00000000.seg",
                "b0-pfs-00000000.seg"
            ]
        );
    }

    #[test]
    fn precise_record_is_paper_sized() {
        // 8 + 16·n bytes, exactly footnote 2 of the paper.
        let pairs = vec![(S1, LogIndex(4)), (S2, LogIndex::NONE)];
        let mut data = Vec::new();
        encode_record(&mut data, Timestamp(9), &pairs);
        assert_eq!(data.len(), 8 + 16 * 2);
        let rec = decode_record(&data).unwrap();
        assert_eq!(rec.ts, Timestamp(9));
        assert_eq!(rec.subs, pairs);
    }

    #[test]
    fn written_record_bytes_are_pinned() {
        // The on-disk format: ts | n × (subscriber, prev_index), all u64
        // little-endian, prev_index u64::MAX for a chain's first record.
        let (_f, mut pfs) = fresh();
        write(&mut pfs, P, 1, &[1]);
        write(&mut pfs, P, 9, &[1, 2]);
        let data = pfs
            .volume
            .read(stream_for(P), LogIndex(1))
            .unwrap()
            .unwrap();
        let mut want = Vec::new();
        for word in [9u64, 1, 0, 2, u64::MAX] {
            want.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(data.len(), 40);
        assert_eq!(data[..], want[..]);
    }

    #[test]
    fn recycled_slot_starts_a_fresh_chain() {
        let (_f, mut pfs) = fresh();
        write(&mut pfs, P, 1, &[0, 1]);
        write(&mut pfs, P, 3, &[1]);
        write(&mut pfs, P, 4, &[0]);
        pfs.sync().unwrap();
        assert_eq!(read(&mut pfs, P, 0, 0, 10, 100).q_ticks, ticks(&[1, 4]));
        // Recycle slot 0 to a new subscriber (generation bump): its chain
        // must start fresh, not chain onto subscriber 0's records.
        let recycled = |si: u32| {
            if si == 0 {
                (SubscriberId(9), 1u32)
            } else {
                resolve(si)
            }
        };
        pfs.write_slots(P, Timestamp(7), &[0], recycled).unwrap();
        pfs.sync().unwrap();
        let r = pfs
            .read_slot(
                P,
                SubSlot::new(0, 1),
                SubscriberId(9),
                Timestamp::ZERO,
                Timestamp(10),
                100,
            )
            .unwrap();
        assert_eq!(r.q_ticks, ticks(&[7]));
        // A stale handle to the old tenant sees nothing in-run (the dead
        // chain is unreachable, exactly like an unsubscribed id).
        assert!(read(&mut pfs, P, 0, 0, 10, 100).q_ticks.is_empty());
    }

    #[test]
    fn recovery_rebuilds_id_chains_from_slot_writes() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            write(&mut pfs, P, 1, &[1, 2]);
            write(&mut pfs, P, 4, &[1]);
            pfs.sync().unwrap();
        }
        // The slot heads are gone after a crash: reads start from the
        // id-keyed chains the recovery scan rebuilt.
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        assert_eq!(read(&mut pfs, P, 1, 0, 10, 100).q_ticks, ticks(&[1, 4]));
        // Post-recovery slot writes chain onto the rebuilt id map.
        write(&mut pfs, P, 7, &[1]);
        pfs.sync().unwrap();
        assert_eq!(read(&mut pfs, P, 1, 2, 10, 100).q_ticks, ticks(&[4, 7]));
    }

    #[test]
    fn chop_clears_stale_slot_heads() {
        let (_f, mut pfs) = fresh();
        write(&mut pfs, P, 1, &[0]);
        write(&mut pfs, P, 5, &[1]);
        pfs.sync().unwrap();
        pfs.chop_below(P, Timestamp(3)).unwrap();
        // Slot 0's whole chain was chopped: all-silence, not a broken
        // walk into chopped records.
        let r = read(&mut pfs, P, 0, 3, 10, 100);
        assert!(r.q_ticks.is_empty());
        assert!(r.full_read);
        // Slot 1 unaffected.
        assert_eq!(read(&mut pfs, P, 1, 3, 10, 100).q_ticks, ticks(&[5]));
    }

    #[test]
    fn slot_write_replay_is_idempotent() {
        let (_f, mut pfs) = fresh();
        write(&mut pfs, P, 1, &[0]);
        write(&mut pfs, P, 2, &[0]);
        let records = pfs.stats().records;
        // Re-processing the same span after recovery must not append.
        write(&mut pfs, P, 1, &[0]);
        write(&mut pfs, P, 2, &[0]);
        assert_eq!(pfs.stats().records, records);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode_record(&[0u8; 4]).is_err());
        assert!(decode_record(&[0u8; 20]).is_err()); // misaligned pairs
                                                     // Bit 63 set in the timestamp: corrupt, whatever follows.
        for tail in [&[0u8; 4][..], &[0u8; 16][..]] {
            let mut rec = (1u64 | 1 << 63).to_le_bytes().to_vec();
            rec.extend_from_slice(tail);
            assert!(decode_record(&rec).is_err());
        }
    }
}
