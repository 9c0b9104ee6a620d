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
//! is written for all-silent ticks. A precise record is exactly the
//! paper's `8 + 16·n` bytes:
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
//! ## Reading
//!
//! A batch read walks backpointers newest→oldest within `(from, to]`,
//! yielding the subscriber's `Q` ticks; ticks between them are implicitly
//! `S`. A read that returns every available `Q` tick (no buffer
//! saturation) is a *full* read — the paper reports 87 % of catchup reads
//! being full with a 5000-tick buffer.
//!
//! ## Imprecise mode
//!
//! [`PfsMode::Imprecise`] coalesces a window of consecutive matched
//! timestamps into one record carrying the *union* of matching
//! subscribers. Writes shrink further, at the cost of some subscribers
//! nacking (and the SHB refiltering) events that never matched them —
//! the correctness-preserving trade-off the paper describes.

use gryphon_storage::{
    LogIndex, LogVolume, MediaFactory, StorageError, StreamId, VolumeConfig, VolumeStats,
};
use gryphon_types::{PubendId, SubSlot, SubscriberId, Timestamp};
use std::collections::{BTreeMap, HashMap};

const IMPRECISE_FLAG: u64 = 1 << 63;

/// Precision mode; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfsMode {
    /// One record per matched timestamp (the paper's implementation).
    Precise,
    /// Coalesce up to `window_ticks` of matched timestamps per record.
    Imprecise {
        /// Maximum tick span covered by one record.
        window_ticks: u64,
    },
}

/// Result of a batch read for one subscriber; see [`Pfs::read`].
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

#[derive(Debug, Clone)]
struct PendingWindow {
    start: Timestamp,
    end: Timestamp,
    subs: BTreeMap<SubscriberId, LogIndex>,
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
/// use gryphon_types::{PubendId, SubscriberId, Timestamp};
///
/// let mut pfs = Pfs::open(Box::new(MemFactory::new()), "shb0", gryphon::PfsMode::Precise)?;
/// let p = PubendId(0);
/// let (s1, s2) = (SubscriberId(1), SubscriberId(2));
/// pfs.write(p, Timestamp(1), &[s1, s2])?;
/// pfs.write(p, Timestamp(4), &[s1])?;
/// pfs.write(p, Timestamp(5), &[s2])?;
/// pfs.sync()?;
///
/// let r = pfs.read(p, s1, Timestamp::ZERO, Timestamp(10), 100)?;
/// assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(4)]);
/// assert!(r.full_read);
/// # Ok::<(), gryphon_storage::StorageError>(())
/// ```
pub struct Pfs {
    volume: LogVolume,
    mode: PfsMode,
    /// (pubend, sub) → (newest record index containing it, its ts).
    /// Chains are per log stream, i.e. per pubend, exactly as in the
    /// paper's `lastIndex(s)` metadata.
    last_index: HashMap<(PubendId, SubscriberId), (LogIndex, Timestamp)>,
    /// pubend → newest record timestamp.
    last_timestamp: HashMap<PubendId, Timestamp>,
    /// pubend → record-ts → volume index (for ts-based chopping).
    ts_index: HashMap<PubendId, BTreeMap<Timestamp, LogIndex>>,
    /// Imprecise-mode buffered window per pubend.
    pending: HashMap<PubendId, PendingWindow>,
    /// pubend → dense per-slab-slot chain heads, generation-stamped.
    /// Purely an in-memory accelerator over `last_index`: misses (slot
    /// recycled, post-recovery, chopped) fall back to the id-keyed map.
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
            .field("mode", &self.mode)
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
        mode: PfsMode,
    ) -> Result<Self, StorageError> {
        let volume = LogVolume::open(factory, &format!("{name}-pfs"), VolumeConfig::default())?;
        let mut pfs = Pfs {
            volume,
            mode,
            last_index: HashMap::new(),
            last_timestamp: HashMap::new(),
            ts_index: HashMap::new(),
            pending: HashMap::new(),
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
                    self.last_index.insert((pubend, *sub), (idx, rec.end));
                }
                let lt = self.last_timestamp.entry(pubend).or_insert(Timestamp::ZERO);
                *lt = (*lt).max(rec.end);
                self.ts_index
                    .entry(pubend)
                    .or_default()
                    .insert(rec.start, idx);
            }
        }
        Ok(())
    }

    /// Everything of `p` at or below this tick may have been chopped.
    fn floor(&self, p: PubendId) -> Timestamp {
        Timestamp(self.volume.chop_floor(stream_for(p)))
    }

    /// Records that `ts` on pubend `p` matched `subs` (must be non-empty;
    /// calls must use ascending `ts` per pubend — the constream's order).
    /// Writes at or below `lastTimestamp(p)` are ignored, which makes the
    /// call idempotent across crash-recovery re-processing (the constream
    /// may replay a span whose records are already durable).
    ///
    /// Durability requires a subsequent [`Pfs::sync`].
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails.
    ///
    /// # Panics
    ///
    /// Debug-asserts a non-empty subscriber list.
    pub fn write(
        &mut self,
        p: PubendId,
        ts: Timestamp,
        subs: &[SubscriberId],
    ) -> Result<(), StorageError> {
        debug_assert!(!subs.is_empty(), "PFS write with no matching subscribers");
        if self.last_timestamp.get(&p).is_some_and(|&lt| ts <= lt) {
            return Ok(()); // idempotent replay after recovery
        }
        match self.mode {
            PfsMode::Precise => {
                self.emit_record(p, ts, ts, subs.iter().copied())?;
            }
            PfsMode::Imprecise { window_ticks } => {
                let flush = match self.pending.get(&p) {
                    Some(w) => ts.0.saturating_sub(w.start.0) >= window_ticks,
                    None => false,
                };
                if flush {
                    self.flush_window(p)?;
                }
                let w = self.pending.entry(p).or_insert(PendingWindow {
                    start: ts,
                    end: ts,
                    subs: BTreeMap::new(),
                });
                w.end = ts;
                for &s in subs {
                    w.subs.entry(s).or_insert(LogIndex::NONE);
                }
                // The record is written at flush/sync time.
                self.last_timestamp
                    .entry(p)
                    .and_modify(|lt| *lt = (*lt).max(ts))
                    .or_insert(ts);
            }
        }
        Ok(())
    }

    /// Slot-keyed variant of [`Pfs::write`] for the SHB's constream hot
    /// path: `slots` are slab indices (a match result), and `resolve`
    /// maps one to its `(SubscriberId, generation)` via the slab.
    ///
    /// The backpointer for each slot comes from a dense generation-stamped
    /// head vector — no per-subscriber hash lookup per event. A
    /// generation miss (slot recycled since the last write, or freshly
    /// recovered) falls back to the id-keyed `lastIndex` map. Replays at
    /// or below `lastTimestamp(p)` return without touching anything, so
    /// crash-recovery re-processing is allocation-free.
    ///
    /// Do not interleave the id-keyed [`Pfs::write`]/[`Pfs::read`] pair
    /// and the slot-keyed pair on the same pubend within one run:
    /// `write_slots` maintains only the slot heads (the id-keyed
    /// `lastIndex` map is rebuilt from the log on recovery), and a plain
    /// `write` would leave the slot heads stale. The id-keyed pair
    /// remains for the microbenchmarks and tests.
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
        if let PfsMode::Imprecise { .. } = self.mode {
            // Imprecise windows buffer by subscriber id; resolve and
            // delegate (this mode is off the hot path).
            let subs: Vec<SubscriberId> = slots.iter().map(|&si| resolve(si).0).collect();
            return self.write(p, ts, &subs);
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
        encode_record_into(&mut data, ts, ts, &pairs);
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

    fn emit_record(
        &mut self,
        p: PubendId,
        start: Timestamp,
        end: Timestamp,
        subs: impl Iterator<Item = SubscriberId>,
    ) -> Result<LogIndex, StorageError> {
        let pairs: Vec<(SubscriberId, LogIndex)> = subs
            .map(|s| {
                let prev = self
                    .last_index
                    .get(&(p, s))
                    .map(|&(i, _)| i)
                    .unwrap_or(LogIndex::NONE);
                (s, prev)
            })
            .collect();
        let data = encode_record(start, end, &pairs);
        let idx = self.volume.append(stream_for(p), &data)?;
        for (s, _) in &pairs {
            self.last_index.insert((p, *s), (idx, end));
        }
        self.last_timestamp
            .entry(p)
            .and_modify(|lt| *lt = (*lt).max(end))
            .or_insert(end);
        self.ts_index.entry(p).or_default().insert(start, idx);
        Ok(idx)
    }

    fn flush_window(&mut self, p: PubendId) -> Result<(), StorageError> {
        if let Some(w) = self.pending.remove(&p) {
            let subs: Vec<SubscriberId> = w.subs.keys().copied().collect();
            self.emit_record(p, w.start, w.end, subs.into_iter())?;
        }
        Ok(())
    }

    /// Group-commit point: flushes pending windows and syncs the volume.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        let pubends: Vec<PubendId> = self.pending.keys().copied().collect();
        for p in pubends {
            self.flush_window(p)?;
        }
        self.volume.sync()
    }

    /// Batch read for subscriber `sub` on pubend `p` over `(from, to]`,
    /// returning at most `max_q` of the **oldest** `Q` ticks; see
    /// [`PfsReadResult`] for the semantics of the returned bounds.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying volume fails.
    pub fn read(
        &mut self,
        p: PubendId,
        sub: SubscriberId,
        from: Timestamp,
        to: Timestamp,
        max_q: usize,
    ) -> Result<PfsReadResult, StorageError> {
        let head = self.last_index.get(&(p, sub)).map(|&(i, _)| i);
        self.read_walk(p, sub, head, from, to, max_q)
    }

    /// Slot-keyed variant of [`Pfs::read`]: starts the backpointer walk
    /// from the slab slot's cached chain head when its generation still
    /// matches, falling back to the id-keyed `lastIndex` map otherwise.
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
        self.read_walk(p, sub, head, from, to, max_q)
    }

    fn read_walk(
        &mut self,
        p: PubendId,
        sub: SubscriberId,
        head: Option<LogIndex>,
        from: Timestamp,
        to: Timestamp,
        max_q: usize,
    ) -> Result<PfsReadResult, StorageError> {
        let max_q = max_q.max(1); // a zero-sized buffer still reads one tick
        let mut known_from = from.max(self.floor(p));
        let mut collected: Vec<Timestamp> = Vec::new(); // newest → oldest
        let mut visited = 0usize;
        let mut cursor = head;
        let stream = stream_for(p);
        while let Some(idx) = cursor {
            if idx == LogIndex::NONE {
                break;
            }
            let Some(data) = self.volume.read(stream, idx)? else {
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
                    offset: idx.0,
                    detail: format!("record lacks {sub}"),
                });
            };
            if rec.end <= known_from {
                break; // walked past the window: chain is intact below
            }
            if rec.start <= to {
                // Collect ticks of this record within (known_from, to].
                let lo = rec.start.max(known_from.next());
                let hi = rec.end.min(to);
                let mut t = hi;
                while t >= lo && t > Timestamp::ZERO {
                    collected.push(t);
                    if t == lo {
                        break;
                    }
                    t = t.prev();
                }
            }
            cursor = Some(prev);
        }
        collected.reverse(); // ascending
        let full_read = collected.len() <= max_q;
        let (q_ticks, covered_to) = if full_read {
            (collected, to)
        } else {
            let kept: Vec<Timestamp> = collected.into_iter().take(max_q).collect();
            let cov = *kept.last().expect("max_q > 0 implies nonempty");
            (kept, cov)
        };
        Ok(PfsReadResult {
            q_ticks,
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

    /// Newest record timestamp for `p` ([`Timestamp::ZERO`] when empty).
    pub fn last_timestamp(&self, p: PubendId) -> Timestamp {
        self.last_timestamp
            .get(&p)
            .copied()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Volume counters (records, payload bytes, syncs) — the PFS
    /// microbenchmark reads the "25× less data" off these.
    pub fn stats(&self) -> VolumeStats {
        self.volume.stats()
    }
}

struct Record {
    start: Timestamp,
    end: Timestamp,
    subs: Vec<(SubscriberId, LogIndex)>,
}

fn encode_record(start: Timestamp, end: Timestamp, pairs: &[(SubscriberId, LogIndex)]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, start, end, pairs);
    out
}

/// Encodes into a caller-owned buffer so the hot path can reuse it.
fn encode_record_into(
    out: &mut Vec<u8>,
    start: Timestamp,
    end: Timestamp,
    pairs: &[(SubscriberId, LogIndex)],
) {
    let imprecise = end != start;
    out.clear();
    out.reserve(8 + 16 * pairs.len() + if imprecise { 8 } else { 0 });
    if imprecise {
        out.extend_from_slice(&(start.0 | IMPRECISE_FLAG).to_le_bytes());
        out.extend_from_slice(&end.0.to_le_bytes());
    } else {
        out.extend_from_slice(&start.0.to_le_bytes());
    }
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
    if data.len() < 8 {
        return Err(corrupt("record shorter than timestamp"));
    }
    let raw = u64::from_le_bytes(data[..8].try_into().expect("len 8"));
    let (start, end, mut pos) = if raw & IMPRECISE_FLAG != 0 {
        if data.len() < 16 {
            return Err(corrupt("imprecise record missing end"));
        }
        let end = u64::from_le_bytes(data[8..16].try_into().expect("len 8"));
        (Timestamp(raw & !IMPRECISE_FLAG), Timestamp(end), 16)
    } else {
        (Timestamp(raw), Timestamp(raw), 8)
    };
    if !(data.len() - pos).is_multiple_of(16) {
        return Err(corrupt("record pair section misaligned"));
    }
    let mut subs = Vec::with_capacity((data.len() - pos) / 16);
    while pos < data.len() {
        let s = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("len 8"));
        let i = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().expect("len 8"));
        subs.push((SubscriberId(s), LogIndex(i)));
        pos += 16;
    }
    Ok(Record { start, end, subs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_storage::MemFactory;

    fn fresh(mode: PfsMode) -> (MemFactory, Pfs) {
        let f = MemFactory::new();
        let pfs = Pfs::open(Box::new(f.clone()), "t", mode).unwrap();
        (f, pfs)
    }

    const P: PubendId = PubendId(0);
    const S1: SubscriberId = SubscriberId(1);
    const S2: SubscriberId = SubscriberId(2);
    const S3: SubscriberId = SubscriberId(3);

    /// The paper's figure-2 example: records at t=1 (s1,s2,s3), t=3 (s2),
    /// t=4 (s1, s3), t=5 (s2, s3).
    fn figure2(pfs: &mut Pfs) {
        pfs.write(P, Timestamp(1), &[S1, S2, S3]).unwrap();
        pfs.write(P, Timestamp(3), &[S2]).unwrap();
        pfs.write(P, Timestamp(4), &[S1, S3]).unwrap();
        pfs.write(P, Timestamp(5), &[S2, S3]).unwrap();
        pfs.sync().unwrap();
    }

    #[test]
    fn figure2_reads_per_subscriber() {
        let (_f, mut pfs) = fresh(PfsMode::Precise);
        figure2(&mut pfs);
        let r = pfs
            .read(P, S1, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(4)]);
        assert_eq!(r.known_from, Timestamp::ZERO);
        assert_eq!(r.covered_to, Timestamp(10));
        let r = pfs
            .read(P, S2, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(3), Timestamp(5)]);
        let r = pfs
            .read(P, S3, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(4), Timestamp(5)]);
    }

    #[test]
    fn read_window_clips_both_ends() {
        let (_f, mut pfs) = fresh(PfsMode::Precise);
        figure2(&mut pfs);
        let r = pfs.read(P, S3, Timestamp(1), Timestamp(4), 100).unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(4)]);
        assert_eq!(r.covered_to, Timestamp(4));
    }

    #[test]
    fn saturated_read_returns_oldest_and_reports_partial() {
        let (_f, mut pfs) = fresh(PfsMode::Precise);
        for t in 1..=20u64 {
            pfs.write(P, Timestamp(t), &[S1]).unwrap();
        }
        pfs.sync().unwrap();
        let r = pfs.read(P, S1, Timestamp::ZERO, Timestamp(30), 5).unwrap();
        assert_eq!(
            r.q_ticks,
            (1..=5).map(Timestamp).collect::<Vec<_>>(),
            "oldest five"
        );
        assert_eq!(r.covered_to, Timestamp(5));
        assert!(!r.full_read);
        // Next read resumes above covered_to.
        let r2 = pfs.read(P, S1, r.covered_to, Timestamp(30), 100).unwrap();
        assert_eq!(r2.q_ticks.first(), Some(&Timestamp(6)));
        assert!(r2.full_read);
    }

    #[test]
    fn subscriber_with_no_records_sees_all_silence() {
        let (_f, mut pfs) = fresh(PfsMode::Precise);
        figure2(&mut pfs);
        let r = pfs
            .read(P, SubscriberId(99), Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert!(r.q_ticks.is_empty());
        assert_eq!(r.covered_to, Timestamp(10));
        assert!(r.full_read);
    }

    #[test]
    fn pubends_are_isolated() {
        let (_f, mut pfs) = fresh(PfsMode::Precise);
        pfs.write(PubendId(0), Timestamp(1), &[S1]).unwrap();
        pfs.write(PubendId(1), Timestamp(2), &[S1]).unwrap();
        pfs.sync().unwrap();
        let r = pfs
            .read(PubendId(1), S1, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        // Chains are keyed per (pubend, sub): s1's records on pubend 0
        // must not appear when reading pubend 1.
        assert_eq!(r.q_ticks, vec![Timestamp(2)]);
        let r = pfs
            .read(PubendId(0), S1, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1)]);
    }

    #[test]
    fn recovery_rebuilds_chains() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            figure2(&mut pfs);
        }
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        let r = pfs
            .read(P, S2, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(3), Timestamp(5)]);
        assert_eq!(pfs.last_timestamp(P), Timestamp(5));
        // Appending after recovery keeps chains linked.
        pfs.write(P, Timestamp(7), &[S2]).unwrap();
        pfs.sync().unwrap();
        let r = pfs.read(P, S2, Timestamp(2), Timestamp(10), 100).unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(3), Timestamp(5), Timestamp(7)]);
    }

    #[test]
    fn unsynced_writes_lost_on_crash() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            pfs.write(P, Timestamp(1), &[S1]).unwrap();
            pfs.sync().unwrap();
            pfs.write(P, Timestamp(2), &[S1]).unwrap(); // not synced
        }
        f.crash_lose_unsynced();
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        let r = pfs
            .read(P, S1, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1)]);
    }

    #[test]
    fn chop_prunes_dead_chains_and_persists_floor() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            pfs.write(P, Timestamp(1), &[S1]).unwrap();
            pfs.write(P, Timestamp(5), &[S2]).unwrap();
            pfs.sync().unwrap();
            pfs.chop_below(P, Timestamp(3)).unwrap();
            // S1's whole chain is below the chop: all-S from its view.
            let r = pfs.read(P, S1, Timestamp(3), Timestamp(10), 100).unwrap();
            assert!(r.q_ticks.is_empty());
            assert!(r.full_read);
            // S2 unaffected.
            let r = pfs.read(P, S2, Timestamp(3), Timestamp(10), 100).unwrap();
            assert_eq!(r.q_ticks, vec![Timestamp(5)]);
        }
        // Floor survives crash: reads from below it report undetermined.
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        let r = pfs
            .read(P, S2, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.known_from, Timestamp(2), "ticks ≤ floor undetermined");
        assert_eq!(r.q_ticks, vec![Timestamp(5)]);
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
        let r = pfs
            .read(P, S1, Timestamp::ZERO, Timestamp(20), 100)
            .unwrap();
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
            pfs.write(P, Timestamp(ts), &[S1]).unwrap();
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
    fn imprecise_mode_unions_subscribers() {
        let (_f, mut pfs) = fresh(PfsMode::Imprecise { window_ticks: 10 });
        pfs.write(P, Timestamp(1), &[S1]).unwrap();
        pfs.write(P, Timestamp(4), &[S2]).unwrap();
        pfs.write(P, Timestamp(8), &[S1, S3]).unwrap();
        pfs.sync().unwrap();
        // One record covering 1..=8 with {s1,s2,s3}: every tick in the
        // window is Q for each of them (the imprecision).
        let r = pfs
            .read(P, S2, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks.len(), 8);
        assert_eq!(r.q_ticks[0], Timestamp(1));
        assert_eq!(r.q_ticks[7], Timestamp(8));
        // Writes: exactly one record.
        assert_eq!(pfs.stats().records, 1);
    }

    #[test]
    fn imprecise_windows_split_at_window_ticks() {
        let (_f, mut pfs) = fresh(PfsMode::Imprecise { window_ticks: 5 });
        pfs.write(P, Timestamp(1), &[S1]).unwrap();
        pfs.write(P, Timestamp(6), &[S2]).unwrap(); // 6-1 >= 5 → new window
        pfs.sync().unwrap();
        assert_eq!(pfs.stats().records, 2);
        let r = pfs
            .read(P, S1, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1)]);
    }

    #[test]
    fn precise_record_is_paper_sized() {
        // 8 + 16·n bytes, exactly footnote 2 of the paper.
        let pairs = vec![(S1, LogIndex(4)), (S2, LogIndex::NONE)];
        let data = encode_record(Timestamp(9), Timestamp(9), &pairs);
        assert_eq!(data.len(), 8 + 16 * 2);
        let rec = decode_record(&data).unwrap();
        assert_eq!(rec.start, Timestamp(9));
        assert_eq!(rec.end, Timestamp(9));
        assert_eq!(rec.subs, pairs);
    }

    #[test]
    fn slot_writes_match_id_writes_and_survive_recycle() {
        let (_f, mut pfs) = fresh(PfsMode::Precise);
        // Slot 0 = S1 (gen 0), slot 1 = S2 (gen 0).
        let resolve = |si: u32| (SubscriberId(si as u64 + 1), 0u32);
        pfs.write_slots(P, Timestamp(1), &[0, 1], resolve).unwrap();
        pfs.write_slots(P, Timestamp(3), &[1], resolve).unwrap();
        pfs.write_slots(P, Timestamp(4), &[0], resolve).unwrap();
        pfs.sync().unwrap();
        let slot0 = SubSlot::new(0, 0);
        let r = pfs
            .read_slot(P, slot0, S1, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(4)]);
        // Recycle slot 0 to a new subscriber (generation bump): its chain
        // must start fresh, not chain onto S1's records.
        let resolve2 = |si: u32| {
            if si == 0 {
                (SubscriberId(9), 1u32)
            } else {
                (SubscriberId(si as u64 + 1), 0u32)
            }
        };
        pfs.write_slots(P, Timestamp(7), &[0], resolve2).unwrap();
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
        assert_eq!(r.q_ticks, vec![Timestamp(7)]);
        // A stale handle to the old tenant sees nothing in-run (the dead
        // chain is unreachable, exactly like an unsubscribed id).
        let r = pfs
            .read_slot(P, slot0, S1, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert!(r.q_ticks.is_empty());
    }

    #[test]
    fn recovery_rebuilds_id_chains_from_slot_writes() {
        let f = MemFactory::new();
        {
            let mut pfs = Pfs::open(Box::new(f.clone()), "t", PfsMode::Precise).unwrap();
            let resolve = |si: u32| (SubscriberId(si as u64 + 1), 0u32);
            pfs.write_slots(P, Timestamp(1), &[0, 1], resolve).unwrap();
            pfs.write_slots(P, Timestamp(4), &[0], resolve).unwrap();
            pfs.sync().unwrap();
        }
        // Records are identical on disk regardless of write path: the
        // rebuilt id-keyed chains serve both read flavors after a crash.
        let mut pfs = Pfs::open(Box::new(f), "t", PfsMode::Precise).unwrap();
        let r = pfs
            .read(P, S1, Timestamp::ZERO, Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(4)]);
        let r = pfs
            .read_slot(
                P,
                SubSlot::new(0, 0),
                S1,
                Timestamp::ZERO,
                Timestamp(10),
                100,
            )
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(1), Timestamp(4)]);
        // Post-recovery slot writes chain onto the rebuilt id map.
        let resolve = |si: u32| (SubscriberId(si as u64 + 1), 0u32);
        pfs.write_slots(P, Timestamp(7), &[0], resolve).unwrap();
        pfs.sync().unwrap();
        let r = pfs
            .read_slot(P, SubSlot::new(0, 0), S1, Timestamp(2), Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(4), Timestamp(7)]);
    }

    #[test]
    fn chop_clears_stale_slot_heads() {
        let (_f, mut pfs) = fresh(PfsMode::Precise);
        let resolve = |si: u32| (SubscriberId(si as u64 + 1), 0u32);
        pfs.write_slots(P, Timestamp(1), &[0], resolve).unwrap();
        pfs.write_slots(P, Timestamp(5), &[1], resolve).unwrap();
        pfs.sync().unwrap();
        pfs.chop_below(P, Timestamp(3)).unwrap();
        // Slot 0's whole chain was chopped: all-silence, not a broken
        // walk into chopped records.
        let r = pfs
            .read_slot(P, SubSlot::new(0, 0), S1, Timestamp(3), Timestamp(10), 100)
            .unwrap();
        assert!(r.q_ticks.is_empty());
        assert!(r.full_read);
        // Slot 1 unaffected.
        let r = pfs
            .read_slot(P, SubSlot::new(1, 0), S2, Timestamp(3), Timestamp(10), 100)
            .unwrap();
        assert_eq!(r.q_ticks, vec![Timestamp(5)]);
    }

    #[test]
    fn slot_write_replay_is_idempotent() {
        let (_f, mut pfs) = fresh(PfsMode::Precise);
        let resolve = |si: u32| (SubscriberId(si as u64 + 1), 0u32);
        pfs.write_slots(P, Timestamp(1), &[0], resolve).unwrap();
        pfs.write_slots(P, Timestamp(2), &[0], resolve).unwrap();
        let records = pfs.stats().records;
        // Re-processing the same span after recovery must not append.
        pfs.write_slots(P, Timestamp(1), &[0], resolve).unwrap();
        pfs.write_slots(P, Timestamp(2), &[0], resolve).unwrap();
        assert_eq!(pfs.stats().records, records);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode_record(&[0u8; 4]).is_err());
        assert!(decode_record(&[0u8; 20]).is_err()); // misaligned pairs
        let mut imprec = (1u64 | IMPRECISE_FLAG).to_le_bytes().to_vec();
        imprec.extend_from_slice(&[0u8; 4]);
        assert!(decode_record(&imprec).is_err());
    }
}
