//! The Log Volume: multiple log streams multiplexed onto one volume.
//!
//! This is the substrate of Bagchi, Das and Kaplan \[8\] that the paper's
//! Persistent Filtering Subsystem is built on. A volume multiplexes many
//! *log streams* onto a sequence of append-only segments. Each stream
//! supports:
//!
//! * `append(record) → index` — indexes are unique and monotone per stream;
//! * `chop(up_to, floor)` — discard all records with smaller indexes and
//!   record the caller's floor (an opaque monotone `u64`: the event log
//!   and the PFS store a timestamp below which everything is gone);
//! * `read(index)` — retrieve a record by index.
//!
//! Segments whose records are all chopped are deleted, so storage is
//! reclaimed in log order — the access pattern durable subscriptions
//! produce (old filtering information becomes garbage as `released(p)`
//! advances).
//!
//! Chops are themselves logged (tiny control frames carrying the floor),
//! so recovery replays them and a crash never resurrects reclaimed
//! records or forgets a floor. A stream's newest chop frame counts as a
//! live record of its segment until the next chop of that stream
//! supersedes it, so segment GC never deletes the frame that recovery
//! needs.
//!
//! Rolling writes a synced [`seal footer`](crate::segment) into the old
//! segment. Sealed segments are immutable, which recovery exploits
//! (corruption inside one is an error, never a "torn tail") and the read
//! path exploits too: a sealed segment is cached as one immutable
//! [`Bytes`] buffer and reads hand out zero-copy slices of it.

use crate::media::{Media, MediaFactory};
use crate::segment::{
    encode_frame_into, scan, ScanEnd, FRAME_CHOP, FRAME_DATA, FRAME_SEAL, HEADER_LEN,
};
use crate::StorageError;
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Identifies one log stream within a volume (the PFS uses one per pubend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub u32);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream-{}", self.0)
    }
}

/// Monotone per-stream record index assigned by [`LogVolume::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogIndex(pub u64);

impl LogIndex {
    /// The index before any record; also the "no previous record" marker
    /// used by PFS backpointers (the paper's `⊥` index).
    pub const NONE: LogIndex = LogIndex(u64::MAX);
}

impl std::fmt::Display for LogIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == LogIndex::NONE {
            f.write_str("⊥")
        } else {
            write!(f, "i{}", self.0)
        }
    }
}

/// Tuning knobs for a [`LogVolume`].
#[derive(Debug, Clone, Copy)]
pub struct VolumeConfig {
    /// Roll to a new segment once the active one exceeds this size.
    pub segment_bytes: u64,
    /// Sync after every append (useful for tests; real deployments group
    /// commit by calling [`LogVolume::sync`] on a policy).
    pub sync_every_append: bool,
    /// How many sealed segments to keep cached in memory for zero-copy
    /// reads (0 disables caching).
    pub cached_segments: usize,
}

impl Default for VolumeConfig {
    fn default() -> Self {
        VolumeConfig {
            segment_bytes: 4 * 1024 * 1024,
            sync_every_append: false,
            cached_segments: 4,
        }
    }
}

/// Aggregate counters for a volume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VolumeStats {
    /// Data records appended.
    pub records: u64,
    /// Payload bytes appended (what the paper's "data logged" counts).
    pub payload_bytes: u64,
    /// Total bytes appended including frame headers and control frames.
    pub total_bytes: u64,
    /// Explicit sync calls.
    pub syncs: u64,
    /// Chop operations.
    pub chops: u64,
    /// Segments created (including the initial one).
    pub segments_created: u64,
    /// Segments reclaimed after full chop.
    pub segments_deleted: u64,
}

#[derive(Debug, Clone, Copy)]
struct RecLoc {
    seg: u64,
    offset: u64,
    len: u32,
}

struct Segment {
    media: Box<dyn Media>,
    live: u64,
    sealed: bool,
    cache: Option<Bytes>,
}

#[derive(Debug, Default)]
struct StreamState {
    next_index: u64,
    locs: BTreeMap<u64, RecLoc>,
    chopped_to: u64,
    /// The caller's floor as of the newest chop.
    floor: u64,
    /// Segment holding the newest chop frame (a live record there).
    chop_seg: Option<u64>,
}

/// A multiplexed, segmented, recoverable log volume.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct LogVolume {
    factory: Box<dyn MediaFactory>,
    name: String,
    config: VolumeConfig,
    segments: BTreeMap<u64, Segment>,
    active: u64,
    streams: HashMap<u32, StreamState>,
    cache_fifo: VecDeque<u64>,
    stats: VolumeStats,
    /// Every frame is encoded here and appended from here, so writing a
    /// record copies its payload once and allocates nothing.
    frame_buf: Vec<u8>,
}

impl std::fmt::Debug for LogVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogVolume")
            .field("name", &self.name)
            .field("segments", &self.segments.keys().collect::<Vec<_>>())
            .field("streams", &self.streams.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl LogVolume {
    /// Creates a fresh volume named `name`, removing any existing segments
    /// with that name.
    ///
    /// # Errors
    ///
    /// Returns an error if old segments cannot be removed or the first
    /// segment cannot be created.
    pub fn create(
        factory: Box<dyn MediaFactory>,
        name: &str,
        config: VolumeConfig,
    ) -> Result<Self, StorageError> {
        for seg in Self::segment_names(factory.as_ref(), name)? {
            factory.remove(&seg)?;
        }
        let mut vol = LogVolume {
            factory,
            name: name.to_owned(),
            config,
            segments: BTreeMap::new(),
            active: 0,
            streams: HashMap::new(),
            cache_fifo: VecDeque::new(),
            stats: VolumeStats::default(),
            frame_buf: Vec::new(),
        };
        vol.open_segment(0)?;
        Ok(vol)
    }

    /// Opens `name`, recovering state from existing segments (or creating
    /// a fresh volume when none exist).
    ///
    /// Recovery scans every segment in order, verifies each frame's CRC,
    /// rebuilds per-stream indexes and replays chop frames. A torn tail in
    /// the *last, unsealed* segment is truncated away; corruption anywhere
    /// else — including inside a sealed segment — is reported as
    /// [`StorageError::Corrupt`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or non-tail corruption.
    pub fn open(
        factory: Box<dyn MediaFactory>,
        name: &str,
        config: VolumeConfig,
    ) -> Result<Self, StorageError> {
        let mut seg_nos: Vec<u64> = factory
            .list()?
            .iter()
            .filter_map(|n| Self::segment_no(name, n))
            .collect();
        seg_nos.sort_unstable();
        if seg_nos.is_empty() {
            return Self::create(factory, name, config);
        }
        let mut vol = LogVolume {
            factory,
            name: name.to_owned(),
            config,
            segments: BTreeMap::new(),
            active: *seg_nos.last().expect("nonempty"),
            streams: HashMap::new(),
            cache_fifo: VecDeque::new(),
            stats: VolumeStats::default(),
            frame_buf: Vec::new(),
        };
        let last = vol.active;
        for &no in &seg_nos {
            vol.recover_segment(no, no == last)?;
        }
        // Drop segments that ended up fully dead (every record chopped by a
        // later-replayed chop frame), except the active one.
        let dead: Vec<u64> = vol
            .segments
            .iter()
            .filter(|&(&no, seg)| no != vol.active && seg.live == 0)
            .map(|(&no, _)| no)
            .collect();
        for no in dead {
            vol.delete_segment(no)?;
        }
        // A crash between sealing and creating the next segment can leave
        // the last segment sealed; appends need an open one.
        if vol
            .segments
            .get(&vol.active)
            .map(|s| s.sealed)
            .unwrap_or(false)
        {
            vol.open_segment(vol.active + 1)?;
        }
        Ok(vol)
    }

    /// Parses the segment number out of `{volume}-{no:08}.seg`. `None`
    /// for anything else — in particular segments of a volume whose name
    /// shares a prefix: `v-x-00000001.seg` is *not* a segment of volume
    /// `v`, so creating or recovering `v` never touches `v-x`'s files.
    fn segment_no(volume: &str, file: &str) -> Option<u64> {
        let digits = file
            .strip_prefix(volume)?
            .strip_prefix('-')?
            .strip_suffix(".seg")?;
        if digits.len() < 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    fn segment_names(factory: &dyn MediaFactory, name: &str) -> Result<Vec<String>, StorageError> {
        Ok(factory
            .list()?
            .into_iter()
            .filter(|n| Self::segment_no(name, n).is_some())
            .collect())
    }

    fn segment_name(&self, no: u64) -> String {
        format!("{}-{:08}.seg", self.name, no)
    }

    fn open_segment(&mut self, no: u64) -> Result<(), StorageError> {
        let media = self.factory.open(&self.segment_name(no))?;
        self.segments.insert(
            no,
            Segment {
                media,
                live: 0,
                sealed: false,
                cache: None,
            },
        );
        self.active = no;
        self.stats.segments_created += 1;
        Ok(())
    }

    fn delete_segment(&mut self, no: u64) -> Result<(), StorageError> {
        self.segments.remove(&no);
        self.cache_fifo.retain(|&n| n != no);
        self.factory.remove(&self.segment_name(no))?;
        self.stats.segments_deleted += 1;
        Ok(())
    }

    fn recover_segment(&mut self, no: u64, is_last: bool) -> Result<(), StorageError> {
        let media_name = self.segment_name(no);
        let mut media = self.factory.open(&media_name)?;
        let mut live = 0u64;
        let streams = &mut self.streams;
        let segments = &mut self.segments;
        // A dead record of segment `no` (still being scanned) or of an
        // earlier one.
        let mut kill = |seg: u64, live: &mut u64| {
            if seg == no {
                *live -= 1;
            } else if let Some(s) = segments.get_mut(&seg) {
                s.live -= 1;
            }
        };
        let end = scan(media.as_mut(), |frame, payload| {
            let state = streams.entry(frame.stream).or_default();
            match frame.ftype {
                FRAME_DATA => {
                    state.next_index = state.next_index.max(frame.index + 1);
                    if frame.index >= state.chopped_to {
                        state.locs.insert(
                            frame.index,
                            RecLoc {
                                seg: no,
                                offset: frame.payload_offset,
                                len: frame.payload_len,
                            },
                        );
                        live += 1;
                    }
                }
                FRAME_CHOP => {
                    state.chopped_to = state.chopped_to.max(frame.index);
                    state.next_index = state.next_index.max(frame.index);
                    let floor = payload.try_into().map_or(0, u64::from_le_bytes);
                    state.floor = state.floor.max(floor);
                    // This frame supersedes the stream's previous one and
                    // kills the records it chopped.
                    if let Some(seg) = state.chop_seg.replace(no) {
                        kill(seg, &mut live);
                    }
                    live += 1;
                    let kept = state.locs.split_off(&frame.index);
                    for loc in std::mem::replace(&mut state.locs, kept).into_values() {
                        kill(loc.seg, &mut live);
                    }
                }
                _ => {} // seal footer carries no stream state
            }
        })?;
        let sealed = match end {
            ScanEnd::Sealed { .. } => true,
            ScanEnd::CleanOpen { .. } => false,
            ScanEnd::Torn {
                valid_end,
                offset,
                detail,
            } => {
                if !is_last {
                    return Err(StorageError::Corrupt {
                        media: media_name,
                        offset,
                        detail,
                    });
                }
                media.truncate(valid_end)?;
                false
            }
        };
        self.segments.insert(
            no,
            Segment {
                media,
                live,
                sealed,
                cache: None,
            },
        );
        Ok(())
    }

    /// Appends the seal footer to the active segment and flushes it; the
    /// segment is immutable from here on.
    fn seal_active(&mut self) -> Result<(), StorageError> {
        let seg = self.segments.get_mut(&self.active).expect("active segment");
        encode_frame_into(&mut self.frame_buf, FRAME_SEAL, 0, 0, &[]);
        seg.media.append(&self.frame_buf)?;
        seg.media.sync()?;
        seg.sealed = true;
        self.stats.total_bytes += self.frame_buf.len() as u64;
        Ok(())
    }

    fn write_frame(
        &mut self,
        ftype: u8,
        stream: u32,
        index: u64,
        payload: &[u8],
    ) -> Result<(u64, u64), StorageError> {
        // Roll the active segment if it is full: seal it (synced footer),
        // then open the next one.
        let active_len = self
            .segments
            .get(&self.active)
            .expect("active segment exists")
            .media
            .len();
        if active_len > 0
            && active_len + (HEADER_LEN + payload.len()) as u64 > self.config.segment_bytes
        {
            self.seal_active()?;
            let old = self.active;
            self.open_segment(old + 1)?;
            // The just-sealed segment may already be fully dead.
            if self.segments.get(&old).map(|s| s.live) == Some(0) {
                self.delete_segment(old)?;
            }
        }
        encode_frame_into(&mut self.frame_buf, ftype, stream, index, payload);
        let seg = self.segments.get_mut(&self.active).expect("active segment");
        let offset = seg.media.len();
        seg.media.append(&self.frame_buf)?;
        self.stats.total_bytes += self.frame_buf.len() as u64;
        if self.config.sync_every_append {
            seg.media.sync()?;
            self.stats.syncs += 1;
        }
        Ok((self.active, offset + HEADER_LEN as u64))
    }

    /// Appends a record to `stream`, returning its monotone index.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying media fails.
    pub fn append(&mut self, stream: StreamId, payload: &[u8]) -> Result<LogIndex, StorageError> {
        let index = self.streams.entry(stream.0).or_default().next_index;
        let (seg, offset) = self.write_frame(FRAME_DATA, stream.0, index, payload)?;
        let state = self.streams.get_mut(&stream.0).expect("inserted above");
        state.next_index = index + 1;
        state.locs.insert(
            index,
            RecLoc {
                seg,
                offset,
                len: payload.len() as u32,
            },
        );
        self.segments.get_mut(&seg).expect("segment exists").live += 1;
        self.stats.records += 1;
        self.stats.payload_bytes += payload.len() as u64;
        Ok(LogIndex(index))
    }

    fn read_loc(&mut self, loc: RecLoc) -> Result<Bytes, StorageError> {
        let want_cache = self.config.cached_segments > 0;
        {
            let seg = self
                .segments
                .get_mut(&loc.seg)
                .ok_or_else(|| StorageError::MissingMedia(format!("segment {}", loc.seg)))?;
            if want_cache && seg.sealed && seg.cache.is_none() {
                let len = seg.media.len() as usize;
                let mut buf = vec![0u8; len];
                seg.media.read_at(0, &mut buf)?;
                seg.cache = Some(Bytes::from(buf));
                self.cache_fifo.push_back(loc.seg);
                while self.cache_fifo.len() > self.config.cached_segments {
                    let evict = self.cache_fifo.pop_front().expect("nonempty fifo");
                    if let Some(s) = self.segments.get_mut(&evict) {
                        s.cache = None;
                    }
                }
            }
        }
        let seg = self.segments.get_mut(&loc.seg).expect("checked above");
        if let Some(cache) = &seg.cache {
            let start = loc.offset as usize;
            Ok(cache.slice(start..start + loc.len as usize))
        } else {
            let mut buf = vec![0u8; loc.len as usize];
            seg.media.read_at(loc.offset, &mut buf)?;
            Ok(Bytes::from(buf))
        }
    }

    /// Reads the record at `index` in `stream`; `None` if it was chopped
    /// or never written. Records in sealed segments are served as
    /// zero-copy slices of the cached segment buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying media fails.
    pub fn read(
        &mut self,
        stream: StreamId,
        index: LogIndex,
    ) -> Result<Option<Bytes>, StorageError> {
        let Some(state) = self.streams.get(&stream.0) else {
            return Ok(None);
        };
        let Some(loc) = state.locs.get(&index.0).copied() else {
            return Ok(None);
        };
        self.read_loc(loc).map(Some)
    }

    /// Discards all records of `stream` with index `< up_to` and raises
    /// the stream's [floor](LogVolume::chop_floor) to `floor`.
    ///
    /// The chop is logged whenever either value advances — also on a
    /// stream with no records — so it survives crashes. Segments left
    /// without any live record are deleted.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying media fails.
    pub fn chop(
        &mut self,
        stream: StreamId,
        up_to: LogIndex,
        floor: u64,
    ) -> Result<(), StorageError> {
        let state = self.streams.entry(stream.0).or_default();
        if up_to.0 <= state.chopped_to && floor <= state.floor {
            return Ok(());
        }
        state.chopped_to = state.chopped_to.max(up_to.0);
        state.floor = state.floor.max(floor);
        state.next_index = state.next_index.max(state.chopped_to);
        let (up_to, floor) = (state.chopped_to, state.floor);
        // Log the chop *before* touching live counts: a segment roll
        // inside this append may GC a fully-dead segment, and that is
        // only safe for deaths already on (durable) record.
        let (seg, _) = self.write_frame(FRAME_CHOP, stream.0, up_to, &floor.to_le_bytes())?;
        self.segments.get_mut(&seg).expect("segment exists").live += 1;
        let state = self.streams.get_mut(&stream.0).expect("inserted above");
        let kept = state.locs.split_off(&up_to);
        let dead = std::mem::replace(&mut state.locs, kept)
            .into_values()
            .map(|loc| loc.seg);
        let mut touched = Vec::new();
        for no in state.chop_seg.replace(seg).into_iter().chain(dead) {
            let seg = self.segments.get_mut(&no).expect("segment exists");
            seg.live -= 1;
            if seg.live == 0 && no != self.active {
                touched.push(no);
            }
        }
        self.stats.chops += 1;
        touched.sort_unstable();
        touched.dedup();
        if !touched.is_empty() {
            // Deleting a segment file is immediately durable; the chop
            // frame justifying it must be too, or a crash between the two
            // resurrects the chopped range as silence (`S`) instead of
            // lost (`L`).
            self.sync()?;
        }
        for no in touched {
            if self.segments.get(&no).map(|s| s.live) == Some(0) && no != self.active {
                self.delete_segment(no)?;
            }
        }
        Ok(())
    }

    /// Flushes the active segment to durable storage (group commit point).
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.segments
            .get_mut(&self.active)
            .expect("active segment")
            .media
            .sync()?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// The next index [`LogVolume::append`] will assign for `stream`.
    pub fn next_index(&self, stream: StreamId) -> LogIndex {
        LogIndex(
            self.streams
                .get(&stream.0)
                .map(|s| s.next_index)
                .unwrap_or(0),
        )
    }

    /// The floor `stream` was last [chopped](LogVolume::chop) with (0 if
    /// never), restored by recovery.
    pub fn chop_floor(&self, stream: StreamId) -> u64 {
        self.streams.get(&stream.0).map_or(0, |s| s.floor)
    }

    /// The lowest index still readable for `stream` (`None` when empty).
    pub fn first_live_index(&self, stream: StreamId) -> Option<LogIndex> {
        self.streams
            .get(&stream.0)?
            .locs
            .keys()
            .next()
            .map(|&i| LogIndex(i))
    }

    /// Live record count for `stream`.
    pub fn live_records(&self, stream: StreamId) -> usize {
        self.streams
            .get(&stream.0)
            .map(|s| s.locs.len())
            .unwrap_or(0)
    }

    /// Reads all live records of `stream` in index order (recovery helper).
    /// Like [`LogVolume::read`], sealed-segment records are zero-copy.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying media fails.
    pub fn read_all(&mut self, stream: StreamId) -> Result<Vec<(LogIndex, Bytes)>, StorageError> {
        let locs: Vec<(u64, RecLoc)> = match self.streams.get(&stream.0) {
            Some(s) => s.locs.iter().map(|(&i, &loc)| (i, loc)).collect(),
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::with_capacity(locs.len());
        for (i, loc) in locs {
            out.push((LogIndex(i), self.read_loc(loc)?));
        }
        Ok(out)
    }

    /// All streams the volume has state for (including fully chopped
    /// ones), in unspecified order.
    pub fn stream_ids(&self) -> Vec<StreamId> {
        self.streams.keys().map(|&k| StreamId(k)).collect()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> VolumeStats {
        self.stats
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of sealed segments currently cached for zero-copy reads.
    pub fn cached_segment_count(&self) -> usize {
        self.cache_fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MemFactory;

    fn mem_volume(config: VolumeConfig) -> (MemFactory, LogVolume) {
        let f = MemFactory::new();
        let vol = LogVolume::create(Box::new(f.clone()), "vol", config).unwrap();
        (f, vol)
    }

    #[test]
    fn append_read_roundtrip_multiple_streams() {
        let (_f, mut vol) = mem_volume(VolumeConfig::default());
        let a = StreamId(1);
        let b = StreamId(2);
        let ia0 = vol.append(a, b"a0").unwrap();
        let ib0 = vol.append(b, b"b0").unwrap();
        let ia1 = vol.append(a, b"a1").unwrap();
        assert_eq!(ia0, LogIndex(0));
        assert_eq!(ib0, LogIndex(0));
        assert_eq!(ia1, LogIndex(1));
        assert_eq!(vol.read(a, ia1).unwrap().as_deref(), Some(&b"a1"[..]));
        assert_eq!(vol.read(b, ib0).unwrap().as_deref(), Some(&b"b0"[..]));
        assert_eq!(vol.read(b, LogIndex(5)).unwrap(), None);
    }

    #[test]
    fn chop_removes_prefix_only() {
        let (_f, mut vol) = mem_volume(VolumeConfig::default());
        let s = StreamId(0);
        for i in 0..10u64 {
            vol.append(s, format!("r{i}").as_bytes()).unwrap();
        }
        vol.chop(s, LogIndex(5), 0).unwrap();
        assert_eq!(vol.read(s, LogIndex(4)).unwrap(), None);
        assert_eq!(
            vol.read(s, LogIndex(5)).unwrap().as_deref(),
            Some(&b"r5"[..])
        );
        assert_eq!(vol.live_records(s), 5);
        assert_eq!(vol.first_live_index(s), Some(LogIndex(5)));
        // Indexes keep increasing after a chop.
        assert_eq!(vol.append(s, b"r10").unwrap(), LogIndex(10));
    }

    #[test]
    fn segments_roll_and_are_reclaimed() {
        let (f, mut vol) = mem_volume(VolumeConfig {
            segment_bytes: 256,
            ..VolumeConfig::default()
        });
        let s = StreamId(0);
        let mut last = LogIndex(0);
        for _ in 0..50 {
            last = vol.append(s, &[7u8; 40]).unwrap();
        }
        assert!(vol.segment_count() > 1, "expected rolling");
        let before = f.list().unwrap().len();
        vol.chop(s, last, 0).unwrap();
        let after = f.list().unwrap().len();
        assert!(
            after < before,
            "chop should reclaim segments ({before} -> {after})"
        );
        assert_eq!(vol.read(s, last).unwrap().as_deref(), Some(&[7u8; 40][..]));
    }

    #[test]
    fn sealed_segments_serve_cached_zero_copy_reads() {
        let (_f, mut vol) = mem_volume(VolumeConfig {
            segment_bytes: 256,
            cached_segments: 2,
            ..VolumeConfig::default()
        });
        let s = StreamId(0);
        let mut idx = Vec::new();
        for i in 0..20u8 {
            idx.push(vol.append(s, &[i; 40]).unwrap());
        }
        assert!(vol.segment_count() > 3, "expected several sealed segments");
        assert_eq!(vol.cached_segment_count(), 0);
        // Reads across all segments stay correct while the FIFO caps the
        // cache at 2 sealed segments.
        for (i, &ix) in idx.iter().enumerate() {
            assert_eq!(
                vol.read(s, ix).unwrap().as_deref(),
                Some(&[i as u8; 40][..])
            );
        }
        assert!(vol.cached_segment_count() <= 2);
        // A second read of a cached record shares storage with the cache.
        let first = vol.read(s, idx[0]).unwrap().unwrap();
        let again = vol.read(s, idx[0]).unwrap().unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn recovery_rebuilds_streams() {
        let f = MemFactory::new();
        {
            let mut vol =
                LogVolume::create(Box::new(f.clone()), "v", VolumeConfig::default()).unwrap();
            vol.append(StreamId(0), b"x").unwrap();
            vol.append(StreamId(1), b"y").unwrap();
            vol.append(StreamId(0), b"z").unwrap();
            vol.chop(StreamId(0), LogIndex(1), 0).unwrap();
            vol.sync().unwrap();
        }
        let mut vol = LogVolume::open(Box::new(f), "v", VolumeConfig::default()).unwrap();
        assert_eq!(
            vol.read(StreamId(0), LogIndex(0)).unwrap(),
            None,
            "chop survives"
        );
        assert_eq!(
            vol.read(StreamId(0), LogIndex(1)).unwrap().as_deref(),
            Some(&b"z"[..])
        );
        assert_eq!(
            vol.read(StreamId(1), LogIndex(0)).unwrap().as_deref(),
            Some(&b"y"[..])
        );
        assert_eq!(vol.next_index(StreamId(0)), LogIndex(2));
        // New appends continue the index sequence.
        assert_eq!(vol.append(StreamId(0), b"w").unwrap(), LogIndex(2));
    }

    /// A frame encoded the way the format was first written: header and
    /// payload glued into one buffer, checksummed one bit at a time.
    fn bitwise_frame(ftype: u8, stream: u32, index: u64, payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![ftype];
        frame.extend_from_slice(&stream.to_le_bytes());
        frame.extend_from_slice(&index.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut crc_input = frame.clone();
        crc_input.extend_from_slice(payload);
        frame.extend_from_slice(&crate::crc::crc32c_bitwise(&crc_input).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn volume_written_with_the_bitwise_crc_reopens() {
        use crate::segment::encode_frame;
        let f = MemFactory::new();
        let payload = |s: u32, i: u64| -> Vec<u8> {
            let len = [0usize, 1, 7, 8, 9, 408, 1_053, 4_140][(i as usize + s as usize) % 8];
            (0..len)
                .map(|k| (k as u64 * 31 + i + u64::from(s)) as u8)
                .collect()
        };
        // Segment 0: two streams, a chop of stream 0 below index 2 with
        // floor 77, then the seal. Segment 1 (open): more records.
        let mut frames = Vec::new();
        for i in 0..6 {
            frames.push((0, FRAME_DATA, 0, i, payload(0, i)));
            frames.push((0, FRAME_DATA, 1, i, payload(1, i)));
        }
        frames.push((0, FRAME_CHOP, 0, 2, 77u64.to_le_bytes().to_vec()));
        frames.push((0, FRAME_SEAL, 0, 0, Vec::new()));
        for i in 6..10 {
            frames.push((1, FRAME_DATA, 0, i, payload(0, i)));
        }
        for (seg, ftype, stream, index, body) in &frames {
            let old = bitwise_frame(*ftype, *stream, *index, body);
            assert_eq!(encode_frame(*ftype, *stream, *index, body), old);
            let mut m = f.open(&format!("v-{seg:08}.seg")).unwrap();
            m.append(&old).unwrap();
            m.sync().unwrap();
        }
        let mut vol = LogVolume::open(Box::new(f), "v", VolumeConfig::default()).unwrap();
        assert_eq!(vol.chop_floor(StreamId(0)), 77);
        for i in 0..10 {
            let want = (i >= 2).then(|| payload(0, i));
            let got = vol.read(StreamId(0), LogIndex(i)).unwrap();
            assert_eq!(got.as_deref(), want.as_deref(), "stream 0 index {i}");
        }
        for i in 0..6 {
            let got = vol.read(StreamId(1), LogIndex(i)).unwrap();
            assert_eq!(
                got.as_deref(),
                Some(&payload(1, i)[..]),
                "stream 1 index {i}"
            );
        }
        assert_eq!(vol.append(StreamId(0), b"next").unwrap(), LogIndex(10));
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let f = MemFactory::new();
        {
            let mut vol =
                LogVolume::create(Box::new(f.clone()), "v", VolumeConfig::default()).unwrap();
            vol.append(StreamId(0), b"good").unwrap();
            vol.sync().unwrap();
            vol.append(StreamId(0), b"lost-after-crash").unwrap();
            // no sync
        }
        f.crash_lose_unsynced();
        let mut vol = LogVolume::open(Box::new(f), "v", VolumeConfig::default()).unwrap();
        assert_eq!(
            vol.read(StreamId(0), LogIndex(0)).unwrap().as_deref(),
            Some(&b"good"[..])
        );
        assert_eq!(vol.read(StreamId(0), LogIndex(1)).unwrap(), None);
        assert_eq!(vol.next_index(StreamId(0)), LogIndex(1));
    }

    #[test]
    fn recovery_detects_corruption_via_crc() {
        let f = MemFactory::new();
        {
            let mut vol =
                LogVolume::create(Box::new(f.clone()), "v", VolumeConfig::default()).unwrap();
            vol.append(StreamId(0), b"payload-bytes").unwrap();
            vol.append(StreamId(0), b"second").unwrap();
            vol.sync().unwrap();
        }
        // Flip a payload bit of the first record (inside the frame body).
        f.corrupt_bit("v-00000000.seg", HEADER_LEN as u64 + 2);
        // The first record is not the tail, but scanning stops at the first
        // bad frame in the last segment: since this IS the last (unsealed)
        // segment the volume treats it as torn tail and truncates — both
        // records lost but the volume stays usable.
        let mut vol = LogVolume::open(Box::new(f), "v", VolumeConfig::default()).unwrap();
        assert_eq!(vol.read(StreamId(0), LogIndex(0)).unwrap(), None);
        assert_eq!(vol.read(StreamId(0), LogIndex(1)).unwrap(), None);
        vol.append(StreamId(0), b"fresh").unwrap();
    }

    #[test]
    fn corruption_in_non_last_segment_is_an_error() {
        let f = MemFactory::new();
        {
            let mut vol = LogVolume::create(
                Box::new(f.clone()),
                "v",
                VolumeConfig {
                    segment_bytes: 64,
                    sync_every_append: true,
                    ..VolumeConfig::default()
                },
            )
            .unwrap();
            for _ in 0..6 {
                vol.append(StreamId(0), &[9u8; 40]).unwrap();
            }
            assert!(vol.segment_count() >= 2);
        }
        f.corrupt_bit("v-00000000.seg", 3);
        let res = LogVolume::open(Box::new(f), "v", VolumeConfig::default());
        assert!(matches!(res, Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn recovery_reopens_after_seal_crash() {
        // Crash immediately after a roll: the last on-media segment is the
        // fresh empty one; delete it to simulate dying between seal and
        // segment creation — recovery must open a new active segment past
        // the sealed tail.
        let f = MemFactory::new();
        {
            let mut vol = LogVolume::create(
                Box::new(f.clone()),
                "v",
                VolumeConfig {
                    segment_bytes: 64,
                    ..VolumeConfig::default()
                },
            )
            .unwrap();
            for _ in 0..3 {
                vol.append(StreamId(0), &[5u8; 40]).unwrap();
            }
            assert!(vol.segment_count() >= 2);
        }
        let mut names = f.list().unwrap();
        names.sort();
        let newest = names.last().unwrap().clone();
        f.remove(&newest).unwrap();
        let mut vol = LogVolume::open(Box::new(f), "v", VolumeConfig::default()).unwrap();
        // The sealed segment's record is intact and appends still work.
        assert_eq!(
            vol.read(StreamId(0), LogIndex(0)).unwrap().as_deref(),
            Some(&[5u8; 40][..])
        );
        vol.append(StreamId(0), b"after-recovery").unwrap();
    }

    #[test]
    fn volume_names_sharing_a_prefix_do_not_collide() {
        let f = MemFactory::new();
        let mut inner =
            LogVolume::create(Box::new(f.clone()), "v-x", VolumeConfig::default()).unwrap();
        inner.append(StreamId(0), b"keep").unwrap();
        inner.sync().unwrap();
        drop(inner);
        // Creating (and thereby wiping) volume "v" must not delete
        // "v-x"'s segments…
        let mut outer =
            LogVolume::create(Box::new(f.clone()), "v", VolumeConfig::default()).unwrap();
        outer.append(StreamId(0), b"other").unwrap();
        outer.sync().unwrap();
        drop(outer);
        // …and recovery of each volume sees only its own segments.
        let mut inner =
            LogVolume::open(Box::new(f.clone()), "v-x", VolumeConfig::default()).unwrap();
        assert_eq!(
            inner.read(StreamId(0), LogIndex(0)).unwrap().as_deref(),
            Some(&b"keep"[..])
        );
        let mut outer = LogVolume::open(Box::new(f), "v", VolumeConfig::default()).unwrap();
        assert_eq!(
            outer.read(StreamId(0), LogIndex(0)).unwrap().as_deref(),
            Some(&b"other"[..])
        );
    }

    #[test]
    fn stats_track_payload_and_records() {
        let (_f, mut vol) = mem_volume(VolumeConfig::default());
        vol.append(StreamId(0), &[0u8; 100]).unwrap();
        vol.append(StreamId(0), &[0u8; 24]).unwrap();
        vol.sync().unwrap();
        let st = vol.stats();
        assert_eq!(st.records, 2);
        assert_eq!(st.payload_bytes, 124);
        assert_eq!(st.total_bytes, 124 + 2 * HEADER_LEN as u64);
        assert_eq!(st.syncs, 1);
    }

    #[test]
    fn read_all_in_index_order() {
        let (_f, mut vol) = mem_volume(VolumeConfig::default());
        let s = StreamId(3);
        for i in 0..5u8 {
            vol.append(s, &[i]).unwrap();
        }
        vol.chop(s, LogIndex(2), 0).unwrap();
        let all = vol.read_all(s).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].0, LogIndex(2));
        assert_eq!(all[0].1.as_ref(), &[2u8]);
        assert_eq!(all[2].0, LogIndex(4));
        assert_eq!(all[2].1.as_ref(), &[4u8]);
    }

    #[test]
    fn empty_stream_queries() {
        let (_f, mut vol) = mem_volume(VolumeConfig::default());
        let s = StreamId(9);
        assert_eq!(vol.next_index(s), LogIndex(0));
        assert_eq!(vol.first_live_index(s), None);
        assert_eq!(vol.live_records(s), 0);
        assert!(vol.read_all(s).unwrap().is_empty());
        // Chopping a stream with no records moves its next index.
        vol.chop(s, LogIndex(100), 0).unwrap();
        assert_eq!(vol.next_index(s), LogIndex(100));
        assert_eq!(vol.live_records(s), 0);
    }

    #[test]
    fn floor_survives_recovery_even_when_the_index_does_not_move() {
        let f = MemFactory::new();
        let (a, b) = (StreamId(0), StreamId(1));
        {
            let mut vol =
                LogVolume::create(Box::new(f.clone()), "v", VolumeConfig::default()).unwrap();
            vol.append(a, b"x").unwrap();
            vol.chop(a, LogIndex(1), 5).unwrap();
            vol.chop(a, LogIndex(1), 9).unwrap(); // floor only
            vol.chop(b, LogIndex(0), 7).unwrap(); // no records at all
            vol.chop(a, LogIndex(0), 3).unwrap(); // regression: ignored
            assert_eq!(vol.stats().chops, 3);
            vol.sync().unwrap();
        }
        let vol = LogVolume::open(Box::new(f), "v", VolumeConfig::default()).unwrap();
        assert_eq!((vol.chop_floor(a), vol.chop_floor(b)), (9, 7));
        assert_eq!(
            (vol.next_index(a), vol.next_index(b)),
            (LogIndex(1), LogIndex(0))
        );
        assert_eq!(vol.chop_floor(StreamId(2)), 0);
    }

    #[test]
    fn newest_chop_frame_outlives_segment_gc() {
        let f = MemFactory::new();
        let config = VolumeConfig {
            segment_bytes: 256,
            ..VolumeConfig::default()
        };
        let (idle, busy) = (StreamId(0), StreamId(1));
        {
            let mut vol = LogVolume::create(Box::new(f.clone()), "v", config).unwrap();
            vol.chop(idle, LogIndex(0), 42).unwrap();
            // Superseded chop frames free their segments: the busy stream
            // never holds more than its tail, the idle one its newest chop.
            for i in 0..100u64 {
                let idx = vol.append(busy, &[1u8; 40]).unwrap();
                vol.chop(busy, idx, i).unwrap();
                assert!(vol.segment_count() <= 3, "segments {}", vol.segment_count());
            }
            vol.sync().unwrap();
        }
        let vol = LogVolume::open(Box::new(f), "v", config).unwrap();
        assert_eq!(vol.chop_floor(idle), 42, "the idle stream's floor was kept");
        assert_eq!(vol.chop_floor(busy), 99);
        assert_eq!(vol.live_records(busy), 1);
    }
}
