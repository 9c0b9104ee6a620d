//! A durable key-value table with group commit — the stand-in for the DB2
//! tables of the paper.
//!
//! The SHB keeps `latestDelivered(p)`, `released(s, p)`, the lost prefix
//! and (for JMS subscribers) checkpoint tokens here. The JMS
//! auto-acknowledge experiment (paper §5.2) is bottlenecked on *commit
//! throughput* of this table, and improves when many waiting updates are
//! batched into one transaction — so [`MetaTable::commit`] takes a batch
//! and performs exactly one sync, and [`MetaTable::stage`] is the append
//! half a [`CommitPipeline`] runs before its one
//! flush (see [`SharedMetaTable`]).
//!
//! The table is one [`LogVolume`] stream, and a batch is exactly **one**
//! record of it: its operations back to back,
//!
//! ```text
//! set: 1 | klen: u16 LE | key | vlen: u32 LE | value
//! del: 2 | klen: u16 LE | key
//! ```
//!
//! so the record's frame CRC makes the batch atomic: a torn or
//! bit-flipped batch fails its check and rolls back whole, never half
//! applied and never misread. Recovery replays the stream in order.
//!
//! Compaction is driven by **dirty bytes**: the stream's payload bytes
//! minus the encoded size of the live pairs. Once that garbage passes a
//! threshold scaled to the live population, the table re-appends the
//! live pairs as batch records, syncs, and chops the stream below the
//! first of them; the volume's crash-ordered segment GC deletes what
//! died. A crash at any point replays to the same map. A workload that
//! only *adds* keys never compacts (its stream has no garbage), which is
//! what keeps large-population churn (the `shb_scale` bench) off an
//! O(population)-per-window rewrite cliff.

use crate::commit::{CommitPipeline, CommitPipelineStats};
use crate::log_volume::{LogIndex, LogVolume, StreamId, VolumeConfig};
use crate::media::MediaFactory;
use crate::StorageError;
use std::collections::BTreeMap;

const OP_SET: u8 = 1;
const OP_DEL: u8 = 2;
/// The table's one stream in its volume.
const STREAM: StreamId = StreamId(0);
/// Compaction cuts the live pairs into records of about this size.
const COMPACT_RECORD_BYTES: usize = 64 * 1024;

/// Tuning knobs for a [`MetaTable`].
#[derive(Debug, Clone, Copy)]
pub struct TableConfig {
    /// Compact once this many stream bytes are *garbage* — superseded by
    /// later writes or deletes. The effective threshold is
    /// `max(compact_wal_bytes, live_bytes / 4)`, so a big table amortizes
    /// its O(population) rewrite over proportionally more reclaimed
    /// garbage.
    pub compact_wal_bytes: u64,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            compact_wal_bytes: 1024 * 1024,
        }
    }
}

/// Counters for commit-throughput experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Committed batches (each at most one sync).
    pub commits: u64,
    /// Individual key updates across all batches.
    pub updates: u64,
    /// Batch record bytes written (excluding compaction rewrites).
    pub batch_bytes: u64,
    /// Compactions performed.
    pub compactions: u64,
}

/// A durable string-keyed map with atomic batched commits.
///
/// # Examples
///
/// ```
/// use gryphon_storage::{MemFactory, MetaTable};
///
/// let f = MemFactory::new();
/// let mut t = MetaTable::open(Box::new(f.clone()), "shb-meta", Default::default())?;
/// t.commit(&[
///     ("latestDelivered/0".into(), Some(100u64.to_le_bytes().to_vec())),
///     ("released/7/0".into(), Some(90u64.to_le_bytes().to_vec())),
/// ])?;
/// drop(t); // crash
/// let t = MetaTable::open(Box::new(f), "shb-meta", Default::default())?;
/// assert_eq!(t.get_u64("latestDelivered/0"), Some(100));
/// # Ok::<(), gryphon_storage::StorageError>(())
/// ```
pub struct MetaTable {
    volume: LogVolume,
    config: TableConfig,
    map: BTreeMap<String, Vec<u8>>,
    /// Encoded size of every live pair as a `set` (what compaction writes).
    live_bytes: u64,
    /// Payload bytes of the stream's live records.
    stream_bytes: u64,
    stats: TableStats,
}

impl std::fmt::Debug for MetaTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaTable")
            .field("volume", &self.volume)
            .field("keys", &self.map.len())
            .field("live_bytes", &self.live_bytes)
            .field("stream_bytes", &self.stream_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

fn set_len(key_len: usize, value_len: usize) -> u64 {
    (1 + 2 + key_len + 4 + value_len) as u64
}

fn encode_op(record: &mut Vec<u8>, key: &str, value: Option<&[u8]>) {
    record.push(if value.is_some() { OP_SET } else { OP_DEL });
    record.extend_from_slice(&(key.len() as u16).to_le_bytes());
    record.extend_from_slice(key.as_bytes());
    if let Some(v) = value {
        record.extend_from_slice(&(v.len() as u32).to_le_bytes());
        record.extend_from_slice(v);
    }
}

/// Splits a field with a `width`-byte little-endian length prefix off
/// the front of `data`.
fn split_field(data: &[u8], width: usize) -> Option<(&[u8], &[u8])> {
    let (len, rest) = data.split_at_checked(width)?;
    let mut le = [0u8; 8];
    le[..width].copy_from_slice(len);
    rest.split_at_checked(u64::from_le_bytes(le) as usize)
}

impl MetaTable {
    /// Opens (recovering) or creates the table named `name`.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or non-tail corruption. A torn or
    /// corrupt tail batch is rolled back, not reported.
    pub fn open(
        factory: Box<dyn MediaFactory>,
        name: &str,
        config: TableConfig,
    ) -> Result<Self, StorageError> {
        // The in-memory map is the only reader: no segment cache.
        let volume_config = VolumeConfig {
            cached_segments: 0,
            ..VolumeConfig::default()
        };
        let mut table = MetaTable {
            volume: LogVolume::open(factory, name, volume_config)?,
            config,
            map: BTreeMap::new(),
            live_bytes: 0,
            stream_bytes: 0,
            stats: TableStats::default(),
        };
        for (index, record) in table.volume.read_all(STREAM)? {
            table.stream_bytes += record.len() as u64;
            table.replay(&record).ok_or_else(|| StorageError::Corrupt {
                media: name.to_owned(),
                offset: index.0,
                detail: "malformed meta-table batch".into(),
            })?;
        }
        Ok(table)
    }

    /// Applies one batch record read back from the stream.
    fn replay(&mut self, mut record: &[u8]) -> Option<()> {
        while let Some((&op, rest)) = record.split_first() {
            let (key, rest) = split_field(rest, 2)?;
            let key = std::str::from_utf8(key).ok()?.to_owned();
            record = match op {
                OP_SET => {
                    let (value, rest) = split_field(rest, 4)?;
                    self.apply(key, Some(value.to_vec()));
                    rest
                }
                OP_DEL => {
                    self.apply(key, None);
                    rest
                }
                _ => return None,
            };
        }
        Some(())
    }

    fn apply(&mut self, key: String, value: Option<Vec<u8>>) {
        let key_len = key.len();
        let old = match value {
            Some(v) => {
                self.live_bytes += set_len(key_len, v.len());
                self.map.insert(key, v)
            }
            None => self.map.remove(&key),
        };
        if let Some(old) = old {
            self.live_bytes -= set_len(key_len, old.len());
        }
    }

    /// Appends a batch of updates (`None` deletes the key) as one record
    /// and applies it in memory **without flushing** — the append half a
    /// [`CommitPipeline`] runs before its one flush. The batch becomes
    /// durable at the next [`MetaTable::sync`]; a crash before that rolls
    /// the whole batch back atomically.
    ///
    /// # Errors
    ///
    /// Returns an error if the append fails; the batch was then **not**
    /// applied.
    pub fn stage(&mut self, batch: &[(String, Option<Vec<u8>>)]) -> Result<(), StorageError> {
        let mut record = Vec::new();
        for (k, v) in batch {
            encode_op(&mut record, k, v.as_deref());
        }
        self.volume.append(STREAM, &record)?;
        self.stream_bytes += record.len() as u64;
        self.stats.commits += 1;
        self.stats.updates += batch.len() as u64;
        self.stats.batch_bytes += record.len() as u64;
        for (k, v) in batch {
            self.apply(k.clone(), v.clone());
        }
        Ok(())
    }

    /// Flushes all staged batches to durable storage, then compacts once
    /// the garbage pays for the O(live) rewrite. Compaction rides the
    /// flush, never the staging path, so an error from
    /// [`MetaTable::stage`] always means the batch was not applied.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails (staged batches not durable) or
    /// the compaction fails (they are durable, and any crash replays to
    /// the same map; a [`SharedMetaTable`] refuses later commits).
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.volume.sync()?;
        if self.garbage_bytes() >= self.config.compact_wal_bytes.max(self.live_bytes / 4) {
            let first = self.append_live()?;
            self.volume.chop(STREAM, first, 0)?;
            self.stats.compactions += 1;
        }
        Ok(())
    }

    /// Compaction's first half: re-appends every live pair, syncs, and
    /// returns the index of the first re-appended record. Everything
    /// below it is garbage from here on.
    fn append_live(&mut self) -> Result<LogIndex, StorageError> {
        let mut first = None;
        let mut written = 0;
        let mut record = Vec::new();
        let mut pairs = self.map.iter().peekable();
        while let Some((k, v)) = pairs.next() {
            encode_op(&mut record, k, Some(v));
            if record.len() >= COMPACT_RECORD_BYTES || pairs.peek().is_none() {
                first.get_or_insert(self.volume.append(STREAM, &record)?);
                written += record.len() as u64;
                record.clear();
            }
        }
        self.volume.sync()?;
        self.stream_bytes = written;
        Ok(first.unwrap_or_else(|| self.volume.next_index(STREAM)))
    }

    /// Atomically applies a batch of updates (`None` deletes the key) with
    /// **one** sync — the group-commit primitive.
    ///
    /// # Errors
    ///
    /// See [`MetaTable::stage`] and [`MetaTable::sync`].
    pub fn commit(&mut self, batch: &[(String, Option<Vec<u8>>)]) -> Result<(), StorageError> {
        self.stage(batch)?;
        self.sync()
    }

    /// Convenience single-key set (its own commit).
    ///
    /// # Errors
    ///
    /// See [`MetaTable::commit`].
    pub fn put(&mut self, key: &str, value: Vec<u8>) -> Result<(), StorageError> {
        self.commit(&[(key.to_owned(), Some(value))])
    }

    /// Convenience single-key delete (its own commit).
    ///
    /// # Errors
    ///
    /// See [`MetaTable::commit`].
    pub fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        self.commit(&[(key.to_owned(), None)])
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    /// Reads a key as little-endian `u64` (`None` if absent or mis-sized).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        let v = self.map.get(key)?;
        Some(u64::from_le_bytes(v.as_slice().try_into().ok()?))
    }

    /// Single-key `u64` write.
    ///
    /// # Errors
    ///
    /// See [`MetaTable::commit`].
    pub fn put_u64(&mut self, key: &str, value: u64) -> Result<(), StorageError> {
        self.put(key, value.to_le_bytes().to_vec())
    }

    /// Iterates keys starting with `prefix` (recovery scans, e.g. all
    /// `released/` entries).
    pub fn iter_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a [u8])> + 'a {
        self.map
            .range(prefix.to_owned()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the table has no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Commit counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Encoded size of the live population (what a compaction writes).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Stream bytes superseded since the last compaction — the quantity
    /// the compaction policy watches.
    pub fn garbage_bytes(&self) -> u64 {
        self.stream_bytes - self.live_bytes
    }
}

/// A [`MetaTable`] behind a [`CommitPipeline`]: each commit stages its
/// batch and flushes once under the table lock, and a failed flush
/// refuses every later commit.
#[derive(Debug)]
pub struct SharedMetaTable {
    pipe: CommitPipeline<MetaTable>,
}

impl SharedMetaTable {
    /// Opens (recovering) or creates the shared table named `name`.
    ///
    /// # Errors
    ///
    /// See [`MetaTable::open`].
    pub fn open(
        factory: Box<dyn MediaFactory>,
        name: &str,
        config: TableConfig,
    ) -> Result<Self, StorageError> {
        Ok(SharedMetaTable {
            pipe: CommitPipeline::new(MetaTable::open(factory, name, config)?),
        })
    }

    /// Commits a batch: stages it under the table lock, then flushes
    /// once; returns once the batch is durable.
    ///
    /// # Errors
    ///
    /// See [`MetaTable::commit`] and
    /// [`CommitPipeline::commit_with`](crate::CommitPipeline::commit_with).
    pub fn commit(&self, batch: &[(String, Option<Vec<u8>>)]) -> Result<(), StorageError> {
        self.pipe.commit_with(|t| t.stage(batch))
    }

    /// Single-key set through the pipeline.
    ///
    /// # Errors
    ///
    /// See [`SharedMetaTable::commit`].
    pub fn put(&self, key: &str, value: Vec<u8>) -> Result<(), StorageError> {
        self.commit(&[(key.to_owned(), Some(value))])
    }

    /// Single-key `u64` set through the pipeline.
    ///
    /// # Errors
    ///
    /// See [`SharedMetaTable::commit`].
    pub fn put_u64(&self, key: &str, value: u64) -> Result<(), StorageError> {
        self.put(key, value.to_le_bytes().to_vec())
    }

    /// Single-key delete through the pipeline.
    ///
    /// # Errors
    ///
    /// See [`SharedMetaTable::commit`].
    pub fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.commit(&[(key.to_owned(), None)])
    }

    /// Reads a key (copied out of the shared table).
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.pipe.with(|t| t.get(key).map(|v| v.to_vec()))
    }

    /// Reads a key as little-endian `u64`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.pipe.with(|t| t.get_u64(key))
    }

    /// Runs `f` with exclusive access to the table — for prefix scans and
    /// other multi-key reads.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetaTable) -> R) -> R {
        self.pipe.with(f)
    }

    /// Table counters.
    pub fn stats(&self) -> TableStats {
        self.pipe.with(|t| t.stats())
    }

    /// Commit pipeline counters.
    pub fn commit_stats(&self) -> CommitPipelineStats {
        self.pipe.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{MediaFactory, MemFactory};
    use crate::segment::{encode_frame, FRAME_DATA, HEADER_LEN};

    /// The table's only segment while it stays under 4 MiB.
    const SEG: &str = "t-00000000.seg";

    fn fresh() -> (MemFactory, MetaTable) {
        let f = MemFactory::new();
        let t = MetaTable::open(Box::new(f.clone()), "t", TableConfig::default()).unwrap();
        (f, t)
    }

    fn reopen(f: &MemFactory) -> MetaTable {
        MetaTable::open(Box::new(f.clone()), "t", TableConfig::default()).unwrap()
    }

    fn with_threshold(f: &MemFactory, compact_wal_bytes: u64) -> MetaTable {
        MetaTable::open(Box::new(f.clone()), "t", TableConfig { compact_wal_bytes }).unwrap()
    }

    fn snapshot(t: &MetaTable) -> Vec<(String, Vec<u8>)> {
        t.iter_prefix("")
            .map(|(k, v)| (k.to_owned(), v.to_vec()))
            .collect()
    }

    /// Churns `hot` under a never-compacting table so the stream carries
    /// garbage next to the `cold` keys.
    fn churned(f: &MemFactory) -> MetaTable {
        let mut t = with_threshold(f, u64::MAX);
        for i in 0..20u64 {
            t.put_u64(&format!("cold-{i}"), i).unwrap();
        }
        for i in 0..50u64 {
            t.put_u64("hot", i).unwrap();
        }
        t
    }

    #[test]
    fn put_get_delete() {
        let (_f, mut t) = fresh();
        t.put("a", vec![1]).unwrap();
        t.put_u64("n", 42).unwrap();
        assert_eq!(t.get("a"), Some(&[1][..]));
        assert_eq!(t.get_u64("n"), Some(42));
        t.delete("a").unwrap();
        assert_eq!(t.get("a"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn committed_batches_survive_crash() {
        let (f, mut t) = fresh();
        t.commit(&[("x".into(), Some(vec![1])), ("y".into(), Some(vec![2]))])
            .unwrap();
        drop(t);
        let t = reopen(&f);
        assert_eq!(t.get("x"), Some(&[1][..]));
        assert_eq!(t.get("y"), Some(&[2][..]));
    }

    #[test]
    fn staged_but_unsynced_batch_rolls_back() {
        let (f, mut t) = fresh();
        t.put("stable", vec![7]).unwrap();
        t.stage(&[("x".into(), Some(vec![9]))]).unwrap();
        // Visible in memory immediately…
        assert_eq!(t.get("x"), Some(&[9][..]));
        // …but a crash before sync loses it atomically.
        drop(t);
        f.crash_lose_unsynced();
        let t = reopen(&f);
        assert_eq!(t.get("stable"), Some(&[7][..]));
        assert_eq!(t.get("x"), None, "unsynced staged batch must roll back");
    }

    #[test]
    fn staged_batch_survives_after_sync() {
        let (f, mut t) = fresh();
        t.stage(&[("x".into(), Some(vec![1]))]).unwrap();
        t.stage(&[("y".into(), Some(vec![2]))]).unwrap();
        t.sync().unwrap();
        drop(t);
        f.crash_lose_unsynced();
        let t = reopen(&f);
        assert_eq!(t.get("x"), Some(&[1][..]));
        assert_eq!(t.get("y"), Some(&[2][..]));
    }

    #[test]
    fn torn_batch_rolls_back_atomically() {
        let (f, mut t) = fresh();
        t.put("stable", vec![7]).unwrap();
        drop(t);
        // A two-key batch torn one byte short of its end, and *synced*:
        // only the frame check can keep `x` from applying without `y`.
        let mut record = Vec::new();
        encode_op(&mut record, "x", Some(&[9]));
        encode_op(&mut record, "y", Some(&[9]));
        let frame = encode_frame(FRAME_DATA, STREAM.0, 1, &record);
        let mut seg = f.open(SEG).unwrap();
        seg.append(&frame[..frame.len() - 1]).unwrap();
        seg.sync().unwrap();
        let mut t = reopen(&f);
        assert_eq!(t.get("stable"), Some(&[7][..]));
        assert_eq!(
            (t.get("x"), t.get("y")),
            (None, None),
            "torn batch must roll back"
        );
        // The torn tail is truncated, so later commits land after `stable`.
        t.put("z", vec![3]).unwrap();
        drop(t);
        assert_eq!(reopen(&f).get("z"), Some(&[3][..]));
    }

    #[test]
    fn garbage_tail_is_dropped_and_table_stays_writable() {
        let (f, mut t) = fresh();
        t.put("a", vec![1]).unwrap();
        drop(t);
        let mut seg = f.open(SEG).unwrap();
        seg.append(&[OP_SET, 0xFF]).unwrap();
        seg.sync().unwrap();
        let mut t = reopen(&f);
        assert_eq!(t.get("a"), Some(&[1][..]));
        t.put("b", vec![2]).unwrap();
        drop(t);
        let t = reopen(&f);
        assert_eq!(t.get("b"), Some(&[2][..]));
    }

    #[test]
    fn corrupted_value_is_never_returned() {
        let (f, mut t) = fresh();
        t.put_u64("ld/0", 100).unwrap();
        drop(t);
        // Flip the low bit of the stored value, wherever the table keeps
        // it: read back unchecked, 100 would become 101.
        let mut flipped = 0;
        for name in f.list().unwrap() {
            let mut media = f.open(&name).unwrap();
            let mut data = vec![0u8; media.len() as usize];
            media.read_at(0, &mut data).unwrap();
            if let Some(pos) = data.windows(8).position(|w| w == 100u64.to_le_bytes()) {
                f.corrupt_bit(&name, pos as u64);
                flipped += 1;
            }
        }
        assert_eq!(flipped, 1);
        let t = reopen(&f);
        assert_ne!(
            t.get_u64("ld/0"),
            Some(101),
            "a corrupted value was returned"
        );
    }

    #[test]
    fn batch_delete_applies() {
        let (f, mut t) = fresh();
        t.put("k", vec![1]).unwrap();
        t.commit(&[("k".into(), None), ("m".into(), Some(vec![3]))])
            .unwrap();
        drop(t);
        let t = reopen(&f);
        assert_eq!(t.get("k"), None);
        assert_eq!(t.get("m"), Some(&[3][..]));
    }

    #[test]
    fn insert_only_workload_never_compacts() {
        let f = MemFactory::new();
        let mut t = with_threshold(&f, 64);
        // Distinct keys create no garbage, so the dirty-bytes policy
        // never pays the O(population) rewrite.
        for i in 0..200u64 {
            t.put_u64(&format!("key-{i}"), i).unwrap();
        }
        assert_eq!(t.stats().compactions, 0);
        assert_eq!(t.garbage_bytes(), 0);
        assert!(t.live_bytes() > 0);
    }

    #[test]
    fn churn_compacts_and_preserves_data_and_frees_old_records() {
        let f = MemFactory::new();
        let mut t = with_threshold(&f, 64);
        for i in 0..20u64 {
            t.put_u64(&format!("cold-{i}"), i).unwrap();
        }
        // Overwriting the same key turns earlier records into garbage;
        // once past the dirty-bytes threshold the table compacts.
        for i in 0..200u64 {
            t.put_u64("hot", i).unwrap();
        }
        assert!(t.stats().compactions > 0);
        assert!(t.garbage_bytes() < t.live_bytes());
        // Compaction chopped the superseded records: the stream holds the
        // rewrite and the few commits since.
        assert!(t.volume.live_records(STREAM) < 20, "{t:?}");
        drop(t);
        let t = reopen(&f);
        assert_eq!(t.get_u64("hot"), Some(199));
        for i in 0..20u64 {
            assert_eq!(t.get_u64(&format!("cold-{i}")), Some(i), "cold-{i}");
        }
        assert_eq!(f.list().unwrap(), vec![SEG.to_owned()], "segments only");
    }

    #[test]
    fn garbage_accounting_survives_reopen() {
        let f = MemFactory::new();
        let mut t = with_threshold(&f, u64::MAX);
        for i in 0..10u64 {
            t.put_u64("hot", i).unwrap();
        }
        t.delete("hot").unwrap();
        let garbage = t.garbage_bytes();
        assert!(garbage > 0);
        let live = t.live_bytes();
        drop(t);
        let t = with_threshold(&f, u64::MAX);
        assert_eq!(t.garbage_bytes(), garbage, "garbage rebuilt by replay");
        assert_eq!(t.live_bytes(), live);
    }

    #[test]
    fn crash_before_compaction_sync_replays_same_map() {
        let f = MemFactory::new();
        let mut t = churned(&f);
        let want = snapshot(&t);
        // The rewrite's records are appended but lost with the crash.
        let mut record = Vec::new();
        for (k, v) in &t.map {
            encode_op(&mut record, k, Some(v));
        }
        t.volume.append(STREAM, &record).unwrap();
        drop(t);
        f.crash_lose_unsynced();
        assert_eq!(snapshot(&reopen(&f)), want);
    }

    #[test]
    fn crash_between_compaction_sync_and_chop_replays_same_map() {
        let f = MemFactory::new();
        let mut t = churned(&f);
        let want = snapshot(&t);
        t.append_live().unwrap(); // synced, but never chopped
        drop(t);
        f.crash_lose_unsynced();
        let mut t = with_threshold(&f, 64);
        assert_eq!(snapshot(&t), want);
        // The next flush finds the old records still counted as garbage
        // and finishes the job.
        t.put_u64("hot", 50).unwrap();
        assert_eq!(t.stats().compactions, 1);
        assert!(t.garbage_bytes() < t.live_bytes());
        drop(t);
        assert_eq!(reopen(&f).get_u64("hot"), Some(50));
    }

    #[test]
    fn bit_flip_in_compacted_record_rolls_back_never_misreads() {
        let f = MemFactory::new();
        let mut t = with_threshold(&f, 64);
        for i in 0..50u64 {
            t.put_u64("hot", i).unwrap();
        }
        t.put_u64("stable", 7).unwrap();
        assert!(t.stats().compactions > 0, "churn must have compacted");
        let first = t.volume.first_live_index(STREAM).unwrap();
        drop(t);
        // Flip a bit in the first live record (a compaction rewrite).
        let mut seg = f.open(SEG).unwrap();
        let mut data = vec![0u8; seg.len() as usize];
        seg.read_at(0, &mut data).unwrap();
        let header = [
            &[FRAME_DATA][..],
            &STREAM.0.to_le_bytes(),
            &first.0.to_le_bytes(),
        ]
        .concat();
        let at = data.windows(13).position(|w| w == header).unwrap() + HEADER_LEN;
        f.corrupt_bit(SEG, at as u64);
        // Everything from the bad frame on rolls back; what remains is
        // either absent or a value that was really committed.
        let t = reopen(&f);
        if let Some(v) = t.get_u64("stable") {
            assert_eq!(v, 7);
        }
        if let Some(v) = t.get_u64("hot") {
            assert!(v <= 49);
        }
    }

    #[test]
    fn iter_prefix_scans_range() {
        let (_f, mut t) = fresh();
        t.put("rel/1/0", vec![1]).unwrap();
        t.put("rel/2/0", vec![2]).unwrap();
        t.put("zzz", vec![3]).unwrap();
        let keys: Vec<&str> = t.iter_prefix("rel/").map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["rel/1/0", "rel/2/0"]);
    }

    #[test]
    fn stats_count_commits_and_updates() {
        let (_f, mut t) = fresh();
        t.commit(&[("a".into(), Some(vec![])), ("b".into(), Some(vec![]))])
            .unwrap();
        t.put("c", vec![]).unwrap();
        let s = t.stats();
        assert_eq!(s.commits, 2);
        assert_eq!(s.updates, 3);
        assert_eq!(s.batch_bytes, 3 * set_len(1, 0));
    }

    #[test]
    fn shared_table_commits_concurrently() {
        let f = MemFactory::with_sync_latency_us(200);
        let shared =
            SharedMetaTable::open(Box::new(f.clone()), "t", TableConfig::default()).unwrap();
        std::thread::scope(|s| {
            for th in 0..4 {
                let shared = &shared;
                s.spawn(move || {
                    for i in 0..20u64 {
                        shared.put_u64(&format!("k/{th}/{i}"), i).unwrap();
                    }
                });
            }
        });
        let cs = shared.commit_stats();
        assert_eq!(cs.commits, 80);
        assert_eq!(cs.fsyncs, cs.commits, "every commit pays its own flush");
        drop(shared);
        // Everything committed is durable.
        let t = reopen(&f);
        for th in 0..4 {
            for i in 0..20u64 {
                assert_eq!(t.get_u64(&format!("k/{th}/{i}")), Some(i));
            }
        }
    }
}
