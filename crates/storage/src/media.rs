//! The `Media` abstraction: an append-only, randomly readable byte device.
//!
//! Two backends are provided:
//!
//! * [`FileFactory`] — real files in a directory, with positioned I/O
//!   (one `pwrite` per append, one `pread` per read, no `seek`),
//!   `sync_data` on [`Media::sync`] and a directory fsync after every
//!   file creation and removal (so the namespace survives power loss, not
//!   just a process kill); used by the wall-clock microbenchmarks;
//! * [`MemFactory`] — named in-memory byte buffers that **outlive the
//!   `Media` handle**: reopening a name after dropping the handle sees the
//!   previously written bytes, which is exactly the durability model a
//!   simulated crash needs.

use crate::StorageError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;

/// Write/sync counters for a media instance.
///
/// The PFS microbenchmark's headline ("25× less data logged") is read off
/// these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaStats {
    /// Total bytes appended.
    pub bytes_written: u64,
    /// Number of `sync` calls that actually flushed.
    pub syncs: u64,
}

/// An append-only byte device with random reads.
///
/// Implementations must guarantee that after [`Media::sync`] returns, all
/// previously appended bytes survive a crash of the process (for
/// [`MemFactory`], survival of the *handle* — the factory plays the role
/// of the disk).
pub trait Media: Send {
    /// Current length in bytes (all appended data, synced or not).
    fn len(&self) -> u64;

    /// `true` if nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `data` at the end.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying device fails.
    fn append(&mut self, data: &[u8]) -> Result<(), StorageError>;

    /// Reads exactly `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is out of bounds or the device fails.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError>;

    /// Forces appended bytes to durable storage.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Discards all bytes at and after `len` (torn-tail repair during
    /// recovery). Growing is not supported; `len` past the end is a no-op.
    ///
    /// # Errors
    ///
    /// Returns an error if the device fails.
    fn truncate(&mut self, len: u64) -> Result<(), StorageError>;

    /// Write/sync counters.
    fn stats(&self) -> MediaStats;
}

/// Creates, reopens, lists and deletes named [`Media`] instances.
///
/// A factory models a directory on a disk: media survive handle drops and
/// are enumerable for recovery.
pub trait MediaFactory: Send {
    /// Boxed clone sharing the same namespace (both backends are cheap
    /// handles onto shared state).
    fn clone_box(&self) -> Box<dyn MediaFactory>;

    /// Opens (creating if absent) the media called `name`.
    ///
    /// # Errors
    ///
    /// Returns an error if the device cannot be created or opened.
    fn open(&self, name: &str) -> Result<Box<dyn Media>, StorageError>;

    /// Deletes the media called `name` (idempotent).
    ///
    /// # Errors
    ///
    /// Returns an error if deletion fails for a reason other than absence.
    fn remove(&self, name: &str) -> Result<(), StorageError>;

    /// Names of all existing media, in unspecified order.
    ///
    /// # Errors
    ///
    /// Returns an error if the namespace cannot be listed.
    fn list(&self) -> Result<Vec<String>, StorageError>;

    /// `true` if the media exists.
    fn exists(&self, name: &str) -> bool {
        self.list()
            .map(|l| l.iter().any(|n| n == name))
            .unwrap_or(false)
    }
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemInner {
    /// name → (bytes, synced_len). Bytes beyond `synced_len` are lost by
    /// [`MemFactory::crash_lose_unsynced`].
    media: HashMap<String, (Vec<u8>, usize)>,
}

/// Factory of named in-memory media. Cloning shares the namespace.
///
/// # Examples
///
/// ```
/// use gryphon_storage::{MediaFactory, MemFactory, Media};
///
/// let f = MemFactory::new();
/// {
///     let mut m = f.open("wal")?;
///     m.append(b"abc")?;
///     m.sync()?;
/// } // handle dropped — simulated process crash
/// let mut m = f.open("wal")?;
/// assert_eq!(m.len(), 3);
/// # Ok::<(), gryphon_storage::StorageError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemFactory {
    inner: Arc<Mutex<MemInner>>,
    /// Modeled device flush latency in microseconds (0 = instantaneous).
    sync_latency_us: Arc<std::sync::atomic::AtomicU64>,
}

impl MemFactory {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a namespace whose media sleep `us` microseconds on every
    /// [`Media::sync`], modeling a device flush round-trip. The sleep
    /// happens *outside* the namespace lock, so other media (and reads of
    /// this one) proceed during the modeled flush. Keep this at the
    /// default 0 anywhere determinism matters — the simulator models
    /// commit latency with its own timers.
    pub fn with_sync_latency_us(us: u64) -> Self {
        let f = Self::default();
        f.sync_latency_us
            .store(us, std::sync::atomic::Ordering::Relaxed);
        f
    }

    /// Simulates a crash: every media loses bytes appended after its last
    /// sync. Used by recovery tests to produce torn tails.
    pub fn crash_lose_unsynced(&self) {
        let mut inner = self.inner.lock();
        for (bytes, synced) in inner.media.values_mut() {
            bytes.truncate(*synced);
        }
    }

    /// Flips one bit at `offset` in `name` (corruption injection).
    ///
    /// # Panics
    ///
    /// Panics if the media or offset does not exist — corruption tests
    /// should fail loudly when aimed at the wrong place.
    pub fn corrupt_bit(&self, name: &str, offset: u64) {
        let mut inner = self.inner.lock();
        let (bytes, _) = inner
            .media
            .get_mut(name)
            .expect("corrupt_bit: no such media");
        bytes[offset as usize] ^= 1;
    }

    /// Total bytes across all media (storage-footprint accounting).
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .lock()
            .media
            .values()
            .map(|(b, _)| b.len() as u64)
            .sum()
    }
}

struct MemMedia {
    factory: Arc<Mutex<MemInner>>,
    name: String,
    sync_latency_us: Arc<std::sync::atomic::AtomicU64>,
    stats: MediaStats,
}

impl Media for MemMedia {
    fn len(&self) -> u64 {
        self.factory
            .lock()
            .media
            .get(&self.name)
            .map(|(b, _)| b.len() as u64)
            .unwrap_or(0)
    }

    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.factory.lock();
        let (bytes, _) = inner
            .media
            .get_mut(&self.name)
            .ok_or_else(|| StorageError::MissingMedia(self.name.clone()))?;
        bytes.extend_from_slice(data);
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let inner = self.factory.lock();
        let (bytes, _) = inner
            .media
            .get(&self.name)
            .ok_or_else(|| StorageError::MissingMedia(self.name.clone()))?;
        let start = offset as usize;
        let end = start + buf.len();
        if end > bytes.len() {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("read_at {start}..{end} beyond len {}", bytes.len()),
            )));
        }
        buf.copy_from_slice(&bytes[start..end]);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        // Capture the durable horizon, then model the device round-trip
        // without holding the namespace lock.
        let horizon = {
            let inner = self.factory.lock();
            inner
                .media
                .get(&self.name)
                .ok_or_else(|| StorageError::MissingMedia(self.name.clone()))?
                .0
                .len()
        };
        let latency = self
            .sync_latency_us
            .load(std::sync::atomic::Ordering::Relaxed);
        if latency > 0 {
            std::thread::sleep(std::time::Duration::from_micros(latency));
        }
        let mut inner = self.factory.lock();
        let (bytes, synced) = inner
            .media
            .get_mut(&self.name)
            .ok_or_else(|| StorageError::MissingMedia(self.name.clone()))?;
        *synced = (*synced).max(horizon.min(bytes.len()));
        self.stats.syncs += 1;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        let mut inner = self.factory.lock();
        let (bytes, synced) = inner
            .media
            .get_mut(&self.name)
            .ok_or_else(|| StorageError::MissingMedia(self.name.clone()))?;
        if (len as usize) < bytes.len() {
            bytes.truncate(len as usize);
        }
        *synced = (*synced).min(bytes.len());
        Ok(())
    }

    fn stats(&self) -> MediaStats {
        self.stats
    }
}

impl MediaFactory for MemFactory {
    fn clone_box(&self) -> Box<dyn MediaFactory> {
        Box::new(self.clone())
    }

    fn open(&self, name: &str) -> Result<Box<dyn Media>, StorageError> {
        self.inner
            .lock()
            .media
            .entry(name.to_owned())
            .or_insert_with(|| (Vec::new(), 0));
        Ok(Box::new(MemMedia {
            factory: Arc::clone(&self.inner),
            name: name.to_owned(),
            sync_latency_us: Arc::clone(&self.sync_latency_us),
            stats: MediaStats::default(),
        }))
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.inner.lock().media.remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        Ok(self.inner.lock().media.keys().cloned().collect())
    }
}

// ---------------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------------

/// Factory of real files under a directory.
///
/// # Examples
///
/// ```no_run
/// use gryphon_storage::{FileFactory, MediaFactory};
/// let f = FileFactory::new("/tmp/gryphon-vol")?;
/// let media = f.open("seg-0")?;
/// # Ok::<(), gryphon_storage::StorageError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FileFactory {
    dir: PathBuf,
}

impl FileFactory {
    /// Creates the directory if needed and returns a factory rooted there.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileFactory { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        // Media names are generated internally and never contain
        // separators, but be defensive anyway.
        debug_assert!(!name.contains('/') && !name.contains(".."));
        self.dir.join(name)
    }

    /// Flushes the directory itself, making file creation/removal durable
    /// against power loss (a synced file's *bytes* surviving is useless if
    /// its directory entry vanishes, and a deleted segment that reappears
    /// would resurrect chopped records).
    fn sync_dir(&self) -> Result<(), StorageError> {
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

struct FileMedia {
    file: File,
    len: u64,
    stats: MediaStats,
}

impl Media for FileMedia {
    fn len(&self) -> u64 {
        self.len
    }

    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        self.file.write_all_at(data, self.len)?;
        self.len += data.len() as u64;
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        self.stats.syncs += 1;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        if len < self.len {
            self.file.set_len(len)?;
            self.len = len;
        }
        Ok(())
    }

    fn stats(&self) -> MediaStats {
        self.stats
    }
}

impl MediaFactory for FileFactory {
    fn clone_box(&self) -> Box<dyn MediaFactory> {
        Box::new(self.clone())
    }

    fn open(&self, name: &str) -> Result<Box<dyn Media>, StorageError> {
        let path = self.path(name);
        let existed = path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if !existed {
            self.sync_dir()?;
        }
        let len = file.metadata()?.len();
        Ok(Box::new(FileMedia {
            file,
            len,
            stats: MediaStats::default(),
        }))
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(factory: &dyn MediaFactory) {
        let mut m = factory.open("a").unwrap();
        assert!(m.is_empty());
        m.append(b"hello ").unwrap();
        m.append(b"world").unwrap();
        assert_eq!(m.len(), 11);
        let mut buf = [0u8; 5];
        m.read_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        m.sync().unwrap();
        assert_eq!(m.stats().bytes_written, 11);
        assert_eq!(m.stats().syncs, 1);
        drop(m);
        // Reopen sees the data.
        let mut m2 = factory.open("a").unwrap();
        assert_eq!(m2.len(), 11);
        let mut buf = [0u8; 11];
        m2.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn mem_roundtrip() {
        roundtrip(&MemFactory::new());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gry-media-{}", std::process::id()));
        let f = FileFactory::new(&dir).unwrap();
        roundtrip(&f);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_crash_loses_unsynced_tail() {
        let f = MemFactory::new();
        let mut m = f.open("wal").unwrap();
        m.append(b"synced").unwrap();
        m.sync().unwrap();
        m.append(b"-lost").unwrap();
        drop(m);
        f.crash_lose_unsynced();
        let m2 = f.open("wal").unwrap();
        assert_eq!(m2.len(), 6);
    }

    #[test]
    fn mem_out_of_bounds_read_errors() {
        let f = MemFactory::new();
        let mut m = f.open("x").unwrap();
        m.append(b"ab").unwrap();
        let mut buf = [0u8; 3];
        assert!(m.read_at(0, &mut buf).is_err());
        assert!(m.read_at(9, &mut buf[..1]).is_err());
    }

    #[test]
    fn factory_list_and_remove() {
        let f = MemFactory::new();
        f.open("a").unwrap();
        f.open("b").unwrap();
        let mut names = f.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        assert!(f.exists("a"));
        f.remove("a").unwrap();
        assert!(!f.exists("a"));
        f.remove("a").unwrap(); // idempotent
    }

    #[test]
    fn corrupt_bit_flips_data() {
        let f = MemFactory::new();
        let mut m = f.open("x").unwrap();
        m.append(&[0u8]).unwrap();
        f.corrupt_bit("x", 0);
        let mut buf = [0u8; 1];
        m.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
    }

    #[test]
    fn file_factory_reopen_preserves_and_removes() {
        let dir = std::env::temp_dir().join(format!("gry-media2-{}", std::process::id()));
        let f = FileFactory::new(&dir).unwrap();
        {
            let mut m = f.open("seg").unwrap();
            m.append(b"xyz").unwrap();
            m.sync().unwrap();
        }
        assert!(f.exists("seg"));
        f.remove("seg").unwrap();
        assert!(!f.exists("seg"));
        f.remove("seg").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
