//! Where the brokers' files live during a run.
//!
//! The benchmark may read and write only inside its checkout, so the
//! store is a fresh directory under `benchmark/out/`, not `/dev/shm`,
//! and the brokers get `gryphon_storage::FileFactory` on it: real files,
//! real `write` calls, real directory syncs when a file is created or
//! removed. One call is kept from the device: `sync` on a data file,
//! which [`PageCacheSync`] counts and answers at once — what `fsync` on
//! the tmpfs the issue asked for does. With it on the shared `/dev/vda`
//! of the box this was written on, a 1 s slice's latency p50 was
//! 6.5–55 ms and its p90 13–217 ms (3.4 and 5.5 ms without): the numbers
//! measured the host's disk queue, not the program. The device flush is
//! measured on its own, through the bare `FileFactory`, as
//! `storage.fsync_us_p50_disk`.

use gryphon_storage::{FileFactory, Media, MediaFactory, MediaStats, StorageError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A store directory that is removed when the guard drops — on normal
/// exit and on unwinding alike.
pub struct StoreDir {
    path: PathBuf,
}

impl StoreDir {
    /// Creates a fresh, empty directory under `benchmark/out/`.
    pub fn create() -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join(format!(
            "store-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(StoreDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A factory rooted in sub-directory `tag` of the store.
    pub fn factory(&self, tag: &str) -> Box<dyn MediaFactory> {
        let files = FileFactory::new(self.path.join(tag)).expect("store directory is writable");
        Box::new(PageCacheSync(files))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        // Errors are ignored: Drop must not panic, and a leftover
        // directory is inside the git-ignored `benchmark/out/`.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `benchmark/out/`: the only place the benchmark writes (the path is
/// fixed at build time, and the build happens inside the checkout).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `tmpfs` or `disk`, from the mount table entry covering `path`.
pub fn medium(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mut best = ("", "unknown");
    for line in mounts.lines() {
        let mut it = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0.len() {
            best = (mount, fstype);
        }
    }
    if best.1 == "tmpfs" {
        "tmpfs".to_owned()
    } else {
        format!("disk({}, page cache)", best.1)
    }
}

/// `FileFactory` whose data files answer `sync` without going to the
/// device; see module docs.
#[derive(Debug, Clone)]
struct PageCacheSync(FileFactory);

struct PageCacheFile {
    file: Box<dyn Media>,
    syncs: u64,
}

impl Media for PageCacheFile {
    fn len(&self) -> u64 {
        self.file.len()
    }

    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        self.file.append(data)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.file.read_at(offset, buf)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.syncs += 1;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.file.truncate(len)
    }

    fn stats(&self) -> MediaStats {
        MediaStats {
            syncs: self.syncs,
            ..self.file.stats()
        }
    }
}

impl MediaFactory for PageCacheSync {
    fn clone_box(&self) -> Box<dyn MediaFactory> {
        Box::new(self.clone())
    }

    fn open(&self, name: &str) -> Result<Box<dyn Media>, StorageError> {
        let file = self.0.open(name)?;
        Ok(Box::new(PageCacheFile { file, syncs: 0 }))
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.0.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.0.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_dir_is_removed_on_drop_and_on_panic() {
        let kept;
        {
            let dir = StoreDir::create().expect("create");
            kept = dir.path().to_path_buf();
            let mut m = dir.factory("a").open("f").expect("open");
            m.append(b"xyz").expect("append");
            assert!(kept.exists());
        }
        assert!(!kept.exists(), "removed on drop");

        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = StoreDir::create().expect("create");
            *seen.lock().expect("lock") = dir.path().to_path_buf();
            panic!("workload failed");
        }));
        assert!(result.is_err());
        let path = seen.into_inner().expect("lock");
        assert!(
            !path.as_os_str().is_empty() && !path.exists(),
            "removed on failure"
        );
    }

    #[test]
    fn sync_is_counted_and_the_bytes_are_in_the_file() {
        let dir = StoreDir::create().expect("create");
        let f = dir.factory("x");
        let mut m = f.open("wal").expect("open");
        m.append(b"hello").expect("append");
        m.sync().expect("sync");
        assert_eq!((m.stats().syncs, m.stats().bytes_written), (1, 5));
        let on_disk = std::fs::read(dir.path().join("x").join("wal")).expect("real file");
        assert_eq!(on_disk, b"hello");
    }
}
