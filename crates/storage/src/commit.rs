//! Commit pipeline: one committer per log, one device flush per commit.
//!
//! The paper's group commit is batching inside one broker: the PHB writes
//! a pubend's publishes as one batch with one sync (§2–3; §5: 44 of 50 ms
//! is PHB logging), and the JMS path folds many checkpoint updates into
//! one transaction (§5.2). Here that batching happens *before* this file
//! — the pubend's commit timer and the checkpoint-commit workers gather
//! the batch — and every broker, and every shard of a sharded one,
//! commits to its own log from one thread. There is never a second
//! committer to share a flush with, so [`CommitPipeline`] does no
//! grouping. Under one lock over the target, a commit:
//!
//! 1. refuses if the pipeline is poisoned;
//! 2. runs the caller's append closure (an error there appends nothing
//!    and costs no flush);
//! 3. performs exactly one [`Commitable::sync_commit`];
//! 4. on a failed flush, poisons the pipeline for good.
//!
//! Poisoning is the post-fsyncgate discipline: after a failed flush there
//! is no way to know which bytes reached the platter, so every later
//! commit, from any thread, reports an error rather than retry the fsync
//! and pretend.

use crate::StorageError;
use std::sync::{Mutex, MutexGuard};

/// A target a [`CommitPipeline`] can make durable: anything with a
/// "flush everything appended so far" operation.
pub trait Commitable: Send {
    /// Flushes all previously appended records to durable storage.
    ///
    /// # Errors
    ///
    /// Returns an error if the device flush fails — which poisons the
    /// pipeline (see module docs).
    fn sync_commit(&mut self) -> Result<(), StorageError>;
}

/// Aggregate counters for a pipeline (monotone; read via
/// [`CommitPipeline::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitPipelineStats {
    /// Commits completed.
    pub commits: u64,
    /// Device flushes attempted, the one that poisoned the pipeline
    /// included.
    pub fsyncs: u64,
}

struct Committer<T> {
    target: T,
    poisoned: bool,
    stats: CommitPipelineStats,
}

/// Lock, append, flush, poison around a [`Commitable`] target (see
/// module docs).
///
/// # Examples
///
/// ```
/// use gryphon_storage::{CommitPipeline, LogVolume, MemFactory, StreamId, VolumeConfig};
///
/// let vol = LogVolume::create(Box::new(MemFactory::new()), "v", VolumeConfig::default())?;
/// let pipe = CommitPipeline::new(vol);
/// let idx = pipe.commit_with(|v| v.append(StreamId(0), b"hello"))?;
/// assert_eq!(idx.0, 0);
/// assert_eq!(pipe.stats().fsyncs, 1);
/// # Ok::<(), gryphon_storage::StorageError>(())
/// ```
pub struct CommitPipeline<T> {
    inner: Mutex<Committer<T>>,
}

impl<T> std::fmt::Debug for CommitPipeline<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.lock();
        f.debug_struct("CommitPipeline")
            .field("poisoned", &c.poisoned)
            .field("stats", &c.stats)
            .finish()
    }
}

impl<T: Commitable> CommitPipeline<T> {
    /// Wraps `target`.
    pub fn new(target: T) -> Self {
        CommitPipeline {
            inner: Mutex::new(Committer {
                target,
                poisoned: false,
                stats: CommitPipelineStats::default(),
            }),
        }
    }

    /// Runs `f` with exclusive access to the target — for reads and
    /// non-durable mutations that need no flush.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.lock().target)
    }

    /// Appends via `f`, then flushes once; returns once the append is
    /// durable.
    ///
    /// # Errors
    ///
    /// Returns an error if the pipeline is poisoned (`f` is not run),
    /// `f`'s error (nothing was flushed), or the flush's error (which
    /// poisons the pipeline).
    pub fn commit_with<R>(
        &self,
        f: impl FnOnce(&mut T) -> Result<R, StorageError>,
    ) -> Result<R, StorageError> {
        let mut c = self.lock();
        if c.poisoned {
            return Err(poisoned_error());
        }
        let result = f(&mut c.target)?;
        c.stats.fsyncs += 1;
        if let Err(e) = c.target.sync_commit() {
            c.poisoned = true;
            return Err(e);
        }
        c.stats.commits += 1;
        Ok(result)
    }

    /// Aggregate pipeline counters.
    pub fn stats(&self) -> CommitPipelineStats {
        self.lock().stats
    }
}

impl<T> CommitPipeline<T> {
    fn lock(&self) -> MutexGuard<'_, Committer<T>> {
        self.inner.lock().expect("commit pipeline lock")
    }
}

fn poisoned_error() -> StorageError {
    StorageError::Io(std::io::Error::other(
        "commit pipeline poisoned by a failed flush",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A commitable that counts appends and flushes and can be told to
    /// fail its flush.
    #[derive(Default)]
    struct FakeLog {
        appended: u64,
        synced: u64,
        fail: bool,
    }

    impl Commitable for FakeLog {
        fn sync_commit(&mut self) -> Result<(), StorageError> {
            if self.fail {
                return Err(StorageError::Io(std::io::Error::other("boom")));
            }
            self.synced += 1;
            Ok(())
        }
    }

    fn append(l: &mut FakeLog) -> Result<(), StorageError> {
        l.appended += 1;
        Ok(())
    }

    #[test]
    fn each_commit_is_one_append_and_one_flush() {
        let pipe = CommitPipeline::new(FakeLog::default());
        for _ in 0..3 {
            pipe.commit_with(append).unwrap();
        }
        assert_eq!(pipe.with(|l| (l.appended, l.synced)), (3, 3));
        let st = pipe.stats();
        assert_eq!((st.commits, st.fsyncs), (3, 3));
    }

    #[test]
    fn failed_flush_poisons_the_pipeline() {
        let pipe = CommitPipeline::new(FakeLog::default());
        pipe.with(|l| l.fail = true);
        assert!(pipe.commit_with(append).is_err());
        // Every later commit fails fast, even though the device "works"
        // again — durability of the earlier batch is unknowable.
        pipe.with(|l| l.fail = false);
        assert!(pipe.commit_with(append).is_err());
        assert_eq!(pipe.with(|l| (l.appended, l.synced)), (1, 0));
    }

    #[test]
    fn poison_from_one_thread_refuses_commits_on_another() {
        let pipe = Arc::new(CommitPipeline::new(FakeLog::default()));
        pipe.commit_with(append).unwrap();
        let poisoner = Arc::clone(&pipe);
        std::thread::spawn(move || {
            poisoner.with(|l| l.fail = true);
            assert!(poisoner.commit_with(append).is_err());
            poisoner.with(|l| l.fail = false);
        })
        .join()
        .unwrap();
        let other = Arc::clone(&pipe);
        let refused = std::thread::spawn(move || other.commit_with(append).is_err())
            .join()
            .unwrap();
        assert!(refused, "a commit after a failed flush must error");
        // The refused commit appended nothing: only the good commit and
        // the poisoning one reached the log.
        assert_eq!(pipe.with(|l| (l.appended, l.synced)), (2, 1));
        let st = pipe.stats();
        assert_eq!((st.commits, st.fsyncs), (1, 2));
    }

    #[test]
    fn append_error_costs_no_flush() {
        let pipe = CommitPipeline::new(FakeLog::default());
        let r: Result<(), _> = pipe.commit_with(|_| Err(StorageError::MissingMedia("nope".into())));
        assert!(r.is_err());
        assert_eq!(pipe.with(|l| l.synced), 0, "no flush for a failed append");
        assert_eq!(pipe.stats(), CommitPipelineStats::default());
        // A failed append does not poison: the next commit goes through.
        pipe.commit_with(append).unwrap();
        assert_eq!(pipe.with(|l| l.synced), 1);
    }
}
