//! Group-commit pipeline: one device flush per round-trip, shared by
//! every committer that appended in the meantime.
//!
//! The paper's latency budget (§5: 44 of 50 ms is PHB logging) and its
//! JMS throughput curve (§5.2) are both stories about how many fsyncs the
//! hot path pays. [`CommitPipeline`] implements the classic
//! leader/follower group commit:
//!
//! 1. A committer locks the target, appends its records, and takes a
//!    *commit sequence number* — its position in the append order.
//! 2. It then waits for the *durability horizon* to reach its sequence.
//!    If nobody is flushing, it becomes the **leader**: it snapshots the
//!    current append horizon, performs **one** `sync` covering every
//!    record appended so far, advances the durable horizon, and wakes all
//!    **followers** — whose commits became durable without paying a
//!    flush of their own.
//!
//! With `n` concurrent committers and device latency `L`, throughput goes
//! from `1/L` commits per second (everyone flushes alone) to `n/L` — the
//! `log_volume_commit` bench measures exactly this ratio.
//!
//! A failed flush **poisons** the pipeline: there is no way to know which
//! bytes reached the platter, so every in-flight and subsequent commit
//! reports an error (the post-fsyncgate discipline — never retry an
//! fsync and pretend).
//!
//! Timing fields in [`CommitReceipt`] are only populated when the
//! pipeline is built with [`CommitPipeline::with_timing`]; the default
//! reports zeros so deterministic runs (the simulator's golden tests)
//! never observe wall-clock jitter.

use crate::StorageError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

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
    /// Commits completed (leaders + followers).
    pub commits: u64,
    /// Device flushes performed.
    pub fsyncs: u64,
    /// Largest number of commits covered by one flush.
    pub max_group: u64,
    /// Total microseconds committers spent waiting for durability
    /// (zero unless timing is enabled).
    pub sync_wait_us_total: u64,
    /// Total microseconds spent inside device flushes (zero unless
    /// timing is enabled).
    pub fsync_us_total: u64,
}

/// What one commit observed on its way through the pipeline — the raw
/// material for the `storage.commit.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitReceipt {
    /// This commit's sequence number in the append order.
    pub seq: u64,
    /// How many commits the flush that made this one durable covered.
    pub group_size: u64,
    /// Whether this commit performed the flush itself.
    pub leader: bool,
    /// Microseconds from append completion to durability (0 without
    /// timing).
    pub sync_wait_us: u64,
    /// Microseconds the covering flush took (0 without timing, and for
    /// followers that joined after the flush completed).
    pub fsync_us: u64,
}

#[derive(Debug, Default)]
struct CommitState {
    appended_seq: u64,
    durable_seq: u64,
    /// Commits covered by the most recent successful flush — what a
    /// follower reports as its covering group size.
    last_group: u64,
    syncing: bool,
    poisoned: bool,
    stats: CommitPipelineStats,
}

struct PipelineInner<T> {
    /// Lock order: `target` before `state`, never the reverse while
    /// holding `state` (the leader re-locks `target` only after
    /// releasing `state`).
    target: Mutex<T>,
    state: Mutex<CommitState>,
    cv: Condvar,
    /// Committers that entered the pipeline (append pending or done);
    /// the leader's group window waits for `appended_seq` to catch up
    /// to this before flushing.
    entered: std::sync::atomic::AtomicU64,
    measure_time: bool,
}

/// How many times a leader yields waiting for already-entered committers
/// to land their appends. Bounded so one stalled appender cannot delay
/// everyone else's durability indefinitely; in the single-threaded case
/// the window is zero iterations.
const GROUP_WINDOW_SPINS: usize = 64;

/// Concurrent group-commit coordinator around a [`Commitable`] target.
///
/// Cloning is cheap and shares the pipeline; each clone can commit from
/// its own thread.
///
/// # Examples
///
/// ```
/// use gryphon_storage::{CommitPipeline, LogVolume, MemFactory, StreamId, VolumeConfig};
///
/// let vol = LogVolume::create(Box::new(MemFactory::new()), "v", VolumeConfig::default())?;
/// let pipe = CommitPipeline::new(vol);
/// let (idx, receipt) = pipe.commit_with(|v| v.append(StreamId(0), b"hello"))?;
/// assert_eq!(idx.0, 0);
/// assert!(receipt.group_size >= 1);
/// # Ok::<(), gryphon_storage::StorageError>(())
/// ```
pub struct CommitPipeline<T> {
    inner: Arc<PipelineInner<T>>,
}

impl<T> Clone for CommitPipeline<T> {
    fn clone(&self) -> Self {
        CommitPipeline {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for CommitPipeline<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock().expect("state lock");
        f.debug_struct("CommitPipeline")
            .field("appended_seq", &st.appended_seq)
            .field("durable_seq", &st.durable_seq)
            .field("poisoned", &st.poisoned)
            .field("stats", &st.stats)
            .finish()
    }
}

impl<T: Commitable> CommitPipeline<T> {
    /// Wraps `target` with timing disabled (deterministic receipts).
    pub fn new(target: T) -> Self {
        Self::build(target, false)
    }

    /// Wraps `target` with wall-clock timing of waits and flushes —
    /// for the threaded runtime and benches, never for the simulator.
    pub fn with_timing(target: T) -> Self {
        Self::build(target, true)
    }

    fn build(target: T, measure_time: bool) -> Self {
        CommitPipeline {
            inner: Arc::new(PipelineInner {
                target: Mutex::new(target),
                state: Mutex::new(CommitState::default()),
                cv: Condvar::new(),
                entered: std::sync::atomic::AtomicU64::new(0),
                measure_time,
            }),
        }
    }

    /// Runs `f` with exclusive access to the target — for reads and
    /// non-durable mutations that need no flush.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut t = self.inner.target.lock().expect("target lock");
        f(&mut t)
    }

    /// Appends via `f`, then waits until a flush covers the append.
    ///
    /// `f` runs under the target lock; if it succeeds, the commit takes a
    /// sequence number and this call blocks until the durability horizon
    /// reaches it — either by performing the flush itself (leader) or by
    /// riding on another committer's flush (follower).
    ///
    /// # Errors
    ///
    /// Returns `f`'s error (nothing was enqueued), or an error if the
    /// covering flush failed or the pipeline is poisoned.
    pub fn commit_with<R>(
        &self,
        f: impl FnOnce(&mut T) -> Result<R, StorageError>,
    ) -> Result<(R, CommitReceipt), StorageError> {
        use std::sync::atomic::Ordering;
        let inner = &*self.inner;
        // Phase 1: append under the target lock, take a sequence number.
        // The `entered` ticket is taken before the lock so a concurrent
        // leader knows this append is coming and can wait for it.
        inner.entered.fetch_add(1, Ordering::AcqRel);
        let (result, seq) = {
            let mut t = inner.target.lock().expect("target lock");
            let r = match f(&mut t) {
                Ok(r) => r,
                Err(e) => {
                    inner.entered.fetch_sub(1, Ordering::AcqRel);
                    return Err(e);
                }
            };
            let mut st = inner.state.lock().expect("state lock");
            if st.poisoned {
                inner.entered.fetch_sub(1, Ordering::AcqRel);
                return Err(poisoned_error());
            }
            st.appended_seq += 1;
            (r, st.appended_seq)
        };
        // Phase 2: wait for durability, flushing ourselves if nobody is.
        let wait_start = self.now();
        let mut st = inner.state.lock().expect("state lock");
        loop {
            if st.poisoned {
                return Err(poisoned_error());
            }
            if st.durable_seq >= seq {
                let sync_wait_us = self.elapsed_us(wait_start);
                st.stats.commits += 1;
                st.stats.sync_wait_us_total += sync_wait_us;
                let receipt = CommitReceipt {
                    seq,
                    // The flush that advanced `durable_seq` past us set
                    // `last_group`; reporting the distance to the horizon
                    // instead would skew the group-size histogram low for
                    // early members of a group.
                    group_size: st.last_group,
                    leader: false,
                    sync_wait_us,
                    fsync_us: 0,
                };
                return Ok((result, receipt));
            }
            if !st.syncing {
                st.syncing = true;
                let prev_durable = st.durable_seq;
                drop(st);
                // Group window: committers that already took a ticket are
                // about to append — yield until they land (bounded) so one
                // flush covers the whole burst instead of racing them to
                // the target lock.
                for _ in 0..GROUP_WINDOW_SPINS {
                    let entered = inner.entered.load(Ordering::Acquire);
                    let appended = inner.state.lock().expect("state lock").appended_seq;
                    if appended >= entered {
                        break;
                    }
                    std::thread::yield_now();
                }
                let fsync_start = self.now();
                // Snapshot the horizon only after winning the target lock:
                // every committer queued ahead of us has appended by then,
                // so this flush covers them all (that queue *is* the
                // group). Lock order target → state, held briefly.
                let (flush, horizon) = {
                    let mut t = inner.target.lock().expect("target lock");
                    let horizon = inner.state.lock().expect("state lock").appended_seq;
                    (t.sync_commit(), horizon)
                };
                let fsync_us = self.elapsed_us(fsync_start);
                st = inner.state.lock().expect("state lock");
                st.syncing = false;
                match flush {
                    Ok(()) => {
                        st.durable_seq = st.durable_seq.max(horizon);
                        let group = horizon - prev_durable;
                        st.last_group = group;
                        let sync_wait_us = self.elapsed_us(wait_start);
                        st.stats.commits += 1;
                        st.stats.fsyncs += 1;
                        st.stats.max_group = st.stats.max_group.max(group);
                        st.stats.sync_wait_us_total += sync_wait_us;
                        st.stats.fsync_us_total += fsync_us;
                        inner.cv.notify_all();
                        return Ok((
                            result,
                            CommitReceipt {
                                seq,
                                group_size: group,
                                leader: true,
                                sync_wait_us,
                                fsync_us,
                            },
                        ));
                    }
                    Err(e) => {
                        st.poisoned = true;
                        inner.cv.notify_all();
                        return Err(e);
                    }
                }
            }
            st = inner.cv.wait(st).expect("state lock");
        }
    }

    /// Aggregate pipeline counters.
    pub fn stats(&self) -> CommitPipelineStats {
        self.inner.state.lock().expect("state lock").stats
    }

    fn now(&self) -> Option<Instant> {
        self.inner.measure_time.then(Instant::now)
    }

    fn elapsed_us(&self, start: Option<Instant>) -> u64 {
        start.map(|s| s.elapsed().as_micros() as u64).unwrap_or(0)
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A commitable that records how many flushes happened and can be
    /// told to fail.
    struct FakeLog {
        appended: u64,
        synced: Arc<AtomicU64>,
        fail: bool,
        sleep_us: u64,
    }

    impl Commitable for FakeLog {
        fn sync_commit(&mut self) -> Result<(), StorageError> {
            if self.fail {
                return Err(StorageError::Io(std::io::Error::other("boom")));
            }
            if self.sleep_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(self.sleep_us));
            }
            self.synced.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    fn fake(sleep_us: u64) -> (CommitPipeline<FakeLog>, Arc<AtomicU64>) {
        let synced = Arc::new(AtomicU64::new(0));
        let pipe = CommitPipeline::new(FakeLog {
            appended: 0,
            synced: Arc::clone(&synced),
            fail: false,
            sleep_us,
        });
        (pipe, synced)
    }

    #[test]
    fn single_commit_is_a_group_of_one() {
        let (pipe, synced) = fake(0);
        let ((), receipt) = pipe
            .commit_with(|l| {
                l.appended += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(receipt.seq, 1);
        assert_eq!(receipt.group_size, 1);
        assert!(receipt.leader);
        assert_eq!(receipt.sync_wait_us, 0, "timing disabled by default");
        assert_eq!(synced.load(Ordering::SeqCst), 1);
        let st = pipe.stats();
        assert_eq!(st.commits, 1);
        assert_eq!(st.fsyncs, 1);
    }

    #[test]
    fn concurrent_commits_share_flushes() {
        const THREADS: usize = 8;
        const COMMITS: usize = 25;
        // A slow device forces groups to form.
        let (pipe, synced) = fake(300);
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let pipe = pipe.clone();
                std::thread::spawn(move || {
                    let mut max_group = 0u64;
                    for _ in 0..COMMITS {
                        let ((), r) = pipe
                            .commit_with(|l| {
                                l.appended += 1;
                                Ok(())
                            })
                            .unwrap();
                        max_group = max_group.max(r.group_size);
                    }
                    max_group
                })
            })
            .collect();
        let max_group = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .max()
            .unwrap();
        let total = (THREADS * COMMITS) as u64;
        let st = pipe.stats();
        assert_eq!(st.commits, total);
        assert_eq!(pipe.with(|l| l.appended), total);
        let fsyncs = synced.load(Ordering::SeqCst);
        assert_eq!(st.fsyncs, fsyncs);
        assert!(
            fsyncs < total,
            "group commit must coalesce flushes ({fsyncs} fsyncs for {total} commits)"
        );
        assert!(max_group > 1, "at least one multi-commit group expected");
        assert_eq!(st.max_group, max_group);
    }

    #[test]
    fn failed_flush_poisons_the_pipeline() {
        let (pipe, _synced) = fake(0);
        pipe.with(|l| l.fail = true);
        let err = pipe.commit_with(|l| {
            l.appended += 1;
            Ok(())
        });
        assert!(err.is_err());
        // Every later commit fails fast, even though the device "works"
        // again — durability of the earlier batch is unknowable.
        pipe.with(|l| l.fail = false);
        assert!(pipe
            .commit_with(|l| {
                l.appended += 1;
                Ok(())
            })
            .is_err());
    }

    #[test]
    fn append_error_does_not_consume_a_sequence() {
        let (pipe, synced) = fake(0);
        let r: Result<((), CommitReceipt), _> =
            pipe.commit_with(|_| Err(StorageError::MissingMedia("nope".into())));
        assert!(r.is_err());
        assert_eq!(
            synced.load(Ordering::SeqCst),
            0,
            "no flush for a failed append"
        );
        let ((), receipt) = pipe
            .commit_with(|l| {
                l.appended += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(receipt.seq, 1);
    }

    #[test]
    fn timing_mode_reports_nonzero_fsync_time() {
        let synced = Arc::new(AtomicU64::new(0));
        let pipe = CommitPipeline::with_timing(FakeLog {
            appended: 0,
            synced,
            fail: false,
            sleep_us: 1500,
        });
        let ((), receipt) = pipe.commit_with(|_| Ok(())).unwrap();
        assert!(receipt.leader);
        assert!(receipt.fsync_us >= 1000, "slept 1.5ms: {receipt:?}");
        assert!(pipe.stats().fsync_us_total >= 1000);
    }
}
