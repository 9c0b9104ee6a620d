//! What the benchmark asks of the scheduler: where the threads run, and
//! whether the virtual CPUs may halt. Evidence for each choice is in
//! `README.md` ("What this box forced").
//!
//! **Placement.** Left to the kernel, the runtime's four threads on two
//! cores land in one of several arrangements, and which one changes what
//! an event costs: eight unpinned runs of `fanout` fell into two groups,
//! 132–141 and 160–190 µs of broker CPU per event. So every thread is
//! pinned. During set-up and the latency phase the system under test
//! (`phb`, `shb`) has one core and the generator (`pool`, driver) the
//! other. During the CPU phase all four share the brokers' core: no
//! cross-core wake-ups, no inter-processor interrupts, one cache — the
//! steadiest arrangement found (and a quarter cheaper per event).
//!
//! **Keep-awake.** On the Firecracker box this benchmark is gated on, a
//! halted vCPU takes 250–500 µs to wake, and the figure drifts from run
//! to run. At a third of a core the runtime threads halt their vCPUs
//! thousands of times a second, so every hop and every batching timer
//! pays that wake-up and the latency measures the hypervisor. During
//! the latency phase one `SCHED_IDLE` thread per used core sits in a
//! `PAUSE` loop — the guest-side equivalent of `idle=poll`. The idle
//! class runs only when nothing else is runnable, so the threads take no
//! CPU from the program. They do make its CPU time noisier (the vCPUs
//! look busy to the host), which is why the CPU metrics come from a
//! phase of their own, without them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

const SCHED_IDLE: i32 = 5;
/// Width of the affinity masks passed to the kernel, in 64-bit words.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
}

/// The cores the benchmark uses: the first for the system under test,
/// the second (the same one on a single-core box) for the generator
/// outside the CPU phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cores {
    /// Core of the `phb` and `shb` threads.
    pub brokers: usize,
    /// Core of the `pool` thread and the driver.
    pub generator: usize,
}

impl Cores {
    /// The first two cores this process may run on; `None` if the
    /// kernel will not say.
    pub fn pick() -> Option<Self> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: plain libc call on this process (pid 0) with a pointer
        // to `size_of_val(&mask)` writable bytes.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let mut allowed = (0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1);
        let brokers = allowed.next()?;
        Some(Cores {
            brokers,
            generator: allowed.next().unwrap_or(brokers),
        })
    }

    fn distinct(&self) -> Vec<usize> {
        let mut v = vec![self.brokers, self.generator];
        v.dedup();
        v
    }
}

/// Pins thread `tid` (0 = the calling thread) to `core`; `false` if the
/// kernel refuses.
pub fn pin(tid: i32, core: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] = 1 << (core % 64);
    // SAFETY: plain libc call with a pointer to `size_of_val(&mask)`
    // readable bytes.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The calling thread pinned to a core; its previous affinity comes
/// back on drop, so that processes the thread starts later are not born
/// confined to one core.
pub struct PinnedThread {
    before: Option<[u64; MASK_WORDS]>,
}

impl PinnedThread {
    /// Pins the calling thread to `core`.
    pub fn to(core: usize) -> Self {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: as in `Cores::pick`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let before = (rc == 0 && pin(0, core)).then_some(mask);
        PinnedThread { before }
    }

    /// Whether the kernel accepted the pin.
    pub fn pinned(&self) -> bool {
        self.before.is_some()
    }
}

impl Drop for PinnedThread {
    fn drop(&mut self) {
        if let Some(mask) = self.before {
            // SAFETY: as in `pin`. A refusal leaves the thread pinned.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        }
    }
}

/// Running keep-awake threads; stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<bool>>,
}

impl KeepAwake {
    /// One idle-class spinner pinned to each core of `cores`.
    pub fn start(cores: Cores) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cores
            .distinct()
            .into_iter()
            .map(|core| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("keepawake".into())
                    .spawn(move || {
                        let param = SchedParam { sched_priority: 0 };
                        // SAFETY: plain libc call on the calling thread
                        // (pid 0) with a pointer to a live, correctly
                        // laid out `sched_param`.
                        if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                            // Spinning at normal priority would take CPU
                            // from the program: do nothing instead.
                            return false;
                        }
                        pin(0, core);
                        // `Relaxed`: the flag publishes no other data.
                        while !stop.load(Ordering::Relaxed) {
                            for _ in 0..256 {
                                std::hint::spin_loop();
                            }
                        }
                        true
                    })
                    .expect("spawn keep-awake thread")
            })
            .collect();
        KeepAwake { stop, threads }
    }

    /// Stops the threads; `true` if every one ran in the idle class.
    pub fn finish(mut self) -> bool {
        self.join()
    }

    fn join(&mut self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        // Join every thread before looking at the answers.
        let idle: Vec<bool> = self
            .threads
            .drain(..)
            .map(|t| t.join().unwrap_or(false))
            .collect();
        idle.iter().all(|&ok| ok)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.join();
    }
}
