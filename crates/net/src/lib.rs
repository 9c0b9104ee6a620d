//! Threaded runtime for Gryphon nodes.
//!
//! The same [`Node`] state machines that run under the
//! deterministic simulator run here on **real OS threads** connected by
//! bounded std `mpsc` channels (the in-tree `crossbeam` facade adds the
//! bound), with wall-clock timers. The repo's end-to-end
//! benchmark (`benchmark/`) and the wall-clock integration tests use
//! this runtime; the figure reproductions use the simulator
//! (deterministic virtual time).
//!
//! Differences from the simulator, by design:
//!
//! * links deliver immediately (no modeled latency — thread scheduling
//!   provides real, not modeled, delays), so use this runtime for
//!   *throughput*, not latency shapes;
//! * there is no crash injection;
//! * determinism is not guaranteed.
//!
//! # One node per worker
//!
//! Each registered node runs on a worker thread of its own, with its own
//! bounded inbox, so a node's messages are handled in the FIFO order each
//! producer sent them. A node's [`NodeId`] is its registration order and
//! indexes its worker directly; a send to an id no worker backs is
//! dropped, as a message to a departed peer would be.
//!
//! # Timers
//!
//! A worker keeps its node's timers in the simulator's queue, a
//! [`gryphon_sim::Agenda`], due in microseconds since the net's epoch:
//! [`NodeCtx::set_timer`] pushes at call time, and timers due at the same
//! microsecond fire in the order they were set, as under the simulator.
//! Between messages the worker sleeps until the earliest timer is due
//! (at most 20 ms).
//!
//! # Observers
//!
//! Each worker embeds its own [`Observers`] — the same owner the
//! simulator embeds (DESIGN.md §9) — behind one lock that the worker
//! takes **once per dispatch** and holds for the whole callback, so a
//! callback's observations cost no further synchronisation. The
//! dispatch context hands the locked owner out through
//! [`NodeCtx::observers`]; the trait's provided methods do the rest.
//! Readers from other threads ([`RunningNet::counter`],
//! [`RunningNet::metrics_snapshot`], the sampler) therefore wait for at
//! most one callback per worker they visit. The correctness oracle (the
//! exactly-once ledger and the protocol watchdogs) judges every trace
//! event and only counts, in every build: a violation of either kind
//! never stops a worker and surfaces as
//! [`NetResult::watchdog_violations`] or
//! [`NetResult::ledger_violations`]. No trace records are retained (the
//! ring has capacity zero: this runtime is for throughput, and the flight
//! recorder that prints a ring lives with the simulator).
//!
//! [`RunningNet::start_sampler`] arms telemetry: a background thread
//! whose own `Observers` opens its windows with the simulator's
//! [`Observers::arm_windows`] and that, every interval, publishes each
//! worker's channel occupancy (`telemetry.queue_depth.w<i>`) and
//! busy/idle utilization (`telemetry.worker_utilization.w<i>`), absorbs
//! the workers' shards in worker-index order, and closes the window with
//! the simulator's [`Observers::close_window`] — so the
//! [`Timeline`] behind [`RunningNet::telemetry`] and
//! [`NetResult::telemetry`] carries the same streams, alerts included,
//! as a simulator bundle. Arming also turns on tail forensics, the
//! population sketch and per-dispatch timing
//! (`telemetry.service_time_us`, `net.queue_wait_us`) on every worker;
//! until then a dispatch reads no clock and nothing runs per window.
//! [`RunningNet::stop`] closes one last window. Without a sampler there
//! is no window to close, and what the sketch collected is dropped.
//! [`RunningNet::metrics_snapshot`] reads the merged metrics mid-run.
//!
//! # Examples
//!
//! ```
//! use gryphon_net::NetBuilder;
//! use gryphon_sim::{Node, NodeCtx, TimerKey};
//! use gryphon_types::{InterestChange, NetMsg, NodeId, SubInterestMsg};
//!
//! struct Counter(u64);
//! impl Node for Counter {
//!     fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) { self.0 += 1; }
//!     fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
//! }
//!
//! let mut net = NetBuilder::new();
//! let h = net.add_node("counter", Counter(0));
//! let running = net.start();
//! for _ in 0..10 {
//!     running.inject(h.id(), NetMsg::SubInterest(SubInterestMsg { version: 0, change: InterestChange::Snapshot(vec![]) }));
//! }
//! running.run_for(std::time::Duration::from_millis(50));
//! let result = running.stop();
//! assert_eq!(result.node::<Counter>(h).0, 10);
//! ```

use crossbeam::channel::{bounded, Sender, TrySendError};
use gryphon_sim::forensics::{BusyInterval, KIND_DISPATCH, KIND_QUEUE};
use gryphon_sim::telemetry::Timeline;
use gryphon_sim::{names, Agenda, AnyNode, Lineage, Metrics, Node, NodeCtx, Observers, TimerKey};
use gryphon_types::{NetMsg, NodeId};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use gryphon_sim::Handle;

/// Storage profile for threaded-runtime processes: real files — and real
/// fsyncs through the commit pipeline — when `GRYPHON_STORAGE_DIR`
/// is set, heap-backed media otherwise.
///
/// The simulator always builds its brokers on
/// [`MemFactory`](gryphon_storage::MemFactory) (deterministic, modeled
/// latency); the threaded runtime is where the durability engine meets an
/// actual device. Benches and integration runs opt in by exporting
/// `GRYPHON_STORAGE_DIR=/path/to/dir`; each call gets its own `tag`
/// subdirectory under that root so concurrent nodes never share a
/// namespace.
pub fn storage_factory(tag: &str) -> Box<dyn gryphon_storage::MediaFactory> {
    match std::env::var_os("GRYPHON_STORAGE_DIR") {
        Some(root) => {
            let dir = std::path::Path::new(&root).join(tag);
            std::fs::create_dir_all(&dir).expect("GRYPHON_STORAGE_DIR must be writable");
            Box::new(gryphon_storage::FileFactory::new(dir).expect("storage dir must open"))
        }
        None => Box::new(gryphon_storage::MemFactory::new()),
    }
}

/// A message plus its enqueue instant (stamped only while telemetry is
/// armed, so the un-profiled hot path never reads the clock) — the
/// dequeuing worker turns the stamp into `net.queue_wait_us` and a
/// `queue` interval on its forensics track.
struct Ev(NodeId, NetMsg, Option<Instant>);

/// What every thread of a net shares, indexed by worker (= node id).
struct Shared {
    senders: Vec<Sender<Ev>>,
    /// Each worker's observer stack. The worker holds its lock for the
    /// length of a dispatch; everyone else visits briefly.
    shards: Vec<Mutex<Observers>>,
    /// Wall-clock nanoseconds each worker has spent inside node
    /// callbacks (the sampler derives utilization from the deltas).
    active_ns: Vec<AtomicU64>,
    /// Wall-clock zero; every timestamp is microseconds since it.
    epoch: Instant,
    /// Set once [`RunningNet::start_sampler`] arms telemetry; gates the
    /// enqueue stamps and the per-dispatch clock reads.
    profiling: AtomicBool,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Delivers `msg` to node `to`; an id no worker backs drops it.
    /// `blocking` selects backpressure (harness injection) vs best-effort
    /// (node-to-node sends, where a full channel behaves like a
    /// saturated TCP connection and the protocols recover via nacks).
    /// Returns whether a full channel refused the message.
    fn deliver(&self, from: NodeId, to: NodeId, msg: NetMsg, blocking: bool) -> bool {
        let Some(tx) = self.senders.get(to.0 as usize) else {
            return false;
        };
        let enq = self.profiling.load(Ordering::Relaxed).then(Instant::now);
        let ev = Ev(from, msg, enq);
        if blocking {
            let _ = tx.send(ev);
            return false;
        }
        matches!(tx.try_send(ev), Err(TrySendError::Full(_)))
    }

    /// Merges the worker shards' metrics — and the sampler's own, when
    /// one is armed — into one consistent snapshot.
    ///
    /// * shards are merged **in worker-index order**: counters and
    ///   histograms sum, series concatenate, same-named gauges add;
    /// * each shard's lock is held only while that shard is copied, so a
    ///   snapshot is per-shard-atomic: it never tears an individual
    ///   counter, but shards are copied at slightly different instants
    ///   (unavoidable without a stop-the-world pause, and fine for
    ///   monotone counters), each after the callback its worker was in;
    /// * the sampler's shard merges **last**, and the momentary
    ///   queue-depth gauges are re-probed and overwritten after the
    ///   merge, so gauges reflect "now", not the sampler's last window.
    fn metrics_snapshot(&self, telemetry: Option<&Mutex<Telemetry>>) -> Metrics {
        let mut merged = Metrics::default();
        for shard in &self.shards {
            merged.merge(shard.lock().metrics());
        }
        if let Some(t) = telemetry {
            merged.merge(t.lock().hub.metrics());
        }
        let mut total = 0usize;
        for (i, tx) in self.senders.iter().enumerate() {
            let depth = tx.len();
            total += depth;
            merged.set_gauge(
                &format!("{}.w{i}", names::TELEMETRY_QUEUE_DEPTH),
                depth as f64,
            );
        }
        // set_gauge (not merge-add) so the aggregate overwrites whatever
        // stale sum the per-shard merge produced.
        merged.set_gauge(names::TELEMETRY_QUEUE_DEPTH, total as f64);
        merged
    }
}

/// Builder: register nodes, then [`NetBuilder::start`].
#[derive(Default)]
pub struct NetBuilder {
    workers: Vec<(String, AnyNode)>,
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node; its id is its registration order.
    pub fn add_node<T: Node + 'static>(&mut self, name: &str, node: T) -> Handle<T> {
        let id = NodeId(self.workers.len() as u32);
        self.workers.push((name.to_owned(), AnyNode::typed(node)));
        Handle::new(id)
    }

    /// Spawns one thread per node and starts them (running `on_start`).
    pub fn start(self) -> RunningNet {
        let n = self.workers.len();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| bounded::<Ev>(65_536)).unzip();
        let shared = Arc::new(Shared {
            senders,
            // Capacity zero: this runtime retains no trace records.
            shards: (0..n).map(|_| Mutex::new(Observers::new(0))).collect(),
            active_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            profiling: AtomicBool::new(false),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::with_capacity(n);
        for (i, ((name, mut node), rx)) in self.workers.into_iter().zip(receivers).enumerate() {
            let stop = Arc::clone(&stop);
            let mut worker = Worker {
                me: NodeId(i as u32),
                shared: Arc::clone(&shared),
                timers: Agenda::new(),
                rng: SmallRng::seed_from_u64(i as u64),
            };
            joins.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        worker.dispatch(None, node.as_dyn(), |node, ctx| node.on_start(ctx));
                        while !stop.load(Ordering::Relaxed) {
                            let timeout = worker.next_deadline(Duration::from_millis(20));
                            match rx.recv_timeout(timeout) {
                                Ok(Ev(from, msg, enq)) => {
                                    worker.dispatch(enq, node.as_dyn(), |node, ctx| {
                                        node.on_message(from, msg, ctx)
                                    });
                                }
                                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                            }
                            worker.fire_due(node.as_dyn());
                        }
                        node
                    })
                    .expect("spawn node thread"),
            );
        }
        RunningNet {
            shared,
            stop,
            joins,
            telemetry: None,
        }
    }
}

struct Worker {
    /// The node this worker backs: its slot in [`Shared`] and its
    /// forensics track id in exported traces.
    me: NodeId,
    shared: Arc<Shared>,
    /// The node's timers, due in µs since the net's epoch.
    timers: Agenda<TimerKey>,
    rng: SmallRng,
}

impl Worker {
    fn next_deadline(&self, cap: Duration) -> Duration {
        match self.timers.peek_time() {
            Some(at) => Duration::from_micros(at.saturating_sub(self.shared.now_us())).min(cap),
            None => cap,
        }
    }

    fn fire_due(&mut self, node: &mut dyn Node) {
        while self
            .timers
            .peek_time()
            .is_some_and(|at| at <= self.shared.now_us())
        {
            let Some((_, key)) = self.timers.pop() else {
                break;
            };
            self.dispatch(None, node, |n, ctx| n.on_timer(key, ctx));
        }
    }

    /// Runs one node callback under this worker's observer lock, taken
    /// here once and held until the callback returns. While telemetry is
    /// armed the dispatch is also timed: `enq` (a message's enqueue
    /// stamp) becomes `net.queue_wait_us` plus a `queue` interval, the
    /// callback itself `telemetry.service_time_us` plus a `dispatch`
    /// interval on this worker's forensics track.
    fn dispatch(
        &mut self,
        enq: Option<Instant>,
        node: &mut dyn Node,
        f: impl FnOnce(&mut dyn Node, &mut dyn NodeCtx),
    ) {
        let shared = &*self.shared;
        let index = self.me.0 as usize;
        let track = self.me.0;
        let since_epoch = |t: Instant| t.duration_since(shared.epoch).as_micros() as u64;
        let mut obs = shared.shards[index].lock();
        if let Some(t0) = enq {
            let wait = t0.elapsed();
            obs.observe(names::NET_QUEUE_WAIT_US, wait.as_secs_f64() * 1e6);
            obs.interval(BusyInterval {
                track,
                kind: KIND_QUEUE,
                start_us: since_epoch(t0),
                dur_us: wait.as_micros() as u64,
            });
        }
        // An `Instant::now()` pair per dispatch is cheap but not free, so
        // the un-sampled hot path skips it entirely.
        let started = shared.profiling.load(Ordering::Relaxed).then(Instant::now);
        f(
            node,
            &mut ThreadCtx {
                me: self.me,
                shared,
                timers: &mut self.timers,
                rng: &mut self.rng,
                obs: &mut obs,
            },
        );
        if let Some(t0) = started {
            let dt = t0.elapsed();
            shared.active_ns[index].fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
            obs.observe(names::TELEMETRY_SERVICE_TIME_US, dt.as_secs_f64() * 1e6);
            obs.interval(BusyInterval {
                track,
                kind: KIND_DISPATCH,
                start_us: since_epoch(t0),
                dur_us: dt.as_micros() as u64,
            });
        }
    }
}

/// The context of one dispatch: the worker's state plus its observer
/// stack, already locked.
struct ThreadCtx<'a> {
    me: NodeId,
    shared: &'a Shared,
    timers: &'a mut Agenda<TimerKey>,
    rng: &'a mut SmallRng,
    obs: &'a mut Observers,
}

impl NodeCtx for ThreadCtx<'_> {
    fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    fn me(&self) -> NodeId {
        self.me
    }

    fn send(&mut self, to: NodeId, msg: NetMsg) {
        // Best-effort: a full channel drops the message, like a
        // saturated TCP connection with a dead reader; the protocols
        // recover via nacks. Counted, so overload is never silent.
        if self.shared.deliver(self.me, to, msg, false) {
            self.obs.count(names::NET_DROPPED, 1.0);
        }
    }

    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        self.timers.push(self.shared.now_us() + delay_us, key);
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn work(&mut self, _cost_us: u64) {
        // Modeled CPU cost drives the simulator's CPU-idle plots; here
        // the work is real and the clock measures it.
    }

    /// The oracle's violations are counted, never raised (crate docs).
    fn observers(&mut self) -> Option<&mut Observers> {
        Some(self.obs)
    }
}

/// What the sampler thread owns: the windows' owner, into which the
/// worker shards are absorbed.
struct Telemetry {
    hub: Observers,
    /// Per-worker `active_ns` and the wall clock at the last close.
    last_active: Vec<u64>,
    last_wall: Instant,
}

impl Telemetry {
    /// Closes the window ending now: publishes the runtime gauges only
    /// this runtime has, absorbs the worker shards, and hands over to
    /// the close both runtimes share.
    fn close_window(&mut self, shared: &Shared) {
        let now = Instant::now();
        let window_ns = now.duration_since(self.last_wall).as_nanos() as u64;
        self.last_wall = now;
        for (i, tx) in shared.senders.iter().enumerate() {
            self.hub.gauge(
                &format!("{}.w{i}", names::TELEMETRY_QUEUE_DEPTH),
                tx.len() as f64,
            );
        }
        for (i, a) in shared.active_ns.iter().enumerate() {
            let cur = a.load(Ordering::Relaxed);
            let busy = cur.saturating_sub(self.last_active[i]);
            self.last_active[i] = cur;
            let util = if window_ns > 0 {
                (busy as f64 / window_ns as f64).min(1.0)
            } else {
                0.0
            };
            self.hub.gauge(
                &format!("{}.w{i}", names::TELEMETRY_WORKER_UTILIZATION),
                util,
            );
        }
        self.hub
            .absorb(shared.shards.len(), |i| shared.shards[i].lock());
        let t_us = shared.now_us();
        self.hub.close_window(t_us, t_us);
    }
}

/// The background thread started by [`RunningNet::start_sampler`].
struct SamplerThread {
    state: Arc<Mutex<Telemetry>>,
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<()>,
}

/// A started network; inject messages, then [`RunningNet::stop`].
pub struct RunningNet {
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    joins: Vec<std::thread::JoinHandle<AnyNode>>,
    telemetry: Option<SamplerThread>,
}

impl RunningNet {
    /// Injects a message from the harness (sender =
    /// [`gryphon_sim::CONTROL_NODE`]), with backpressure.
    pub fn inject(&self, to: NodeId, msg: NetMsg) {
        self.shared
            .deliver(gryphon_sim::CONTROL_NODE, to, msg, true);
    }

    /// Lets the network run for `d` wall-clock time.
    pub fn run_for(&self, d: Duration) {
        std::thread::sleep(d);
    }

    /// Live value of counter `name`, summed across worker shards —
    /// lets harnesses poll for progress without stopping the net. Waits,
    /// per shard, for at most the callback its worker is in.
    pub fn counter(&self, name: &str) -> f64 {
        self.shared
            .shards
            .iter()
            .map(|s| s.lock().metrics().counter(name))
            .sum()
    }

    /// A consistent mid-run snapshot of all metric kinds (counters,
    /// gauges, histograms, series) merged across every worker shard —
    /// see `Shared::metrics_snapshot` for the exact semantics. Safe to
    /// call at any point.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.shared
            .metrics_snapshot(self.telemetry.as_ref().map(|t| &*t.state))
    }

    /// Arms telemetry (see the module docs) and spawns the sampler
    /// thread, which closes a window every `interval`, judged by the
    /// default health rules. Idempotent: a second call is a no-op.
    pub fn start_sampler(&mut self, interval: Duration) {
        if self.telemetry.is_some() {
            return;
        }
        let interval = interval.max(Duration::from_micros(1));
        let mut hub = Observers::new(0);
        hub.arm_windows(interval.as_micros() as u64);
        for shard in &self.shared.shards {
            shard.lock().arm();
        }
        self.shared.profiling.store(true, Ordering::Relaxed);
        let state = Arc::new(Mutex::new(Telemetry {
            hub,
            last_active: vec![0; self.shared.shards.len()],
            last_wall: Instant::now(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let (thread_state, thread_stop) = (Arc::clone(&state), Arc::clone(&stop));
        let shared = Arc::clone(&self.shared);
        let join = std::thread::Builder::new()
            .name("telemetry-sampler".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                if thread_stop.load(Ordering::Relaxed) {
                    break;
                }
                thread_state.lock().close_window(&shared);
            })
            .expect("spawn telemetry sampler");
        self.telemetry = Some(SamplerThread { state, stop, join });
    }

    /// The telemetry timeline collected so far (a clone; `None` until
    /// [`RunningNet::start_sampler`] has been called).
    pub fn telemetry(&self) -> Option<Timeline> {
        self.telemetry
            .as_ref()
            .and_then(|t| t.state.lock().hub.timeline().cloned())
    }

    /// Stops all node threads and returns their final states. When a
    /// sampler ran, one last window is closed over what the workers
    /// collected after the sampler's final tick.
    pub fn stop(mut self) -> NetResult {
        // The sampler goes down first so it never observes a
        // half-stopped net.
        let telemetry = self.telemetry.take().map(|t| {
            t.stop.store(true, Ordering::Relaxed);
            let _ = t.join.join();
            t.state
        });
        self.stop.store(true, Ordering::Relaxed);
        let workers: Vec<AnyNode> = self
            .joins
            .drain(..)
            .map(|j| j.join().expect("node thread"))
            .collect();
        let timeline = telemetry.as_ref().and_then(|state| {
            let mut t = state.lock();
            t.close_window(&self.shared);
            t.hub.take_timeline()
        });
        // Lineage shards merge in worker-index order — the same
        // deterministic discipline as the metrics merge, so repeated
        // runs of a deterministic workload produce identical ledgers.
        // The workers are gone: each ledger moves out of its shard, so
        // the spans are never held twice.
        let mut lineage = Lineage::default();
        for shard in &self.shared.shards {
            lineage.merge(std::mem::take(shard.lock().lineage_mut()));
        }
        NetResult {
            workers,
            metrics: self.shared.metrics_snapshot(telemetry.as_deref()),
            lineage,
            telemetry: timeline,
        }
    }
}

/// Final node states and metrics after [`RunningNet::stop`].
pub struct NetResult {
    workers: Vec<AnyNode>,
    /// Per-worker metrics merged into one run-wide view.
    pub metrics: Metrics,
    /// Per-worker delivery-lineage shards merged into one run-wide
    /// ledger (worker-index order; see [`RunningNet::stop`]).
    pub lineage: Lineage,
    /// Wall-clock telemetry timeline, present when
    /// [`RunningNet::start_sampler`] ran during the net's lifetime.
    pub telemetry: Option<Timeline>,
}

impl NetResult {
    /// Borrows a node's final state.
    ///
    /// # Panics
    ///
    /// Panics on a type mismatch (impossible for handles from the same
    /// builder).
    pub fn node<T: Node + 'static>(&self, h: Handle<T>) -> &T {
        self.workers[h.id().0 as usize].downcast_ref()
    }

    /// Total protocol-watchdog violations across all workers (gap-free
    /// constream, monotone doubt, only-once logging).
    pub fn watchdog_violations(&self) -> f64 {
        self.lineage.watchdog_violations() as f64
    }

    /// Exactly-once violations the merged delivery ledger flagged across
    /// all workers.
    pub fn ledger_violations(&self) -> u64 {
        self.lineage.violations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_types::{InterestChange, SubInterestMsg};

    struct Echo {
        got: u64,
        timer_fired: bool,
    }

    impl Node for Echo {
        fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
            ctx.set_timer(5_000, TimerKey(1));
        }
        fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
            self.got += 1;
            ctx.count("echo.got", 1.0);
            if from != gryphon_sim::CONTROL_NODE {
                ctx.send(from, msg);
            }
        }
        fn on_timer(&mut self, _: TimerKey, ctx: &mut dyn NodeCtx) {
            self.timer_fired = true;
            ctx.record("echo.timer", 1.0);
        }
    }

    fn dummy() -> NetMsg {
        NetMsg::SubInterest(SubInterestMsg {
            version: 0,
            change: InterestChange::Snapshot(vec![]),
        })
    }

    #[test]
    fn messages_flow_between_threads() {
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let c = b.add_node(
            "c",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let net = b.start();
        for _ in 0..100 {
            net.inject(a.id(), dummy());
        }
        net.run_for(Duration::from_millis(50));
        let result = net.stop();
        assert_eq!(result.node(a).got, 100);
        assert_eq!(result.node(c).got, 0);
        assert_eq!(result.metrics.counter("echo.got"), 100.0);
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let net = b.start();
        net.run_for(Duration::from_millis(50));
        let result = net.stop();
        assert!(result.node(a).timer_fired, "5 ms timer within 50 ms run");
        assert_eq!(result.metrics.series("echo.timer").len(), 1);
    }

    /// Sets five zero-delay timers, then a 2 ms one, in one callback.
    struct Arming {
        fired: Vec<u64>,
    }

    impl Node for Arming {
        fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
            for k in 1..=5 {
                ctx.set_timer(0, TimerKey(k));
            }
            ctx.set_timer(2_000, TimerKey(6));
        }
        fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) {}
        fn on_timer(&mut self, key: TimerKey, _: &mut dyn NodeCtx) {
            self.fired.push(key.0);
        }
    }

    #[test]
    fn timers_fire_in_arming_order_with_ties_first_in_first_out() {
        let mut b = NetBuilder::new();
        let a = b.add_node("a", Arming { fired: Vec::new() });
        let net = b.start();
        net.run_for(Duration::from_millis(50));
        let result = net.stop();
        assert_eq!(result.node(a).fired, vec![1, 2, 3, 4, 5, 6]);
    }

    /// Forwards every message it gets to a node id no worker backs.
    struct Stray;

    impl Node for Stray {
        fn on_message(&mut self, _: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
            ctx.count("stray.got", 1.0);
            ctx.send(NodeId(99), msg);
        }
        fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
    }

    #[test]
    fn send_to_unbacked_id_is_dropped_and_stop_is_clean() {
        let mut b = NetBuilder::new();
        let a = b.add_node("stray", Stray);
        let net = b.start();
        for _ in 0..10 {
            net.inject(a.id(), dummy());
        }
        // Injection to an unbacked id is dropped the same way.
        net.inject(NodeId(99), dummy());
        net.run_for(Duration::from_millis(50));
        let result = net.stop();
        assert_eq!(result.metrics.counter("stray.got"), 10.0);
        // Dropped for want of a receiver, not refused by a full channel.
        assert_eq!(result.metrics.counter(names::NET_DROPPED), 0.0);
        assert_eq!(result.watchdog_violations(), 0.0);
    }

    #[test]
    fn sampler_collects_runtime_health_series() {
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let mut net = b.start();
        net.start_sampler(Duration::from_millis(5));
        for _ in 0..200 {
            net.inject(a.id(), dummy());
        }
        net.run_for(Duration::from_millis(60));
        // Live timeline is readable mid-run...
        let live = net.telemetry().expect("sampler armed");
        assert!(!live.is_empty(), "sampler took at least one window");
        let result = net.stop();
        // ...and the final timeline rides out on the NetResult.
        let t = result.telemetry.expect("telemetry present after stop");
        for series in [
            "telemetry.queue_depth",
            "telemetry.queue_depth.w0",
            "telemetry.worker_utilization.w0",
            "echo.got.rate",
        ] {
            assert!(
                !t.series(series).is_empty(),
                "series {series} missing; have {:?}",
                t.series_names()
            );
        }
        // Arming telemetry turns on the per-dispatch service-time
        // histogram on every worker.
        assert!(result
            .metrics
            .histogram_names()
            .contains(&names::TELEMETRY_SERVICE_TIME_US));
    }

    #[test]
    fn metrics_snapshot_is_consistent_mid_run() {
        let mut b = NetBuilder::new();
        let a = b.add_node(
            "a",
            Echo {
                got: 0,
                timer_fired: false,
            },
        );
        let net = b.start();
        for _ in 0..50 {
            net.inject(a.id(), dummy());
        }
        net.run_for(Duration::from_millis(50));
        let snap = net.metrics_snapshot();
        // All three metric kinds come back in one consistent view:
        // counters from the worker shard, plus freshly probed
        // queue-depth gauges (drained by now, so zero).
        assert_eq!(snap.counter("echo.got"), 50.0);
        assert_eq!(snap.gauge("telemetry.queue_depth"), Some(0.0));
        assert_eq!(snap.gauge("telemetry.queue_depth.w0"), Some(0.0));
        net.stop();
    }
}
