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
//! # Sharding
//!
//! A *logical* node may be backed by several worker threads
//! ([`NetBuilder::add_sharded_node`]), each running its own state
//! machine over a disjoint subset of pubends. Messages addressed to the
//! logical node are routed by [`NetMsg::pubend_key`]: pubend-scoped
//! traffic goes to the shard owning `pubend % n` (so everything for one
//! pubend stays ordered on one thread — each `PubendPipeline` has
//! exactly one owner), client/interest control traffic is broadcast to
//! every shard, and anything else lands on shard 0. Cross-pubend work
//! runs in parallel; per-pubend FIFO order is preserved because
//! the channels are FIFO per producer and a pubend never changes
//! shards.
//!
//! # Observers
//!
//! Each worker embeds its own [`Observers`] — the same owner the
//! simulator embeds (DESIGN.md §9) — behind one lock that the worker
//! takes **once per dispatch** and holds for the whole callback, so a
//! callback's observations cost no further synchronisation. Readers from
//! other threads ([`RunningNet::counter`],
//! [`RunningNet::metrics_snapshot`], the sampler) therefore wait for at
//! most one callback per shard they visit. The watchdogs and the
//! exactly-once ledger see every trace event; no trace records are
//! retained (the ring has capacity zero: this runtime is for throughput,
//! and the flight recorder that prints a ring lives with the simulator).
//!
//! [`RunningNet::start_sampler`] arms telemetry: a background thread
//! that, every interval, publishes each worker's channel occupancy
//! (`telemetry.queue_depth.w<i>`) and busy/idle utilization
//! (`telemetry.worker_utilization.w<i>`), absorbs the workers' shards
//! into its own `Observers` in worker-index order, and closes the window
//! with the simulator's [`Observers::close_window`] — so the
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
use gryphon_sim::telemetry::{Sampler, Timeline};
use gryphon_sim::{
    names, AnyNode, ForensicsConfig, HealthEngine, Lineage, Metrics, Node, NodeCtx, Observers,
    SketchConfig, TimerKey, TraceEvent, TraceRecord,
};
use gryphon_types::{NetMsg, NodeId};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;
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

/// What every thread of a net shares, indexed by worker.
struct Shared {
    senders: Vec<Sender<Ev>>,
    /// For each logical node, the workers backing it.
    logical: Vec<Vec<usize>>,
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

    /// Delivers `msg` to logical node `to` (see the module docs for the
    /// shard-routing policy). `blocking` selects backpressure (harness
    /// injection) vs best-effort (node-to-node sends, where a full
    /// channel behaves like a saturated TCP connection and the
    /// protocols recover via nacks). Returns how many copies a full
    /// channel refused.
    fn deliver(&self, from: NodeId, to: NodeId, msg: NetMsg, blocking: bool) -> usize {
        let Some(workers) = self.logical.get(to.0 as usize) else {
            return 0;
        };
        let n = workers.len();
        let target = if n == 1 {
            Some(workers[0])
        } else {
            match msg.pubend_key() {
                Some(p) => Some(workers[p.0 as usize % n]),
                // Subscription interest and client control traffic is
                // relevant to every shard (each shard matches it against
                // its own pubends); duplicate ConnectOk/Ack handling is
                // idempotent on the client side.
                None => match &msg {
                    NetMsg::Client(_) | NetMsg::SubInterest(_) => None,
                    _ => Some(workers[0]),
                },
            }
        };
        match target {
            Some(w) => self.send_to(w, from, msg, blocking),
            None => workers
                .iter()
                .map(|&w| self.send_to(w, from, msg.clone(), blocking))
                .sum(),
        }
    }

    fn send_to(&self, w: usize, from: NodeId, msg: NetMsg, blocking: bool) -> usize {
        let enq = self.profiling.load(Ordering::Relaxed).then(Instant::now);
        let ev = Ev(from, msg, enq);
        if blocking {
            let _ = self.senders[w].send(ev);
            return 0;
        }
        matches!(self.senders[w].try_send(ev), Err(TrySendError::Full(_))) as usize
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
    logical: Vec<Vec<usize>>,
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node; its logical id is its registration order.
    pub fn add_node<T: Node + 'static>(&mut self, name: &str, node: T) -> Handle<T> {
        self.add_sharded_node(name, vec![node])
    }

    /// Registers a logical node backed by one worker thread per element
    /// of `shards`. Shard `i` owns every pubend with `p.0 % n == i`; see
    /// the module docs for the routing policy. All shards share the one
    /// logical id returned here.
    pub fn add_sharded_node<T: Node + 'static>(&mut self, name: &str, shards: Vec<T>) -> Handle<T> {
        assert!(
            !shards.is_empty(),
            "a sharded node needs at least one shard"
        );
        let n = shards.len();
        let mut workers = Vec::with_capacity(n);
        for (i, node) in shards.into_iter().enumerate() {
            let wname = if n == 1 {
                name.to_owned()
            } else {
                format!("{name}.{i}")
            };
            workers.push(self.workers.len());
            self.workers.push((wname, AnyNode::typed(node)));
        }
        let id = NodeId(self.logical.len() as u32);
        self.logical.push(workers);
        Handle::new(id)
    }

    /// Spawns one thread per worker and starts them (running `on_start`).
    pub fn start(self) -> RunningNet {
        let n = self.workers.len();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| bounded::<Ev>(65_536)).unzip();
        // Worker → logical-id map for event attribution.
        let mut owner = vec![NodeId(0); n];
        for (lid, workers) in self.logical.iter().enumerate() {
            for &w in workers {
                owner[w] = NodeId(lid as u32);
            }
        }
        let shared = Arc::new(Shared {
            senders,
            logical: self.logical,
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
                me: owner[i],
                index: i,
                shared: Arc::clone(&shared),
                timers: BinaryHeap::new(),
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

#[derive(PartialEq, Eq)]
struct TimerEntry {
    deadline: Instant,
    key: TimerKey,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.deadline.cmp(&self.deadline) // min-heap
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Worker {
    /// Logical id of the node this worker backs (shared by all shards).
    me: NodeId,
    /// Worker-thread index: this worker's slot in [`Shared`] and its
    /// forensics track id in exported traces.
    index: usize,
    shared: Arc<Shared>,
    timers: BinaryHeap<TimerEntry>,
    rng: SmallRng,
}

impl Worker {
    fn next_deadline(&self, cap: Duration) -> Duration {
        match self.timers.peek() {
            Some(e) => e
                .deadline
                .saturating_duration_since(Instant::now())
                .min(cap),
            None => cap,
        }
    }

    fn fire_due(&mut self, node: &mut dyn Node) {
        loop {
            let due = matches!(self.timers.peek(),
                Some(e) if e.deadline <= Instant::now());
            if !due {
                break;
            }
            let key = self.timers.pop().expect("peeked").key;
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
        let track = self.index as u32;
        let since_epoch = |t: Instant| t.duration_since(shared.epoch).as_micros() as u64;
        let mut obs = shared.shards[self.index].lock();
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
        let mut new_timers = Vec::new();
        f(
            node,
            &mut ThreadCtx {
                me: self.me,
                track,
                shared,
                rng: &mut self.rng,
                obs: &mut obs,
                new_timers: &mut new_timers,
            },
        );
        if let Some(t0) = started {
            let dt = t0.elapsed();
            shared.active_ns[self.index].fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
            obs.observe(names::TELEMETRY_SERVICE_TIME_US, dt.as_secs_f64() * 1e6);
            obs.interval(BusyInterval {
                track,
                kind: KIND_DISPATCH,
                start_us: since_epoch(t0),
                dur_us: dt.as_micros() as u64,
            });
        }
        drop(obs);
        for (delay, key) in new_timers {
            self.timers.push(TimerEntry {
                deadline: Instant::now() + Duration::from_micros(delay),
                key,
            });
        }
    }
}

/// The context of one dispatch: the worker's state plus its observer
/// stack, already locked.
struct ThreadCtx<'a> {
    me: NodeId,
    track: u32,
    shared: &'a Shared,
    rng: &'a mut SmallRng,
    obs: &'a mut Observers,
    new_timers: &'a mut Vec<(u64, TimerKey)>,
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
        let refused = self.shared.deliver(self.me, to, msg, false);
        if refused > 0 {
            self.obs.count(names::NET_DROPPED, refused as f64);
        }
    }

    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        self.new_timers.push((delay_us, key));
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    fn work(&mut self, _cost_us: u64) {
        // Modeled CPU cost drives the simulator's CPU-idle plots; here
        // the work is real and the clock measures it.
    }

    fn record(&mut self, series: &str, value: f64) {
        self.obs.record(self.shared.now_us(), series, value);
    }

    fn count(&mut self, counter: &str, delta: f64) {
        self.obs.count(counter, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.obs.observe(name, value);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.obs.gauge(name, value);
    }

    fn trace(&mut self, event: TraceEvent) {
        // An armed watchdog panics inside this call, at the point of
        // detection; a ledger violation is counted and surfaces as
        // `NetResult::ledger_violations`.
        self.obs.trace(TraceRecord {
            t_us: self.shared.now_us(),
            node: self.me,
            event,
        });
    }

    fn interval(&mut self, kind: &'static str, dur_us: u64) {
        let now = self.shared.now_us();
        self.obs.interval(BusyInterval {
            track: self.track,
            kind,
            start_us: now.saturating_sub(dur_us),
            dur_us,
        });
    }

    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        self.obs.attribute(dim, entity, weight);
    }
}

/// What the sampler thread owns: the window's owner, into which the
/// worker shards are absorbed, and the sampler and health engine that
/// each window close feeds.
struct Telemetry {
    hub: Observers,
    sampler: Sampler,
    health: HealthEngine,
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
        self.hub
            .close_window(t_us, t_us, &mut self.sampler, Some(&mut self.health));
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
        let arm = |obs: &mut Observers| {
            obs.arm_forensics(&ForensicsConfig::default());
            obs.arm_sketch(SketchConfig::default());
        };
        let mut hub = Observers::new(0);
        arm(&mut hub);
        for shard in &self.shared.shards {
            arm(&mut shard.lock());
        }
        // Counters primed so the `health.alert.*` family is visible even
        // when nothing fires.
        let health = HealthEngine::new(gryphon_sim::default_rules());
        health.prime(hub.metrics_mut());
        self.shared.profiling.store(true, Ordering::Relaxed);
        let state = Arc::new(Mutex::new(Telemetry {
            hub,
            sampler: Sampler::new(interval.as_micros() as u64),
            health,
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
            .map(|t| t.state.lock().sampler.timeline().clone())
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
        let timeline = telemetry.as_ref().map(|state| {
            let mut t = state.lock();
            t.close_window(&self.shared);
            t.sampler.timeline().clone()
        });
        // Lineage shards merge in worker-index order — the same
        // deterministic discipline as the metrics merge, so repeated
        // runs of a deterministic workload produce identical ledgers.
        let mut lineage = Lineage::default();
        for shard in &self.shared.shards {
            lineage.merge(shard.lock().lineage());
        }
        NetResult {
            workers,
            metrics: self.shared.metrics_snapshot(telemetry.as_deref()),
            lineage,
            telemetry: timeline,
            shared: Arc::clone(&self.shared),
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
    shared: Arc<Shared>,
}

impl NetResult {
    /// Borrows a node's final state (shard 0 for sharded nodes).
    ///
    /// # Panics
    ///
    /// Panics on a type mismatch (impossible for handles from the same
    /// builder).
    pub fn node<T: Node + 'static>(&self, h: Handle<T>) -> &T {
        self.shard(h, 0)
    }

    /// Borrows one shard of a sharded node's final state.
    ///
    /// # Panics
    ///
    /// Panics on a type mismatch or an out-of-range shard index.
    pub fn shard<T: Node + 'static>(&self, h: Handle<T>, shard: usize) -> &T {
        let worker = self.shared.logical[h.id().0 as usize][shard];
        self.workers[worker].downcast_ref()
    }

    /// Number of worker shards backing logical node `h`.
    pub fn shard_count<T>(&self, h: Handle<T>) -> usize {
        self.shared.logical[h.id().0 as usize].len()
    }

    /// Total protocol-watchdog violations across all workers (gap-free
    /// constream, monotone doubt, only-once logging).
    pub fn watchdog_violations(&self) -> f64 {
        self.metrics.counter(names::WATCHDOG_CONSTREAM_GAP)
            + self.metrics.counter(names::WATCHDOG_DOUBT_REGRESSION)
            + self.metrics.counter(names::WATCHDOG_DUPLICATE_LOG)
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
    use gryphon_types::{InterestChange, PubendId, PublishMsg, SubInterestMsg};

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

    fn publish(p: u32) -> NetMsg {
        NetMsg::Publish(PublishMsg {
            pubend: PubendId(p),
            attrs: Default::default(),
            payload: Default::default(),
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

    #[test]
    fn sharded_node_routes_by_pubend_and_broadcasts_control() {
        let mut b = NetBuilder::new();
        let shards: Vec<Echo> = (0..4)
            .map(|_| Echo {
                got: 0,
                timer_fired: false,
            })
            .collect();
        let h = b.add_sharded_node("shards", shards);
        let net = b.start();
        // 8 pubends × 3 messages: pubend p lands on shard p % 4.
        for p in 0..8u32 {
            for _ in 0..3 {
                net.inject(h.id(), publish(p));
            }
        }
        // Unkeyed control traffic is broadcast to every shard.
        net.inject(h.id(), dummy());
        net.run_for(Duration::from_millis(80));
        let result = net.stop();
        assert_eq!(result.shard_count(h), 4);
        for s in 0..4 {
            // Two pubends × 3 each + 1 broadcast control message.
            assert_eq!(result.shard(h, s).got, 7, "shard {s}");
        }
        // Per-worker metrics merged on stop: 4 shards × 7 messages.
        assert_eq!(result.metrics.counter("echo.got"), 28.0);
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
