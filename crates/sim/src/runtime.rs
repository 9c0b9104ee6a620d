//! The discrete-event scheduler, links, timers and fault injection.

use crate::forensics::{BusyInterval, ForensicsConfig, KIND_BUSY};
use crate::health::{HealthEngine, HealthRule};
use crate::lineage::{LedgerAudit, Lineage};
use crate::observers::{Observers, Oracle};
use crate::sketch::SketchConfig;
use crate::telemetry::{Sampler, Timeline};
use crate::trace::{TraceEvent, TraceRecord, DEFAULT_TRACE_CAPACITY};
use crate::{Metrics, MetricsSnapshot};
use gryphon_types::{NetMsg, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::TypeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Sender id used for messages injected by the harness (not a real node).
pub const CONTROL_NODE: NodeId = NodeId(u32::MAX);

/// Opaque timer identifier chosen by the node that sets it.
///
/// Timers cannot be cancelled; nodes ignore stale keys instead (the usual
/// state-machine idiom — a timer's meaning is checked against current
/// state when it fires).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerKey(pub u64);

/// Context handed to a node during a callback.
///
/// Everything a node can do to the outside world goes through this trait,
/// which is what lets identical broker code run under the deterministic
/// simulator and the threaded runtime.
pub trait NodeCtx {
    /// Current virtual (or wall) time in microseconds.
    fn now_us(&self) -> u64;
    /// This node's id.
    fn me(&self) -> NodeId;
    /// Sends `msg` to `to` over the configured link (silently dropped if
    /// no link exists — mirrors a closed TCP connection).
    fn send(&mut self, to: NodeId, msg: NetMsg);
    /// Fires [`Node::on_timer`] with `key` after `delay_us`.
    fn set_timer(&mut self, delay_us: u64, key: TimerKey);
    /// Deterministic per-run RNG.
    fn rng(&mut self) -> &mut SmallRng;
    /// Accounts `cost_us` of CPU work to this node (drives the paper's
    /// CPU-idle plots; does not delay message processing).
    fn work(&mut self, cost_us: u64);
    /// Appends a sample to a metrics series at the current time.
    fn record(&mut self, series: &str, value: f64);
    /// Bumps a metrics counter.
    fn count(&mut self, counter: &str, delta: f64);
    /// Records one sample into a metrics histogram (see
    /// [`crate::metrics::names`] for the registry). Default: discarded.
    fn observe(&mut self, _name: &str, _value: f64) {}
    /// Sets a metrics gauge to its current level (telemetry samplers
    /// snapshot gauges each window; see DESIGN.md §9). Publishers that
    /// exist per entity append a shard suffix (`.n<node>`, `.p<pubend>`,
    /// `.w<worker>`) to the registered base name. Default: discarded.
    fn gauge(&mut self, _name: &str, _value: f64) {}
    /// Emits a structured trace event attributed to this node. Default:
    /// discarded. Instrumentation sites should wrap the call in
    /// [`traced!`](crate::traced) so the `trace` feature can compile the
    /// overhead out.
    fn trace(&mut self, _event: crate::trace::TraceEvent) {}
    /// Records a busy interval of `dur_us` ending *now* on this node's
    /// timeline track, tagged with a forensics kind (one of the
    /// `KIND_*` constants in [`crate::forensics`]). Pure observation for
    /// the exported Perfetto trace — never affects scheduling. Default:
    /// discarded (also when the contention profiler is disarmed).
    fn interval(&mut self, _kind: &'static str, _dur_us: u64) {}
    /// Attributes `weight` to `entity` on a population-sketch dimension
    /// (one of the `DIM_*` constants in [`crate::sketch`]): per-entity
    /// heavy-hitter accounting in O(K) memory (DESIGN.md §9). Pure
    /// observation — the armed sketch drains into `topk.ndjson` each
    /// sampler window and never affects scheduling. Default: discarded
    /// (also when the sketch is disarmed).
    fn attribute(&mut self, _dim: &'static str, _entity: u64, _weight: u64) {}
}

/// A state machine hosted by a runtime.
pub trait Node: Send {
    /// Called once when the runtime starts (or when the node is added to
    /// an already-running sim). Establish initial timers here.
    fn on_start(&mut self, _ctx: &mut dyn NodeCtx) {}
    /// A message arrived.
    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx);
    /// A timer set via [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx);
    /// The runtime restarted this node after a crash: volatile state is
    /// still in `self` and must be discarded/rebuilt from persistent
    /// storage by this method.
    fn on_restart(&mut self, _ctx: &mut dyn NodeCtx) {}
}

/// Link properties for one direction.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Base propagation + processing latency.
    pub latency_us: u64,
    /// Uniform random extra latency in `[0, jitter_us]` (FIFO order is
    /// still enforced).
    pub jitter_us: u64,
    /// Probability in `[0, 1]` that a message is dropped.
    pub loss: f64,
    /// Serialization bandwidth; `None` = infinite. Messages queue behind
    /// one another ([`gryphon_types::NetMsg::size_hint`] bytes each), which
    /// is what bounds catchup burst rates after an SHB failure.
    pub bytes_per_sec: Option<u64>,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency_us: 1_000,
            jitter_us: 0,
            loss: 0.0,
            bytes_per_sec: None,
        }
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: NetMsg,
    },
    Timer {
        node: NodeId,
        key: TimerKey,
    },
    Crash {
        node: NodeId,
    },
    Restart {
        node: NodeId,
    },
}

struct Scheduled {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct NodeSlot {
    node: Option<AnyNode>,
    name: String,
    up: bool,
    busy_us: u64,
}

/// The deterministic simulator. See the [crate docs](crate) for an
/// overview and example.
pub struct Sim {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    nodes: Vec<NodeSlot>,
    links: HashMap<(NodeId, NodeId), LinkParams>,
    /// FIFO enforcement: last scheduled arrival per directed link.
    last_arrival: HashMap<(NodeId, NodeId), u64>,
    /// Bandwidth serialization: when each directed link frees up.
    link_busy_until: HashMap<(NodeId, NodeId), u64>,
    rng: SmallRng,
    /// Everything that observes the run (metrics, trace ring, watchdogs,
    /// ledger, forensics, sketch). Pure observers: arming any of them
    /// leaves traces and deliveries bit-identical.
    obs: Observers,
    /// Directory for flight-recorder post-mortems (`None` = disabled).
    flight_dir: Option<std::path::PathBuf>,
    flight_dumps: u32,
    /// Panic on delivery-ledger violations (default: armed under
    /// `cfg(debug_assertions)`, like the watchdogs).
    ledger_panic: bool,
    events_processed: u64,
    /// Windowed telemetry sampler (`None` = disabled). Fires between
    /// scheduler events, never through them, so enabling it cannot
    /// perturb protocol ordering.
    telemetry: Option<Sampler>,
    /// Online health engine (`None` = disabled), evaluated as part of
    /// each window close.
    health: Option<HealthEngine>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now_us", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl Sim {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        let mut obs = Observers::new(DEFAULT_TRACE_CAPACITY);
        // Deferred panics let the flight recorder dump a post-mortem
        // before the process dies.
        obs.watchdogs_mut().defer_panic = true;
        Sim {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            links: HashMap::new(),
            last_arrival: HashMap::new(),
            link_busy_until: HashMap::new(),
            rng: SmallRng::seed_from_u64(seed),
            obs,
            flight_dir: None,
            flight_dumps: 0,
            ledger_panic: cfg!(debug_assertions),
            events_processed: 0,
            telemetry: None,
            health: None,
        }
    }

    /// Registers `node` under a human-readable `name`, returning its id.
    /// `on_start` runs at the current virtual time.
    pub fn add_node(&mut self, name: &str, node: Box<dyn Node>) -> NodeId {
        self.add_any(name, AnyNode::erased(node))
    }

    fn add_any(&mut self, name: &str, node: AnyNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            node: Some(node),
            name: name.to_owned(),
            up: true,
            busy_us: 0,
        });
        self.with_node(id, |node, ctx| node.on_start(ctx));
        id
    }

    /// Creates symmetric links `a ↔ b` with the given one-way latency.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency_us: u64) {
        let p = LinkParams {
            latency_us,
            ..LinkParams::default()
        };
        self.connect_with(a, b, p);
    }

    /// Creates symmetric links `a ↔ b` with full parameters.
    pub fn connect_with(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.links.insert((a, b), params);
        self.links.insert((b, a), params);
    }

    /// Removes the links between `a` and `b` (partition).
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) {
        self.links.remove(&(a, b));
        self.links.remove(&(b, a));
    }

    /// Injects `msg` for `to` at absolute virtual time `at_us` (no link
    /// traversal), appearing to come from `from`.
    pub fn inject_from(&mut self, at_us: u64, to: NodeId, from: NodeId, msg: NetMsg) {
        self.push(at_us, EventKind::Deliver { to, from, msg });
    }

    /// Injects a control message (sender [`CONTROL_NODE`]).
    pub fn inject(&mut self, at_us: u64, to: NodeId, from: NodeId, msg: NetMsg) {
        // `from` kept for source attribution in tests; CONTROL injection
        // uses `inject_ctrl`.
        self.inject_from(at_us, to, from, msg);
    }

    /// Injects a message whose sender is the harness itself.
    pub fn inject_ctrl(&mut self, at_us: u64, to: NodeId, msg: NetMsg) {
        self.inject_from(at_us, to, CONTROL_NODE, msg);
    }

    /// Schedules a crash of `node` at `at_us` for `duration_us`, after
    /// which the node restarts (volatile state wiped by its
    /// [`Node::on_restart`]). While down, deliveries and timers for the
    /// node are silently dropped.
    pub fn schedule_crash(&mut self, node: NodeId, at_us: u64, duration_us: u64) {
        self.push(at_us, EventKind::Crash { node });
        self.push(at_us + duration_us, EventKind::Restart { node });
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { time, seq, kind }));
    }

    /// Runs until the queue is empty or virtual time would exceed
    /// `until_us`. Returns the number of events processed.
    pub fn run_until(&mut self, until_us: u64) -> u64 {
        let mut n = 0;
        loop {
            let head_time = match self.queue.peek() {
                Some(Reverse(head)) if head.time <= until_us => head.time,
                _ => break,
            };
            // Telemetry samples due strictly before (or at) the next
            // event fire first, reading state as of that virtual moment
            // without touching the queue.
            self.fire_due_samples(head_time);
            let Reverse(ev) = self.queue.pop().expect("peeked");
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            self.dispatch(ev.kind);
            n += 1;
        }
        self.fire_due_samples(until_us);
        self.now = self.now.max(until_us);
        self.events_processed += n;
        n
    }

    /// Runs to quiescence (empty queue). Returns events processed.
    /// Intended for tests; live workloads self-perpetuate via timers, so
    /// use [`Sim::run_until`] there.
    pub fn run_to_quiescence(&mut self) -> u64 {
        let mut n = 0;
        while let Some(Reverse(head)) = self.queue.peek() {
            let head_time = head.time;
            self.fire_due_samples(head_time);
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.now = ev.time;
            self.dispatch(ev.kind);
            n += 1;
        }
        self.events_processed += n;
        n
    }

    /// Enables the windowed telemetry sampler at a fixed virtual-time
    /// `interval_us` (see [`crate::telemetry`]). Each due sample fires
    /// between scheduler events: it publishes the scheduler's
    /// outstanding-event count as the
    /// [`telemetry.queue_depth`](crate::names::TELEMETRY_QUEUE_DEPTH)
    /// gauge, then closes the window ([`Observers::close_window`]).
    /// Sampling appends only to metrics — traces and deliveries are
    /// bit-identical with the sampler on or off.
    pub fn enable_telemetry(&mut self, interval_us: u64) {
        self.telemetry = Some(Sampler::new(interval_us));
    }

    /// The telemetry timeline collected so far (`None` when disabled).
    pub fn telemetry(&self) -> Option<&Timeline> {
        self.telemetry.as_ref().map(|s| s.timeline())
    }

    /// Takes the telemetry timeline out of the sim (disabling further
    /// sampling), e.g. to attach it to a report.
    pub fn take_telemetry(&mut self) -> Option<Timeline> {
        self.telemetry.take().map(|s| s.into_timeline())
    }

    /// Arms the online health engine over `rules` (see
    /// [`crate::health`]). Requires telemetry to be enabled — the engine
    /// judges the sampler's timeline and is evaluated once per sample
    /// window. Each rule's `health.alert.<rule>` counter is registered
    /// at zero immediately so exports show the armed rule set even when
    /// nothing ever fires. On a clean run the engine emits no trace
    /// events at all.
    pub fn enable_health(&mut self, rules: Vec<HealthRule>) {
        let engine = HealthEngine::new(rules);
        engine.prime(self.obs.metrics_mut());
        self.health = Some(engine);
    }

    /// Arms tail forensics: an exemplar reservoir on the lineage stage
    /// histograms and a bounded busy-interval recorder fed by modeled
    /// work and [`NodeCtx::interval`]. Both streams drain into the
    /// telemetry timeline once per sampler window (so telemetry should be
    /// enabled too; without it the interval ring simply fills and
    /// evicts).
    pub fn enable_forensics(&mut self, cfg: ForensicsConfig) {
        self.obs.arm_forensics(&cfg);
    }

    /// Arms the population sketch: per-entity top-K attribution
    /// ([`NodeCtx::attribute`]) plus the subscriber lag spectrum, in
    /// O(K) memory per dimension. Drained into top-K snapshots on the
    /// telemetry timeline once per sampler window (so telemetry should
    /// be enabled too; without it attributions simply accumulate).
    pub fn enable_sketch(&mut self, cfg: SketchConfig) {
        self.obs.arm_sketch(cfg);
    }

    /// Closes every telemetry window due at or before `upto_us`.
    fn fire_due_samples(&mut self, upto_us: u64) {
        let Some(sampler) = self.telemetry.as_mut() else {
            return;
        };
        while sampler.next_at_us() <= upto_us {
            let at = sampler.next_at_us();
            self.obs
                .gauge(crate::names::TELEMETRY_QUEUE_DEPTH, self.queue.len() as f64);
            self.obs
                .close_window(self.now, at, sampler, self.health.as_mut());
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { to, from, msg } => {
                if !self.slot(to).map(|s| s.up).unwrap_or(false) {
                    return;
                }
                self.with_node(to, |node, ctx| node.on_message(from, msg, ctx));
            }
            EventKind::Timer { node, key } => {
                if !self.slot(node).map(|s| s.up).unwrap_or(false) {
                    return;
                }
                self.with_node(node, |n, ctx| n.on_timer(key, ctx));
            }
            EventKind::Crash { node } => {
                if let Some(slot) = self.nodes.get_mut(node.0 as usize) {
                    slot.up = false;
                }
            }
            EventKind::Restart { node } => {
                if let Some(slot) = self.nodes.get_mut(node.0 as usize) {
                    slot.up = true;
                }
                // Watchdog delivery state for the node resets here, before
                // `on_restart` rebuilds from persistent storage.
                self.push_trace(node, TraceEvent::NodeRestarted);
                self.with_node(node, |n, ctx| n.on_restart(ctx));
            }
        }
    }

    fn slot(&self, id: NodeId) -> Option<&NodeSlot> {
        self.nodes.get(id.0 as usize)
    }

    fn charge(&mut self, id: NodeId, cost: u64) {
        if let Some(slot) = self.nodes.get_mut(id.0 as usize) {
            slot.busy_us += cost;
        }
        self.record_interval(id, KIND_BUSY, cost);
    }

    /// Records a busy interval of `dur_us` ending at the current virtual
    /// time on `id`'s timeline track. Never touches the event queue.
    fn record_interval(&mut self, id: NodeId, kind: &'static str, dur_us: u64) {
        self.obs.interval(BusyInterval {
            track: id.0,
            kind,
            start_us: self.now.saturating_sub(dur_us),
            dur_us,
        });
    }

    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut dyn NodeCtx)) {
        let Some(slot) = self.nodes.get_mut(id.0 as usize) else {
            return;
        };
        let Some(mut node) = slot.node.take() else {
            return; // re-entrant dispatch is impossible; defensive
        };
        let mut ctx = SimCtx { sim: self, me: id };
        f(node.as_dyn(), &mut ctx);
        self.nodes[id.0 as usize].node = Some(node);
    }

    /// Current virtual time (µs).
    pub fn now_us(&self) -> u64 {
        self.now
    }

    /// Metrics recorded so far.
    pub fn metrics(&self) -> &Metrics {
        self.obs.metrics()
    }

    /// Mutable metrics access for the harness (e.g. recording workload
    /// ground truth alongside node-recorded series).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        self.obs.metrics_mut()
    }

    /// Accumulated CPU work of `node` (µs).
    pub fn busy_us(&self, node: NodeId) -> u64 {
        self.slot(node).map(|s| s.busy_us).unwrap_or(0)
    }

    /// `true` when the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.slot(node).map(|s| s.up).unwrap_or(false)
    }

    /// The registered display name of `node`.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.slot(node).map(|s| s.name.as_str()).unwrap_or("?")
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

/// Trace stream, oracles and the flight recorder.
impl Sim {
    fn push_trace(&mut self, node: NodeId, event: TraceEvent) {
        let rec = TraceRecord {
            t_us: self.now,
            node,
            event,
        };
        let Some((oracle, rec)) = self.obs.trace(rec) else {
            return;
        };
        self.flight_dump(&rec, oracle);
        // Panics were deferred across the dump; raise them now.
        if let Some(detail) = self.obs.watchdogs_mut().take_deferred_panic() {
            panic!("invariant watchdog: {detail}");
        }
        if oracle == Oracle::Ledger && self.ledger_panic {
            let detail = self.obs.lineage().last_violation().unwrap_or("?");
            panic!("delivery ledger: {detail}");
        }
    }

    /// Writes a post-mortem for the violation just observed on `rec`:
    /// the reason, the offending record, that event's reconstructed
    /// lineage span, a metrics snapshot (`metrics.csv` rows) and the tail
    /// of the trace ring, which ends with the offending record. Bounded
    /// to [`Self::MAX_FLIGHT_DUMPS`] files per run; a disabled recorder
    /// (`flight_dir == None`) costs one branch. The flight recorder
    /// lives here, not in [`Observers`]: it prints node names, which
    /// only the runtime knows.
    fn flight_dump(&mut self, rec: &TraceRecord, oracle: Oracle) {
        const TRACE_TAIL: usize = 256;
        let Some(dir) = self.flight_dir.clone() else {
            return;
        };
        if self.flight_dumps >= Self::MAX_FLIGHT_DUMPS {
            return;
        }
        let seq = self.flight_dumps;
        self.flight_dumps += 1;
        self.obs.count(crate::names::LINEAGE_FLIGHT_DUMPS, 1.0);
        let reason = match oracle {
            Oracle::Watchdog => format!(
                "watchdog: {}",
                self.obs.watchdogs().last_detail().unwrap_or("?")
            ),
            Oracle::Ledger => format!(
                "ledger: {}",
                self.obs.lineage().last_violation().unwrap_or("?")
            ),
        };
        let mut out = String::new();
        out.push_str(&format!(
            "# gryphon flight recorder post-mortem {seq}\n\
             time_us: {}\nnode: {} ({})\nreason: {reason}\n\
             offending_event: {:?}\n\n",
            rec.t_us,
            rec.node,
            self.node_name(rec.node),
            rec.event,
        ));
        out.push_str("## lineage of offending event\n");
        match rec.event.lineage_key() {
            Some(key) => match self.obs.lineage().span(key) {
                Some(span) => out.push_str(&span.render(key)),
                None => out.push_str(&format!("{key}: no span assembled\n")),
            },
            None => out.push_str("(event carries no lineage key)\n"),
        }
        out.push_str("\n## metrics snapshot\n");
        out.push_str(&MetricsSnapshot::from_metrics(self.obs.metrics()).to_csv());
        out.push_str(&format!("\n## trace ring tail (last {TRACE_TAIL})\n"));
        let tail: Vec<&TraceRecord> = self.obs.trace_records().rev().take(TRACE_TAIL).collect();
        for r in tail.into_iter().rev() {
            out.push_str(&format!("{} {} {:?}\n", r.t_us, r.node, r.event));
        }
        let path = dir.join(format!("postmortem-{seq}.txt"));
        // Best-effort: a full disk must not mask the original violation.
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(&path, out);
    }

    /// The retained trace records, oldest first.
    pub fn trace_records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.obs.trace_records()
    }

    /// Resizes the trace ring (`0` retains nothing; watchdogs still run).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.obs.set_trace_capacity(capacity);
    }

    /// Arms or disarms panicking on watchdog violations (default:
    /// armed under `cfg(debug_assertions)`).
    pub fn set_watchdog_panic(&mut self, panic_on_violation: bool) {
        self.obs.watchdogs_mut().panic_on_violation = panic_on_violation;
    }

    /// Total invariant violations the watchdogs have flagged.
    pub fn watchdog_violations(&self) -> u64 {
        self.obs.watchdogs().violations()
    }

    /// Feeds a synthetic trace event through the buffer and watchdogs as
    /// if `node` emitted it now — the corruption hook fault-injection
    /// tests use to prove the watchdogs actually bite.
    pub fn inject_trace(&mut self, node: NodeId, event: TraceEvent) {
        self.push_trace(node, event);
    }

    /// Post-mortem files per run the flight recorder will write before
    /// going quiet (a violation storm must not fill the disk).
    pub const MAX_FLIGHT_DUMPS: u32 = 8;

    /// The delivery-lineage assembler/ledger fed by every trace event.
    pub fn lineage(&self) -> &Lineage {
        self.obs.lineage()
    }

    /// Arms or disarms panicking on delivery-ledger violations
    /// (default: armed under `cfg(debug_assertions)`).
    pub fn set_ledger_panic(&mut self, panic_on_violation: bool) {
        self.ledger_panic = panic_on_violation;
    }

    /// Enables full-audit mode on the ledger (records per-session
    /// delivered sets so [`Sim::ledger_audit`] can compute *missing*
    /// deliveries; only meaningful under match-all filters).
    pub fn set_full_audit(&mut self, on: bool) {
        self.obs.lineage_mut().set_full_audit(on);
    }

    /// Directory where the flight recorder writes post-mortems on any
    /// watchdog or ledger violation (`None` disables it, the default).
    pub fn set_flight_dir(&mut self, dir: Option<std::path::PathBuf>) {
        self.flight_dir = dir;
    }

    /// Post-mortems written so far this run.
    pub fn flight_dumps(&self) -> u32 {
        self.flight_dumps
    }

    /// Exactly-once violations the delivery ledger has flagged.
    pub fn ledger_violations(&self) -> u64 {
        self.obs.lineage().violations()
    }

    /// Offline exactly-once audit over everything observed so far.
    pub fn ledger_audit(&self) -> LedgerAudit {
        self.obs.lineage().audit()
    }
}

/// Typed handle to a node, for harness-side inspection.
///
/// Registering a node erases its concrete type; a harness that needs to
/// read a node's state back (e.g. a client's received-message log)
/// registers it through `Sim::add_typed_node` or `NetBuilder::add_node`
/// and keeps the returned handle, which borrows the node back as a `T`.
pub struct Handle<T> {
    id: NodeId,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}

impl<T> Handle<T> {
    /// A handle naming node `id` as a `T`. Borrowing through a handle
    /// checks the type, so a wrong `T` panics there rather than here.
    pub fn new(id: NodeId) -> Self {
        Handle {
            id,
            _marker: std::marker::PhantomData,
        }
    }

    /// The node id this handle refers to.
    pub fn id(&self) -> NodeId {
        self.id
    }
}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle({})", self.id)
    }
}

/// A boxed node that remembers its concrete type, so a [`Handle`] can
/// borrow it back. Both runtimes store their nodes as this.
pub struct AnyNode {
    node: Box<dyn Node>,
    /// `None` for a node registered type-erased.
    type_id: Option<TypeId>,
}

impl AnyNode {
    /// Wraps a node whose type is already erased.
    pub fn erased(node: Box<dyn Node>) -> AnyNode {
        AnyNode {
            node,
            type_id: None,
        }
    }

    /// Wraps a node, remembering that it is a `T`.
    pub fn typed<T: Node + 'static>(node: T) -> AnyNode {
        AnyNode {
            node: Box::new(node),
            type_id: Some(TypeId::of::<T>()),
        }
    }

    /// The node, for dispatch.
    pub fn as_dyn(&mut self) -> &mut dyn Node {
        self.node.as_mut()
    }

    fn check<T: 'static>(&self) {
        assert_eq!(
            self.type_id,
            Some(TypeId::of::<T>()),
            "handle type mismatch"
        );
    }

    /// Borrows the node as a `T`.
    ///
    /// # Panics
    ///
    /// Panics unless the node was wrapped by [`AnyNode::typed`] as a `T`.
    pub fn downcast_ref<T: Node + 'static>(&self) -> &T {
        self.check::<T>();
        // SAFETY: `type_id` is written only by `typed::<T>`, together
        // with the box it describes, and neither is replaced afterwards;
        // the check above proves the box holds exactly a `T`.
        unsafe { &*(self.node.as_ref() as *const dyn Node as *const T) }
    }

    /// Mutably borrows the node as a `T`.
    ///
    /// # Panics
    ///
    /// As [`AnyNode::downcast_ref`].
    pub fn downcast_mut<T: Node + 'static>(&mut self) -> &mut T {
        self.check::<T>();
        // SAFETY: as in `downcast_ref`.
        unsafe { &mut *(self.node.as_mut() as *mut dyn Node as *mut T) }
    }
}

impl Sim {
    /// Like [`Sim::add_node`] but preserves the concrete type for later
    /// inspection via [`Sim::node`] / [`Sim::node_ref`].
    pub fn add_typed_node<T: Node + 'static>(&mut self, name: &str, node: T) -> Handle<T> {
        Handle::new(self.add_any(name, AnyNode::typed(node)))
    }

    /// Mutable access to a typed node between events.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a `T` (impossible when the
    /// handle came from [`Sim::add_typed_node`]) or during dispatch.
    pub fn node<T: Node + 'static>(&mut self, h: Handle<T>) -> &mut T {
        let slot = self
            .nodes
            .get_mut(h.id.0 as usize)
            .expect("handle from this sim");
        let node = slot.node.as_mut().expect("node() called during dispatch");
        node.downcast_mut()
    }

    /// Shared access to a typed node between events.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Sim::node`].
    pub fn node_ref<T: Node + 'static>(&self, h: Handle<T>) -> &T {
        let slot = self
            .nodes
            .get(h.id.0 as usize)
            .expect("handle from this sim");
        let node = slot
            .node
            .as_ref()
            .expect("node_ref() called during dispatch");
        node.downcast_ref()
    }
}

struct SimCtx<'a> {
    sim: &'a mut Sim,
    me: NodeId,
}

impl NodeCtx for SimCtx<'_> {
    fn now_us(&self) -> u64 {
        self.sim.now
    }

    fn me(&self) -> NodeId {
        self.me
    }

    fn send(&mut self, to: NodeId, msg: NetMsg) {
        let Some(&params) = self.sim.links.get(&(self.me, to)) else {
            return; // no link: dropped, like a closed connection
        };
        // Loss models congestion drops on the stream-recovery path.
        // Control traffic (interest, release, client sessions) rides
        // reliable TCP in the modeled system, and the knowledge/curiosity
        // protocol is the part designed to self-heal — so only those two
        // message kinds are subject to loss.
        let lossy_kind = matches!(msg, NetMsg::Knowledge(_) | NetMsg::Curiosity(_));
        if lossy_kind && params.loss > 0.0 && self.sim.rng.gen::<f64>() < params.loss {
            self.sim.obs.count(crate::names::NET_DROPPED, 1.0);
            return;
        }
        let jitter = if params.jitter_us > 0 {
            self.sim.rng.gen_range(0..=params.jitter_us)
        } else {
            0
        };
        let key = (self.me, to);
        // Serialization delay: the message occupies the link for
        // size/bandwidth, queueing behind earlier messages.
        let depart = match params.bytes_per_sec {
            Some(bw) if bw > 0 => {
                let busy_until = self.sim.link_busy_until.get(&key).copied().unwrap_or(0);
                let start = self.sim.now.max(busy_until);
                let tx = (msg.size_hint() as u64).saturating_mul(1_000_000) / bw;
                let depart = start + tx;
                self.sim.link_busy_until.insert(key, depart);
                depart
            }
            _ => self.sim.now,
        };
        let arrival = depart + params.latency_us + jitter;
        // FIFO per directed link.
        let last = self.sim.last_arrival.get(&key).copied().unwrap_or(0);
        let arrival = arrival.max(last);
        self.sim.last_arrival.insert(key, arrival);
        self.sim.push(
            arrival,
            EventKind::Deliver {
                to,
                from: self.me,
                msg,
            },
        );
    }

    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        let at = self.sim.now + delay_us;
        self.sim.push(at, EventKind::Timer { node: self.me, key });
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    fn work(&mut self, cost_us: u64) {
        self.sim.charge(self.me, cost_us);
    }

    fn record(&mut self, series: &str, value: f64) {
        self.sim.obs.record(self.sim.now, series, value);
    }

    fn count(&mut self, counter: &str, delta: f64) {
        self.sim.obs.count(counter, delta);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.sim.obs.observe(name, value);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.sim.obs.gauge(name, value);
    }

    fn trace(&mut self, event: TraceEvent) {
        self.sim.push_trace(self.me, event);
    }

    fn interval(&mut self, kind: &'static str, dur_us: u64) {
        self.sim.record_interval(self.me, kind, dur_us);
    }

    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        self.sim.obs.attribute(dim, entity, weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_types::{InterestChange, SubInterestMsg};

    fn dummy_msg() -> NetMsg {
        NetMsg::SubInterest(SubInterestMsg {
            version: 0,
            change: InterestChange::Snapshot(vec![]),
        })
    }

    /// A message of the lossy kind (loss only applies to the self-healing
    /// knowledge/curiosity streams; control rides reliable TCP).
    fn lossy_msg() -> NetMsg {
        NetMsg::Knowledge(gryphon_types::KnowledgeMsg {
            pubend: gryphon_types::PubendId(0),
            parts: vec![],
            nack_response: false,
            interest_version: 0,
        })
    }

    /// Records every arrival time; bounces optionally.
    struct Recorder {
        arrivals: Vec<u64>,
        bounce: bool,
    }

    impl Node for Recorder {
        fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
            self.arrivals.push(ctx.now_us());
            ctx.record("arrival", 1.0);
            ctx.work(10);
            if self.bounce {
                ctx.send(from, msg);
            }
        }
        fn on_timer(&mut self, _: TimerKey, ctx: &mut dyn NodeCtx) {
            self.arrivals.push(ctx.now_us());
        }
    }

    #[test]
    fn link_latency_and_fifo() {
        let mut sim = Sim::new(1);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        sim.connect_with(
            a.id(),
            b.id(),
            LinkParams {
                latency_us: 500,
                jitter_us: 400,
                loss: 0.0,
                bytes_per_sec: None,
            },
        );
        // Inject at b as-if from a at t=0,1,2; b bounces each back to a
        // over the jittery link.
        for t in 0..3 {
            sim.inject_from(t, b.id(), a.id(), dummy_msg());
        }
        sim.run_to_quiescence();
        let arr = &sim.node_ref(a).arrivals;
        assert_eq!(arr.len(), 3);
        assert!(
            arr.windows(2).all(|w| w[0] <= w[1]),
            "FIFO violated: {arr:?}"
        );
        assert!(arr[0] >= 500);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
                ctx.set_timer(300, TimerKey(3));
                ctx.set_timer(100, TimerKey(1));
                ctx.set_timer(200, TimerKey(2));
            }
            fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) {}
            fn on_timer(&mut self, key: TimerKey, _: &mut dyn NodeCtx) {
                self.fired.push(key.0);
            }
        }
        let mut sim = Sim::new(0);
        let h = sim.add_typed_node("t", TimerNode { fired: vec![] });
        sim.run_until(250);
        assert_eq!(sim.node_ref(h).fired, vec![1, 2]);
        sim.run_to_quiescence();
        assert_eq!(sim.node_ref(h).fired, vec![1, 2, 3]);
    }

    #[test]
    fn crash_drops_messages_and_restart_notifies() {
        struct CrashNode {
            got: u64,
            restarted: bool,
        }
        impl Node for CrashNode {
            fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) {
                self.got += 1;
            }
            fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
            fn on_restart(&mut self, _: &mut dyn NodeCtx) {
                self.restarted = true;
            }
        }
        let mut sim = Sim::new(0);
        let h = sim.add_typed_node(
            "c",
            CrashNode {
                got: 0,
                restarted: false,
            },
        );
        sim.schedule_crash(h.id(), 100, 1_000);
        sim.inject_ctrl(50, h.id(), dummy_msg()); // before crash: delivered
        sim.inject_ctrl(500, h.id(), dummy_msg()); // during crash: dropped
        sim.inject_ctrl(2_000, h.id(), dummy_msg()); // after restart
        sim.run_to_quiescence();
        let n = sim.node_ref(h);
        assert_eq!(n.got, 2);
        assert!(n.restarted);
        assert!(sim.is_up(h.id()));
    }

    #[test]
    fn loss_drops_stream_messages_only() {
        let mut sim = Sim::new(7);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        sim.connect_with(
            a.id(),
            b.id(),
            LinkParams {
                latency_us: 10,
                jitter_us: 0,
                loss: 0.5,
                bytes_per_sec: None,
            },
        );
        for t in 0..100 {
            sim.inject_from(t * 100, b.id(), a.id(), lossy_msg());
        }
        sim.run_to_quiescence();
        let delivered = sim.node_ref(a).arrivals.len();
        assert!(
            delivered > 20 && delivered < 80,
            "loss ~50%, got {delivered}"
        );
        assert_eq!(
            sim.metrics().counter("net.dropped") as usize + delivered,
            100
        );
        // Control traffic is immune (modeled TCP).
        let mut sim = Sim::new(7);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        sim.connect_with(
            a.id(),
            b.id(),
            LinkParams {
                latency_us: 10,
                jitter_us: 0,
                loss: 0.5,
                bytes_per_sec: None,
            },
        );
        for t in 0..50 {
            sim.inject_from(t * 100, b.id(), a.id(), dummy_msg());
        }
        sim.run_to_quiescence();
        assert_eq!(
            sim.node_ref(a).arrivals.len(),
            50,
            "control traffic must not drop"
        );
    }

    #[test]
    fn work_accumulates_and_metrics_record() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        sim.inject_ctrl(0, a.id(), dummy_msg());
        sim.inject_ctrl(1, a.id(), dummy_msg());
        sim.run_to_quiescence();
        assert_eq!(sim.busy_us(a.id()), 20);
        assert_eq!(sim.metrics().series("arrival").len(), 2);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Sim::new(seed);
            let a = sim.add_typed_node(
                "a",
                Recorder {
                    arrivals: vec![],
                    bounce: false,
                },
            );
            let b = sim.add_typed_node(
                "b",
                Recorder {
                    arrivals: vec![],
                    bounce: true,
                },
            );
            sim.connect_with(
                a.id(),
                b.id(),
                LinkParams {
                    latency_us: 100,
                    jitter_us: 300,
                    loss: 0.1,
                    bytes_per_sec: None,
                },
            );
            for t in 0..50 {
                sim.inject_from(t * 37, b.id(), a.id(), dummy_msg());
            }
            sim.run_to_quiescence();
            sim.node_ref(a).arrivals.clone()
        }
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ");
    }

    #[test]
    fn send_without_link_is_dropped() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        // No link a→b configured.
        sim.inject_ctrl(0, a.id(), dummy_msg()); // a bounces to CONTROL (no link) — dropped
        sim.run_to_quiescence();
        assert!(sim.node_ref(b).arrivals.is_empty());
    }

    #[test]
    fn bandwidth_serializes_messages() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        let b = sim.add_typed_node(
            "b",
            Recorder {
                arrivals: vec![],
                bounce: true,
            },
        );
        sim.connect_with(
            a.id(),
            b.id(),
            LinkParams {
                latency_us: 100,
                jitter_us: 0,
                loss: 0.0,
                bytes_per_sec: Some(64_000), // dummy msg is 16+0 bytes → 250 µs each
            },
        );
        for _ in 0..4 {
            sim.inject_from(0, b.id(), a.id(), dummy_msg());
        }
        sim.run_to_quiescence();
        let arr = &sim.node_ref(a).arrivals;
        assert_eq!(arr.len(), 4);
        // Each back-to-back message departs one transmit-time later.
        let gaps: Vec<u64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().all(|&g| g >= 200),
            "serialization gaps: {gaps:?}"
        );
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        sim.inject_ctrl(100, a.id(), dummy_msg());
        sim.inject_ctrl(200, a.id(), dummy_msg());
        let n = sim.run_until(150);
        assert_eq!(n, 1);
        assert_eq!(sim.now_us(), 150);
        let n = sim.run_until(250);
        assert_eq!(n, 1);
    }
}
