//! The discrete-event scheduler, links, timers and fault injection.

use crate::agenda::Agenda;
use crate::forensics::{BusyInterval, KIND_BUSY};
use crate::lineage::{LedgerAudit, Lineage};
use crate::observers::Observers;
use crate::telemetry::Timeline;
use crate::trace::{DeliveryPath, TraceEvent, TraceRecord, DEFAULT_TRACE_CAPACITY};
use crate::{Metrics, MetricsSnapshot};
use gryphon_types::{NetMsg, NodeId, PubendId, SubscriberId, Timestamp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::HashMap;

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
///
/// A host writes the acting half — [`now_us`](NodeCtx::now_us),
/// [`me`](NodeCtx::me), [`send`](NodeCtx::send),
/// [`set_timer`](NodeCtx::set_timer), [`rng`](NodeCtx::rng),
/// [`work`](NodeCtx::work) — and hands out its [`Observers`] through
/// [`observers`](NodeCtx::observers). The observation half (`record`,
/// `count`, `observe`, `gauge`, `trace`, `delivered`, `interval`,
/// `attribute`) is written once, here: each provided method forwards to
/// those observers, or discards when there are none. A host overrides one
/// only to add to it, as the simulator does for `trace` and `delivered`
/// (an oracle trip sets off its flight recorder); a wrapper context that
/// has no observers of its own overrides them to forward to its inner
/// context.
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
    /// The observer stack this context reports to. Default: none, and
    /// every observation is discarded.
    fn observers(&mut self) -> Option<&mut Observers> {
        None
    }
    /// Appends a sample to a metrics series at the current time.
    fn record(&mut self, series: &str, value: f64) {
        let now = self.now_us();
        if let Some(obs) = self.observers() {
            obs.record(now, series, value);
        }
    }
    /// Bumps a metrics counter.
    fn count(&mut self, counter: &str, delta: f64) {
        if let Some(obs) = self.observers() {
            obs.count(counter, delta);
        }
    }
    /// Records one sample into a metrics histogram (see
    /// [`crate::metrics::names`] for the registry).
    fn observe(&mut self, name: &str, value: f64) {
        if let Some(obs) = self.observers() {
            obs.observe(name, value);
        }
    }
    /// Sets a metrics gauge to its current level (telemetry samplers
    /// snapshot gauges each window; see DESIGN.md §9). Publishers that
    /// exist per entity append a shard suffix (`.n<node>`, `.p<pubend>`,
    /// `.w<worker>`) to the registered base name.
    fn gauge(&mut self, name: &str, value: f64) {
        if let Some(obs) = self.observers() {
            obs.gauge(name, value);
        }
    }
    /// Emits a structured trace event attributed to this node, through
    /// the oracle (a violation is counted, never raised, unless the host
    /// overrides this). Instrumentation sites should wrap the call in
    /// [`traced!`](crate::traced) so the `trace` feature can compile the
    /// overhead out.
    fn trace(&mut self, event: TraceEvent) {
        let (t_us, node) = (self.now_us(), self.me());
        if let Some(obs) = self.observers() {
            obs.trace(TraceRecord { t_us, node, event });
        }
    }
    /// Reports one delivered event — `(pubend, ts)` sent over `path` to
    /// each of `subs`, in order — to the lineage assembler and the
    /// exactly-once ledger, once for the event
    /// ([`Observers::delivered`]: the per-event work once, only the
    /// ledger check per subscriber). Without observers: one
    /// [`TraceEvent::Delivered`] per subscriber through
    /// [`NodeCtx::trace`]. Wrap the call in [`traced!`](crate::traced),
    /// like `trace`.
    fn delivered(
        &mut self,
        pubend: PubendId,
        ts: Timestamp,
        path: DeliveryPath,
        subs: &[SubscriberId],
    ) {
        let (now, me) = (self.now_us(), self.me());
        if let Some(obs) = self.observers() {
            obs.delivered(now, me, pubend, ts, path, subs, |_, _| {});
            return;
        }
        for &sub in subs {
            self.trace(TraceEvent::Delivered {
                pubend,
                ts,
                sub,
                path,
            });
        }
    }
    /// Records a busy interval of `dur_us` ending *now* on this node's
    /// timeline track, tagged with a forensics kind (one of the
    /// `KIND_*` constants in [`crate::forensics`]). Pure observation for
    /// the exported Perfetto trace — never affects scheduling. Discarded
    /// while the contention profiler is disarmed.
    fn interval(&mut self, kind: &'static str, dur_us: u64) {
        let (now, track) = (self.now_us(), self.me().0);
        if let Some(obs) = self.observers() {
            obs.interval(BusyInterval {
                track,
                kind,
                start_us: now.saturating_sub(dur_us),
                dur_us,
            });
        }
    }
    /// Attributes `weight` to `entity` on a population-sketch dimension
    /// (one of the `DIM_*` constants in [`crate::sketch`]): per-entity
    /// heavy-hitter accounting in O(K) memory (DESIGN.md §9). Pure
    /// observation — the armed sketch drains into `topk.ndjson` each
    /// sampler window and never affects scheduling. Discarded while the
    /// sketch is disarmed.
    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        if let Some(obs) = self.observers() {
            obs.attribute(dim, entity, weight);
        }
    }
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
    queue: Agenda<EventKind>,
    nodes: Vec<NodeSlot>,
    links: HashMap<(NodeId, NodeId), LinkParams>,
    /// FIFO enforcement: last scheduled arrival per directed link.
    last_arrival: HashMap<(NodeId, NodeId), u64>,
    /// Bandwidth serialization: when each directed link frees up.
    link_busy_until: HashMap<(NodeId, NodeId), u64>,
    rng: SmallRng,
    /// Everything that observes the run (metrics, trace ring, the
    /// oracle, forensics, sketch, and the telemetry windows with the
    /// health engine). Pure observers: arming any of them leaves traces
    /// and deliveries bit-identical. Windows close between scheduler
    /// events, never through them, so arming them cannot perturb
    /// protocol ordering.
    obs: Observers,
    /// What an oracle trip sets off: the flight recorder, then the
    /// armed panic.
    trip: Tripwire,
    events_processed: u64,
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
        Sim {
            now: 0,
            queue: Agenda::new(),
            nodes: Vec::new(),
            links: HashMap::new(),
            last_arrival: HashMap::new(),
            link_busy_until: HashMap::new(),
            rng: SmallRng::seed_from_u64(seed),
            obs: Observers::new(DEFAULT_TRACE_CAPACITY),
            trip: Tripwire {
                flight_dir: None,
                flight_dumps: 0,
                panic: cfg!(debug_assertions),
            },
            events_processed: 0,
        }
    }

    /// Registers `node` under a human-readable `name`; `on_start` runs
    /// at the current virtual time. The returned handle names the node
    /// ([`Handle::id`]) and borrows it back between events
    /// ([`Sim::node`], [`Sim::node_ref`]).
    pub fn add_typed_node<T: Node + 'static>(&mut self, name: &str, node: T) -> Handle<T> {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            node: Some(AnyNode::typed(node)),
            name: name.to_owned(),
            up: true,
            busy_us: 0,
        });
        self.with_node(id, |node, ctx| node.on_start(ctx));
        Handle::new(id)
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
        self.queue.push(at_us, EventKind::Deliver { to, from, msg });
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
        self.queue.push(at_us, EventKind::Crash { node });
        self.queue
            .push(at_us + duration_us, EventKind::Restart { node });
    }

    /// Runs until the queue is empty or virtual time would exceed
    /// `until_us`. Returns the number of events processed.
    pub fn run_until(&mut self, until_us: u64) -> u64 {
        let mut n = 0;
        while let Some(head_time) = self.queue.peek_time().filter(|&t| t <= until_us) {
            // Telemetry samples due strictly before (or at) the next
            // event fire first, reading state as of that virtual moment
            // without touching the queue.
            self.fire_due_samples(head_time);
            let (time, kind) = self.queue.pop().expect("peeked");
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.dispatch(kind);
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
        while let Some(head_time) = self.queue.peek_time() {
            self.fire_due_samples(head_time);
            let (time, kind) = self.queue.pop().expect("peeked");
            self.now = time;
            self.dispatch(kind);
            n += 1;
        }
        self.events_processed += n;
        n
    }

    /// Arms the windows at a fixed virtual-time `interval_us`
    /// ([`Observers::arm_windows`]: the telemetry sampler, the online
    /// health engine over the [default rules](crate::default_rules), tail
    /// forensics and the population sketch). Each due sample fires
    /// between scheduler events: it publishes the scheduler's
    /// outstanding-event count as the
    /// [`telemetry.queue_depth`](crate::names::TELEMETRY_QUEUE_DEPTH)
    /// gauge, then closes the window ([`Observers::close_window`]), where
    /// the engine judges the timeline so far. Arming appends only to
    /// metrics and the timeline — traces and deliveries are bit-identical
    /// armed or not (an alert transition, which a clean run never has, is
    /// mirrored into the trace stream).
    pub fn enable_telemetry(&mut self, interval_us: u64) {
        self.obs.arm_windows(interval_us);
    }

    /// The telemetry timeline collected so far (`None` when disabled).
    pub fn telemetry(&self) -> Option<&Timeline> {
        self.obs.timeline()
    }

    /// Takes the telemetry timeline out of the sim (disabling further
    /// sampling), e.g. to attach it to a report.
    pub fn take_telemetry(&mut self) -> Option<Timeline> {
        self.obs.take_timeline()
    }

    /// Closes every telemetry window due at or before `upto_us`.
    fn fire_due_samples(&mut self, upto_us: u64) {
        while let Some(at) = self.obs.next_window_at().filter(|&at| at <= upto_us) {
            self.obs
                .gauge(crate::names::TELEMETRY_QUEUE_DEPTH, self.queue.len() as f64);
            self.obs.close_window(self.now, at);
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
                // The watchdogs' delivery-side frontiers for the node reset
                // here, before `on_restart` rebuilds from persistent storage.
                self.push_trace(node, TraceEvent::NodeRestarted);
                self.with_node(node, |n, ctx| n.on_restart(ctx));
            }
        }
    }

    fn slot(&self, id: NodeId) -> Option<&NodeSlot> {
        self.nodes.get(id.0 as usize)
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
        node_name(&self.nodes, node)
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
        if let Some(rec) = self.obs.trace(rec) {
            self.trip.tripped(&mut self.obs, &self.nodes, &rec);
        }
    }

    /// The retained trace records, oldest first.
    pub fn trace_records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.obs.trace_records()
    }

    /// Resizes the trace ring (`0` retains nothing; the oracle still
    /// judges every record).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.obs.set_trace_capacity(capacity);
    }

    /// Arms or disarms the panic that follows an oracle trip — a
    /// protocol watchdog or the delivery ledger — once the flight
    /// recorder has dumped (default: armed under
    /// `cfg(debug_assertions)`).
    pub fn set_oracle_panic(&mut self, armed: bool) {
        self.trip.panic = armed;
    }

    /// Total invariant violations the protocol watchdogs have flagged.
    pub fn watchdog_violations(&self) -> u64 {
        self.obs.lineage().watchdog_violations()
    }

    /// Feeds a synthetic trace event through the buffer and the oracle
    /// as if `node` emitted it now — the corruption hook fault-injection
    /// tests use to prove the checks actually bite.
    pub fn inject_trace(&mut self, node: NodeId, event: TraceEvent) {
        self.push_trace(node, event);
    }

    /// Post-mortem files per run the flight recorder will write before
    /// going quiet (a violation storm must not fill the disk).
    pub const MAX_FLIGHT_DUMPS: u32 = 8;

    /// The delivery-lineage assembler and oracle fed by every trace event.
    pub fn lineage(&self) -> &Lineage {
        self.obs.lineage()
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
        self.trip.flight_dir = dir;
    }

    /// Post-mortems written so far this run.
    pub fn flight_dumps(&self) -> u32 {
        self.trip.flight_dumps
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

fn node_name(nodes: &[NodeSlot], node: NodeId) -> &str {
    nodes
        .get(node.0 as usize)
        .map(|s| s.name.as_str())
        .unwrap_or("?")
}

/// The simulator's answer to an oracle trip: a flight-recorder
/// post-mortem, then the armed panic. It lives here, not in
/// [`Observers`]: a post-mortem prints node names, which only the
/// runtime knows.
struct Tripwire {
    /// Directory for flight-recorder post-mortems (`None` = disabled).
    flight_dir: Option<std::path::PathBuf>,
    flight_dumps: u32,
    /// Panic after the dump (see [`Sim::set_oracle_panic`]).
    panic: bool,
}

impl Tripwire {
    /// `rec` just tripped the oracle: dump, then panic if armed. The
    /// violation's counter names its kind — `watchdog.*` for a protocol
    /// watchdog, else the delivery ledger.
    fn tripped(&mut self, obs: &mut Observers, nodes: &[NodeSlot], rec: &TraceRecord) {
        let (counter, detail) = obs.lineage().last_violation().unwrap_or(("?", "?"));
        let (kind, oracle) = if counter.starts_with("watchdog.") {
            ("watchdog", "invariant watchdog")
        } else {
            ("ledger", "delivery ledger")
        };
        let detail = detail.to_owned();
        self.flight_dump(obs, nodes, rec, &format!("{kind}: {detail}"));
        if self.panic {
            panic!("{oracle}: {detail}");
        }
    }

    /// Writes a post-mortem for the violation just observed on `rec`:
    /// the `reason`, the offending record, that event's reconstructed
    /// lineage span, a metrics snapshot (`metrics.csv` rows) and the tail
    /// of the trace ring, which ends with the offending record. Bounded
    /// to [`Sim::MAX_FLIGHT_DUMPS`] files per run; a disabled recorder
    /// (`flight_dir == None`) costs one branch.
    fn flight_dump(
        &mut self,
        obs: &mut Observers,
        nodes: &[NodeSlot],
        rec: &TraceRecord,
        reason: &str,
    ) {
        const TRACE_TAIL: usize = 256;
        let Some(dir) = self.flight_dir.clone() else {
            return;
        };
        if self.flight_dumps >= Sim::MAX_FLIGHT_DUMPS {
            return;
        }
        let seq = self.flight_dumps;
        self.flight_dumps += 1;
        obs.count(crate::names::LINEAGE_FLIGHT_DUMPS, 1.0);
        let mut out = String::new();
        out.push_str(&format!(
            "# gryphon flight recorder post-mortem {seq}\n\
             time_us: {}\nnode: {} ({})\nreason: {reason}\n\
             offending_event: {:?}\n\n",
            rec.t_us,
            rec.node,
            node_name(nodes, rec.node),
            rec.event,
        ));
        out.push_str("## lineage of offending event\n");
        match rec.event.lineage_key() {
            Some(key) => match obs.lineage().span(key) {
                Some(span) => out.push_str(&span.render(key)),
                None => out.push_str(&format!("{key}: no span assembled\n")),
            },
            None => out.push_str("(event carries no lineage key)\n"),
        }
        out.push_str("\n## metrics snapshot\n");
        out.push_str(&MetricsSnapshot::from_metrics(obs.metrics()).to_csv());
        out.push_str(&format!("\n## trace ring tail (last {TRACE_TAIL})\n"));
        let tail: Vec<&TraceRecord> = obs.trace_records().rev().take(TRACE_TAIL).collect();
        for r in tail.into_iter().rev() {
            out.push_str(&format!("{} {} {:?}\n", r.t_us, r.node, r.event));
        }
        let path = dir.join(format!("postmortem-{seq}.txt"));
        // Best-effort: a full disk must not mask the original violation.
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(&path, out);
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

/// A hosted node: any [`Node`] whose concrete type can be recovered.
trait Hosted: Node + Any {}
impl<T: Node + Any> Hosted for T {}

/// A boxed node that remembers its concrete type, so a [`Handle`] can
/// borrow it back. Both runtimes store their nodes as this.
pub struct AnyNode(Box<dyn Hosted>);

impl AnyNode {
    /// Wraps a node, remembering that it is a `T`.
    pub fn typed<T: Node + 'static>(node: T) -> AnyNode {
        AnyNode(Box::new(node))
    }

    /// The node, for dispatch.
    pub fn as_dyn(&mut self) -> &mut dyn Node {
        self.0.as_mut()
    }

    /// Borrows the node as a `T`.
    ///
    /// # Panics
    ///
    /// Panics unless the node is a `T`.
    pub fn downcast_ref<T: Node + 'static>(&self) -> &T {
        let any: &dyn Any = &*self.0;
        any.downcast_ref().expect("handle type mismatch")
    }

    /// Mutably borrows the node as a `T`.
    ///
    /// # Panics
    ///
    /// As [`AnyNode::downcast_ref`].
    pub fn downcast_mut<T: Node + 'static>(&mut self) -> &mut T {
        let any: &mut dyn Any = &mut *self.0;
        any.downcast_mut().expect("handle type mismatch")
    }
}

impl Sim {
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
        self.sim.queue.push(
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
        self.sim
            .queue
            .push(at, EventKind::Timer { node: self.me, key });
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    fn work(&mut self, cost_us: u64) {
        if let Some(slot) = self.sim.nodes.get_mut(self.me.0 as usize) {
            slot.busy_us += cost_us;
        }
        self.interval(KIND_BUSY, cost_us);
    }

    fn observers(&mut self) -> Option<&mut Observers> {
        Some(&mut self.sim.obs)
    }

    /// The oracle's verdict sets off the tripwire.
    fn trace(&mut self, event: TraceEvent) {
        self.sim.push_trace(self.me, event);
    }

    /// As `trace`: a subscriber that trips the ledger sets off the
    /// tripwire.
    fn delivered(
        &mut self,
        pubend: PubendId,
        ts: Timestamp,
        path: DeliveryPath,
        subs: &[SubscriberId],
    ) {
        let sim = &mut *self.sim;
        let (trip, nodes) = (&mut sim.trip, &sim.nodes);
        sim.obs
            .delivered(sim.now, self.me, pubend, ts, path, subs, |obs, rec| {
                trip.tripped(obs, nodes, &rec)
            });
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

    /// Forensics memory is bounded even with a pathologically small
    /// ring: the busy-interval ring evicts (counting each loss into
    /// `forensics.interval_dropped`) instead of growing, and what reaches
    /// the timeline respects the timeline's own caps.
    #[test]
    fn forensics_stay_bounded_and_count_drops() {
        let mut sim = Sim::new(0);
        let a = sim.add_typed_node(
            "a",
            Recorder {
                arrivals: vec![],
                bounce: false,
            },
        );
        sim.enable_telemetry(1_000_000);
        sim.obs.set_interval_capacity(8);
        // 200 charged callbacks, one busy interval each, in one window.
        for t in 0..200 {
            sim.inject_ctrl(t, a.id(), dummy_msg());
        }
        sim.run_until(2_000_000);
        let dropped = sim
            .metrics()
            .counter(crate::names::FORENSICS_INTERVAL_DROPPED);
        assert!(
            dropped > 0.0,
            "tiny ring never dropped — bound not exercised"
        );
        let t = sim.telemetry().expect("sampler armed");
        assert_eq!(t.intervals().len() as f64 + dropped, 200.0);
        assert!(t.intervals().len() <= crate::telemetry::TIMELINE_INTERVAL_CAP);
        assert!(t.exemplars().len() <= crate::telemetry::TIMELINE_EXEMPLAR_CAP);
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

    /// A host that writes only the acting half and hands out its
    /// observers: the provided methods do the rest.
    struct StubCtx {
        obs: Observers,
        rng: SmallRng,
    }

    impl StubCtx {
        fn new() -> StubCtx {
            StubCtx {
                obs: Observers::new(16),
                rng: SmallRng::seed_from_u64(0),
            }
        }
    }

    impl NodeCtx for StubCtx {
        fn now_us(&self) -> u64 {
            7
        }
        fn me(&self) -> NodeId {
            NodeId(3)
        }
        fn send(&mut self, _: NodeId, _: NetMsg) {}
        fn set_timer(&mut self, _: u64, _: TimerKey) {}
        fn rng(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
        fn work(&mut self, _: u64) {}
        fn observers(&mut self) -> Option<&mut Observers> {
            Some(&mut self.obs)
        }
    }

    /// A wrapper with no observers of its own that overrides only
    /// `trace`, the way a tracing wrapper forwards to its inner context.
    struct Wrapper<'a> {
        inner: &'a mut StubCtx,
        seen: Vec<TraceEvent>,
    }

    impl NodeCtx for Wrapper<'_> {
        fn now_us(&self) -> u64 {
            self.inner.now_us()
        }
        fn me(&self) -> NodeId {
            self.inner.me()
        }
        fn send(&mut self, to: NodeId, msg: NetMsg) {
            self.inner.send(to, msg);
        }
        fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
            self.inner.set_timer(delay_us, key);
        }
        fn rng(&mut self) -> &mut SmallRng {
            self.inner.rng()
        }
        fn work(&mut self, cost_us: u64) {
            self.inner.work(cost_us);
        }
        fn trace(&mut self, event: TraceEvent) {
            self.seen.push(event.clone());
            self.inner.trace(event);
        }
    }

    fn delivered_event(ts: u64, sub: u64) -> TraceEvent {
        TraceEvent::Delivered {
            pubend: PubendId(0),
            ts: Timestamp(ts),
            sub: SubscriberId(sub),
            path: DeliveryPath::Constream,
        }
    }

    #[test]
    fn provided_observation_half_reaches_the_hosts_observers() {
        use crate::sketch::DIM_SUB_BYTES;
        let mut ctx = StubCtx::new();
        ctx.count("c", 2.0);
        ctx.observe("h", 5.0);
        ctx.gauge("g", 1.5);
        ctx.record("s", 4.0);
        // Disarmed: the interval and the attribution are discarded.
        ctx.interval(KIND_BUSY, 5);
        ctx.attribute(DIM_SUB_BYTES, 41, 9);
        let m = ctx.obs.metrics();
        assert_eq!(m.counter("c"), 2.0);
        assert_eq!(m.histogram("h").map(|h| h.count()), Some(1));
        assert_eq!(m.gauge("g"), Some(1.5));
        assert_eq!(m.series("s"), &[(7, 4.0)]);

        ctx.obs.arm_windows(1_000);
        ctx.interval(KIND_BUSY, 5);
        ctx.attribute(DIM_SUB_BYTES, 42, 9);
        ctx.obs.close_window(7, 1_000);
        let t = ctx.obs.timeline().expect("windows armed");
        let ivs: Vec<&BusyInterval> = t.intervals().collect();
        assert_eq!(
            ivs,
            [&BusyInterval {
                track: 3,
                kind: KIND_BUSY,
                start_us: 2,
                dur_us: 5,
            }]
        );
        let bytes = t
            .topks()
            .find(|s| s.dim == DIM_SUB_BYTES)
            .expect("attribution drained");
        let entities: Vec<u64> = bytes.entries.iter().map(|e| e.entity).collect();
        assert_eq!(entities, [42]);

        if !crate::TRACE_ENABLED {
            return;
        }
        // A traced record goes through the oracle, stamped by the host.
        ctx.trace(delivered_event(5, 1));
        ctx.trace(delivered_event(5, 1));
        assert_eq!(ctx.obs.lineage().violations(), 1);
        let rec = ctx.obs.trace_records().last().expect("retained");
        assert_eq!((rec.t_us, rec.node), (7, NodeId(3)));
        // One delivered report; the ledger checks every subscriber, so
        // the repeat within it trips once.
        let subs = [SubscriberId(1), SubscriberId(2), SubscriberId(1)];
        ctx.delivered(PubendId(0), Timestamp(6), DeliveryPath::Constream, &subs);
        assert_eq!(ctx.obs.lineage().violations(), 2);
    }

    #[test]
    fn default_delivered_traces_once_per_subscriber_without_observers() {
        let mut inner = StubCtx::new();
        let mut ctx = Wrapper {
            inner: &mut inner,
            seen: Vec::new(),
        };
        let subs = [SubscriberId(1), SubscriberId(2)];
        ctx.delivered(PubendId(0), Timestamp(9), DeliveryPath::Constream, &subs);
        assert_eq!(ctx.seen, [delivered_event(9, 1), delivered_event(9, 2)]);
        if crate::TRACE_ENABLED {
            assert_eq!(inner.obs.trace_records().count(), 2);
        }
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
