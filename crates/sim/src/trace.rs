//! Structured trace events, which the bounded trace ring retains and the
//! correctness oracle consumes.
//!
//! ## Why traces and not just counters
//!
//! The paper's evaluation is about *internal* broker behavior: when the
//! pubend timestamps and logs, when an SHB switches a subscriber from its
//! catchup stream to the consolidated stream, how large PFS backpointer
//! reads are. Counters aggregate those facts away; the trace stream keeps
//! the individual transitions (bounded by a ring buffer) so tests and the
//! `xp --trace` flag can inspect them, and so the correctness oracle can
//! check the paper's safety invariants *continuously during simulation*
//! instead of only at end-of-run.
//!
//! ## Cost model
//!
//! Tracing is compiled out when the `trace` feature of `gryphon-sim` is
//! disabled: the [`traced!`](crate::traced) macro's expansion becomes
//! dead code (events are never constructed). With the feature enabled, a
//! push is an enum move into a bounded ring (`ring::Ring`) plus the
//! oracle's O(1) frontier lookup.
//!
//! ## The oracle
//!
//! One checker judges every record: [`Lineage`](crate::Lineage) holds
//! the exactly-once delivery ledger and the three protocol-invariant
//! watchdogs (gap-free constream §4.1, monotone doubt horizon §3,
//! only-once logging §2; see its module docs). It counts `watchdog.*`
//! and `lineage.ledger.*` violations and never panics; the simulator
//! dumps a post-mortem and then panics if armed
//! ([`Sim::set_oracle_panic`](crate::Sim::set_oracle_panic)), the
//! threaded runtime only counts.

use gryphon_types::{NodeId, PubendId, SubscriberId, Timestamp};

/// Whether instrumentation is compiled in: the `trace` feature of
/// `gryphon-sim`, evaluated here so that [`traced!`](crate::traced) call
/// sites in other crates need no feature of their own.
pub const TRACE_ENABLED: bool = cfg!(feature = "trace");

/// Wraps one observation call on a [`NodeCtx`](crate::NodeCtx) —
/// `traced!(ctx.trace(event))`, `traced!(ctx.observe(name, v))`, likewise
/// `count`, `record` and `gauge` — so that it is compiled out when the
/// `trace` feature of `gryphon-sim` is disabled: the condition is a
/// constant, so the call is type-checked but its arguments are never
/// built and instrumented hot paths carry no cost.
#[macro_export]
macro_rules! traced {
    ($call:expr) => {
        if $crate::TRACE_ENABLED {
            $call;
        }
    };
}

/// Which SHB delivery path carried an event to a subscriber (§4.1):
/// the shared consolidated stream, or the subscriber's private catchup
/// stream while it closes its doubt interval after a reconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPath {
    /// Delivered from the consolidated stream.
    Constream,
    /// Delivered from a per-subscriber catchup stream.
    Catchup,
}

/// One structured, typed trace event. Variants mirror the paper's
/// protocol transitions; all are attributed to the emitting node by the
/// surrounding [`TraceRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The pubend assigned timestamp `ts` to a published event (§2).
    PubendTimestamped {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Assigned tick.
        ts: Timestamp,
    },
    /// The PHB durably logged the event at `ts` (`bytes` on the wire) —
    /// the only-once logging point (§2).
    EventLogged {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Logged tick.
        ts: Timestamp,
        /// Encoded size appended to the event log.
        bytes: usize,
    },
    /// Knowledge at or below `upto` was converted to `L` (lost) by the
    /// release protocol chopping the log (§3.4).
    LConverted {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Highest tick now lost.
        upto: Timestamp,
    },
    /// An SHB began a per-subscriber catchup stream (§4.1).
    CatchupStarted {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Reconnecting subscriber.
        sub: SubscriberId,
        /// First tick the subscriber still doubts.
        from: Timestamp,
    },
    /// A catchup stream caught up and the subscriber switched to the
    /// consolidated stream (§4.1); `latency_us` is time since
    /// [`TraceEvent::CatchupStarted`].
    Switchover {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Subscriber switching over.
        sub: SubscriberId,
        /// Catchup duration in virtual µs.
        latency_us: u64,
    },
    /// The consolidated stream advanced from `prev` (exclusive) to
    /// `new_to` (inclusive); the gap-free watchdog checks contiguity.
    ConstreamGapCheck {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Previous processed-to tick.
        prev: Timestamp,
        /// New processed-to tick.
        new_to: Timestamp,
    },
    /// The doubt horizon for `pubend` advanced to `horizon`; the
    /// monotonicity watchdog checks it never regresses (§3).
    DoubtAdvanced {
        /// Publishing endpoint.
        pubend: PubendId,
        /// New doubt horizon.
        horizon: Timestamp,
    },
    /// A PFS backpointer batch read completed (§4.2).
    PfsBatchRead {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Subscriber whose chain was walked.
        sub: SubscriberId,
        /// Records visited by the walk.
        records: usize,
        /// Matched (`Q`) ticks returned.
        q_ticks: usize,
        /// Whether the read drained every available tick.
        full: bool,
    },
    /// A curiosity/nack for `(from, to]` was consolidated upstream;
    /// `fan_in` is how many distinct downstream wants merged into it (§4.3).
    NackConsolidated {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Exclusive lower bound of the nacked range.
        from: Timestamp,
        /// Inclusive upper bound of the nacked range.
        to: Timestamp,
        /// Downstream requests merged into this upstream nack.
        fan_in: usize,
    },
    /// The release protocol advanced `released(p)`, allowing log chops.
    ReleaseAdvanced {
        /// Publishing endpoint.
        pubend: PubendId,
        /// New released tick.
        released: Timestamp,
    },
    /// An IB sent the event at `ts` downstream (lineage stage:
    /// PHB→IB forward). Emitted per child at the actual send, so
    /// re-forwards on the nack path re-emit; the lineage assembler keeps
    /// the first occurrence per span.
    IbForwarded {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Forwarded tick.
        ts: Timestamp,
    },
    /// An SHB absorbed the event at `ts` into its streams (lineage
    /// stage: IB→SHB ingest). Keyed per SHB node by the surrounding
    /// [`TraceRecord`]; recovery-path re-ingests re-emit and the
    /// assembler keeps the first occurrence per (node, span).
    ShbIngested {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Ingested tick.
        ts: Timestamp,
    },
    /// An SHB handed the event at `ts` to subscriber `sub` (lineage
    /// stage: final delivery). For JMS-gated subscribers this is the
    /// queue-accept point — the broker-side exactly-once commitment —
    /// not the later outbox drain.
    Delivered {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Delivered tick.
        ts: Timestamp,
        /// Receiving subscriber.
        sub: SubscriberId,
        /// Which SHB stream carried it.
        path: DeliveryPath,
    },
    /// An SHB told subscriber `sub` that ticks up to `upto` are lost
    /// (released before the subscriber resumed); the ledger checks the
    /// range never exceeds the release/L-conversion boundary.
    GapDelivered {
        /// Publishing endpoint.
        pubend: PubendId,
        /// Receiving subscriber.
        sub: SubscriberId,
        /// Highest tick covered by the gap.
        upto: Timestamp,
    },
    /// A subscriber (re)connected and its per-pubend delivery cursor was
    /// positioned at `at`: deliveries at or below `at` would be
    /// duplicates across the reconnect. Starts a ledger session.
    SubResumed {
        /// Reconnecting subscriber.
        sub: SubscriberId,
        /// Publishing endpoint.
        pubend: PubendId,
        /// Resume checkpoint (exclusive floor for new deliveries).
        at: Timestamp,
    },
    /// The runtime restarted this node after a crash; watchdog delivery
    /// state for the node resets.
    NodeRestarted,
    /// A node received a message kind it has no handler for (e.g. a
    /// server-bound message delivered to a broker); `tag` is the
    /// message's wire tag.
    UnexpectedMsg {
        /// Wire tag of the dropped message (see `NetMsg::tag`).
        tag: &'static str,
    },
    /// The online health engine transitioned a rule (DESIGN.md §9).
    /// Attributed to the control pseudo-node; clean runs emit none of
    /// these, so arming the engine never perturbs a healthy golden run.
    HealthAlert {
        /// Rule name (counter `health.alert.<rule>`).
        rule: String,
        /// The timeline series the rule watches.
        series: String,
        /// `true` on firing, `false` on clearing.
        firing: bool,
    },
}

impl TraceEvent {
    /// The lineage span key `(pubend, timestamp)` this event is a stage
    /// of, for events that concern exactly one persistent event.
    pub fn lineage_key(&self) -> Option<gryphon_types::LineageKey> {
        match *self {
            TraceEvent::PubendTimestamped { pubend, ts }
            | TraceEvent::EventLogged { pubend, ts, .. }
            | TraceEvent::IbForwarded { pubend, ts }
            | TraceEvent::ShbIngested { pubend, ts }
            | TraceEvent::Delivered { pubend, ts, .. } => {
                Some(gryphon_types::LineageKey::new(pubend, ts))
            }
            TraceEvent::GapDelivered { pubend, upto, .. } => {
                Some(gryphon_types::LineageKey::new(pubend, upto))
            }
            _ => None,
        }
    }
}

/// A trace event plus its coordinates: when and at which node.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of emission (µs).
    pub t_us: u64,
    /// Node the event is attributed to.
    pub node: NodeId,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// One-line human-readable rendering (used by `xp --trace`).
    pub fn render(&self, node_name: &str) -> String {
        format!("{:>12} µs  {:<8} {:?}", self.t_us, node_name, self.event)
    }
}

/// Default capacity of the simulator's trace ring (records).
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;
