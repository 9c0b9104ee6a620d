//! Structured trace events, the bounded trace ring buffer, and the
//! runtime invariant watchdogs that consume the trace stream.
//!
//! ## Why traces and not just counters
//!
//! The paper's evaluation is about *internal* broker behavior: when the
//! pubend timestamps and logs, when an SHB switches a subscriber from its
//! catchup stream to the consolidated stream, how large PFS backpointer
//! reads are. Counters aggregate those facts away; the trace stream keeps
//! the individual transitions (bounded by a ring buffer) so tests and the
//! `xp --trace` flag can inspect them, and so the watchdogs can check the
//! paper's safety invariants *continuously during simulation* instead of
//! only at end-of-run.
//!
//! ## Cost model
//!
//! Tracing is compiled out when the `trace` feature of `gryphon-sim` is
//! disabled: the [`traced!`](crate::traced) macro's expansion becomes
//! dead code (events are never constructed). With the feature enabled, a
//! push is an enum move into a bounded ring (`ring::Ring`) plus an
//! O(1) watchdog lookup.
//!
//! ## Watchdogs
//!
//! Three invariants from the paper are checked online:
//!
//! * **gap-free constream** (§4.1): successive constream advances for one
//!   `(node, pubend)` must be contiguous — each advance starts exactly
//!   where the previous one ended;
//! * **monotone doubt horizon** (§3): the doubt horizon never regresses;
//! * **only-once logging** (§2): the PHB logs each timestamp at most once,
//!   in ascending order.
//!
//! The first two reset when a node restarts (recovery legitimately
//! re-derives delivery state from the persistent `latestDelivered`); the
//! logging invariant deliberately survives restarts, because
//! `restart_at` must re-timestamp above everything previously logged.
//! Violations bump `watchdog.*` counters and, when
//! [`Watchdogs::panic_on_violation`] is set (the default under
//! `cfg(debug_assertions)`), panic with a description.

use crate::Metrics;
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

/// Online invariant checkers fed from the trace stream.
///
/// See the [module docs](self) for the three invariants. State is keyed
/// per `(node, pubend)` so multi-broker topologies are checked
/// independently per broker.
#[derive(Debug)]
pub struct Watchdogs {
    /// Last constream `new_to` per (node, pubend).
    constream: std::collections::HashMap<(NodeId, PubendId), Timestamp>,
    /// Last doubt horizon per (node, pubend).
    doubt: std::collections::HashMap<(NodeId, PubendId), Timestamp>,
    /// Highest logged tick per (node, pubend); never reset.
    logged: std::collections::HashMap<(NodeId, PubendId), Timestamp>,
    /// Panic on violation (defaults to `cfg!(debug_assertions)`);
    /// corruption tests disable this to count violations instead.
    pub panic_on_violation: bool,
    /// Defer an armed panic to [`Watchdogs::take_deferred_panic`]
    /// instead of unwinding inside [`Watchdogs::observe`]. The simulator
    /// sets this so its flight recorder can dump a post-mortem *before*
    /// the panic fires; the threaded runtime leaves it off (panic at the
    /// point of detection).
    pub defer_panic: bool,
    violations: u64,
    constream_gaps: u64,
    doubt_regressions: u64,
    double_logs: u64,
    deferred_panic: Option<String>,
    last_detail: Option<String>,
}

pub use crate::metrics::names::{
    WATCHDOG_CONSTREAM_GAP, WATCHDOG_DOUBT_REGRESSION, WATCHDOG_DUPLICATE_LOG,
};

impl Default for Watchdogs {
    fn default() -> Self {
        Watchdogs {
            constream: std::collections::HashMap::new(),
            doubt: std::collections::HashMap::new(),
            logged: std::collections::HashMap::new(),
            panic_on_violation: cfg!(debug_assertions),
            defer_panic: false,
            violations: 0,
            constream_gaps: 0,
            doubt_regressions: 0,
            double_logs: 0,
            deferred_panic: None,
            last_detail: None,
        }
    }
}

impl Watchdogs {
    /// Total violations observed across all three invariants (the
    /// backward-compatible aggregate; per-kind counts below).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Gap-free-constream violations.
    pub fn constream_gaps(&self) -> u64 {
        self.constream_gaps
    }

    /// Monotone-doubt-horizon violations.
    pub fn doubt_regressions(&self) -> u64 {
        self.doubt_regressions
    }

    /// Only-once-logging violations.
    pub fn double_logs(&self) -> u64 {
        self.double_logs
    }

    /// Human-readable description of the most recent violation.
    pub fn last_detail(&self) -> Option<&str> {
        self.last_detail.as_deref()
    }

    /// Takes the pending armed-panic message, if [`Watchdogs::defer_panic`]
    /// held one back during [`Watchdogs::observe`]. The caller is
    /// expected to panic with it after its own post-mortem handling.
    pub fn take_deferred_panic(&mut self) -> Option<String> {
        self.deferred_panic.take()
    }

    fn violate(&mut self, metrics: &mut Metrics, counter: &str, detail: String) {
        self.violations += 1;
        match counter {
            WATCHDOG_CONSTREAM_GAP => self.constream_gaps += 1,
            WATCHDOG_DOUBT_REGRESSION => self.doubt_regressions += 1,
            WATCHDOG_DUPLICATE_LOG => self.double_logs += 1,
            _ => {}
        }
        metrics.count(counter, 1.0);
        if self.panic_on_violation {
            if self.defer_panic {
                self.deferred_panic.get_or_insert_with(|| detail.clone());
            } else {
                panic!("invariant watchdog: {detail}");
            }
        }
        self.last_detail = Some(detail);
    }

    /// Feeds one record through the checkers.
    pub fn observe(&mut self, rec: &TraceRecord, metrics: &mut Metrics) {
        match rec.event {
            TraceEvent::ConstreamGapCheck {
                pubend,
                prev,
                new_to,
            } => {
                let key = (rec.node, pubend);
                if let Some(&last) = self.constream.get(&key) {
                    if prev != last {
                        self.violate(
                            metrics,
                            WATCHDOG_CONSTREAM_GAP,
                            format!(
                                "constream gap at {} {pubend}: advance starts at {prev} \
                                 but previous advance ended at {last}",
                                rec.node
                            ),
                        );
                    }
                }
                self.constream.insert(key, new_to);
            }
            TraceEvent::DoubtAdvanced { pubend, horizon } => {
                let key = (rec.node, pubend);
                if let Some(&last) = self.doubt.get(&key) {
                    if horizon < last {
                        self.violate(
                            metrics,
                            WATCHDOG_DOUBT_REGRESSION,
                            format!(
                                "doubt horizon regressed at {} {pubend}: {horizon} < {last}",
                                rec.node
                            ),
                        );
                    }
                }
                self.doubt.insert(key, horizon);
            }
            TraceEvent::EventLogged { pubend, ts, .. } => {
                let key = (rec.node, pubend);
                if let Some(&last) = self.logged.get(&key) {
                    if ts <= last {
                        self.violate(
                            metrics,
                            WATCHDOG_DUPLICATE_LOG,
                            format!(
                                "only-once logging violated at {} {pubend}: logged {ts} \
                                 after {last}",
                                rec.node
                            ),
                        );
                    }
                }
                let e = self.logged.entry(key).or_insert(Timestamp::ZERO);
                *e = (*e).max(ts);
            }
            TraceEvent::NodeRestarted => {
                // Post-restart recovery rebuilds delivery state from the
                // persisted latestDelivered, which may sit below the
                // pre-crash in-memory frontier: both delivery-side
                // checkers restart from scratch. The logging checker
                // intentionally does NOT reset (see module docs).
                self.constream.retain(|&(n, _), _| n != rec.node);
                self.doubt.retain(|&(n, _), _| n != rec.node);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: NodeId = NodeId(3);
    const P: PubendId = PubendId(0);

    fn rec(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_us: 1,
            node: N,
            event,
        }
    }

    fn quiet_watchdogs() -> Watchdogs {
        Watchdogs {
            panic_on_violation: false,
            ..Watchdogs::default()
        }
    }

    #[test]
    fn constream_watchdog_accepts_contiguous_flags_gap() {
        let mut w = quiet_watchdogs();
        let mut m = Metrics::default();
        let adv = |prev: u64, new_to: u64| {
            rec(TraceEvent::ConstreamGapCheck {
                pubend: P,
                prev: Timestamp(prev),
                new_to: Timestamp(new_to),
            })
        };
        w.observe(&adv(0, 10), &mut m);
        w.observe(&adv(10, 25), &mut m);
        assert_eq!(w.violations(), 0);
        w.observe(&adv(30, 40), &mut m); // hole: 25 → 30
        assert_eq!(w.violations(), 1);
        assert_eq!(w.constream_gaps(), 1);
        assert_eq!(w.doubt_regressions(), 0);
        assert_eq!(m.counter(WATCHDOG_CONSTREAM_GAP), 1.0);
        assert!(w.last_detail().unwrap().contains("constream gap"));
    }

    #[test]
    fn constream_watchdog_resets_on_restart() {
        let mut w = quiet_watchdogs();
        let mut m = Metrics::default();
        w.observe(
            &rec(TraceEvent::ConstreamGapCheck {
                pubend: P,
                prev: Timestamp(0),
                new_to: Timestamp(50),
            }),
            &mut m,
        );
        w.observe(&rec(TraceEvent::NodeRestarted), &mut m);
        // Post-restart the constream restarts from the persisted
        // latestDelivered (here 20): not a gap.
        w.observe(
            &rec(TraceEvent::ConstreamGapCheck {
                pubend: P,
                prev: Timestamp(20),
                new_to: Timestamp(60),
            }),
            &mut m,
        );
        assert_eq!(w.violations(), 0);
    }

    #[test]
    fn doubt_watchdog_flags_regression() {
        let mut w = quiet_watchdogs();
        let mut m = Metrics::default();
        let at = |h: u64| {
            rec(TraceEvent::DoubtAdvanced {
                pubend: P,
                horizon: Timestamp(h),
            })
        };
        w.observe(&at(5), &mut m);
        w.observe(&at(5), &mut m); // equal is fine
        w.observe(&at(9), &mut m);
        assert_eq!(w.violations(), 0);
        w.observe(&at(4), &mut m);
        assert_eq!(w.violations(), 1);
        assert_eq!(w.doubt_regressions(), 1);
        assert_eq!(m.counter(WATCHDOG_DOUBT_REGRESSION), 1.0);
    }

    #[test]
    fn log_watchdog_flags_duplicate_and_survives_restart() {
        let mut w = quiet_watchdogs();
        let mut m = Metrics::default();
        let log = |ts: u64| {
            rec(TraceEvent::EventLogged {
                pubend: P,
                ts: Timestamp(ts),
                bytes: 418,
            })
        };
        w.observe(&log(3), &mut m);
        w.observe(&log(7), &mut m);
        assert_eq!(w.violations(), 0);
        w.observe(&rec(TraceEvent::NodeRestarted), &mut m);
        w.observe(&log(7), &mut m); // re-logging after restart is the §2 bug
        assert_eq!(w.violations(), 1);
        assert_eq!(w.double_logs(), 1);
        assert_eq!(m.counter(WATCHDOG_DUPLICATE_LOG), 1.0);
    }

    /// With `defer_panic`, an armed violation is held back for the
    /// caller (the simulator's flight recorder) instead of unwinding
    /// inside `observe`.
    #[test]
    fn armed_watchdog_defers_panic_when_asked() {
        let mut w = Watchdogs {
            panic_on_violation: true,
            defer_panic: true,
            ..Watchdogs::default()
        };
        let mut m = Metrics::default();
        let at = |h: u64| {
            rec(TraceEvent::DoubtAdvanced {
                pubend: P,
                horizon: Timestamp(h),
            })
        };
        w.observe(&at(9), &mut m);
        w.observe(&at(2), &mut m); // would panic undeferred
        assert_eq!(w.violations(), 1);
        let msg = w.take_deferred_panic().unwrap();
        assert!(msg.contains("doubt horizon regressed"));
        assert!(w.take_deferred_panic().is_none(), "taken exactly once");
    }

    #[test]
    #[should_panic(expected = "invariant watchdog")]
    fn watchdog_panics_when_armed() {
        let mut w = Watchdogs {
            panic_on_violation: true,
            ..Watchdogs::default()
        };
        let mut m = Metrics::default();
        w.observe(
            &rec(TraceEvent::DoubtAdvanced {
                pubend: P,
                horizon: Timestamp(9),
            }),
            &mut m,
        );
        w.observe(
            &rec(TraceEvent::DoubtAdvanced {
                pubend: P,
                horizon: Timestamp(2),
            }),
            &mut m,
        );
    }
}
