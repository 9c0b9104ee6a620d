//! Deterministic discrete-event runtime for the Gryphon reproduction.
//!
//! The paper's experiments run a broker overlay for hundreds of seconds
//! and inject an SHB crash; reproducing those *time series* reliably on a
//! laptop requires virtual time. Every broker and client in this
//! workspace is a synchronous state machine implementing [`Node`]; this
//! crate drives those machines with:
//!
//! * a virtual clock (microseconds) and a seeded RNG — identical seeds
//!   produce identical runs, so every failure-injection experiment is
//!   replayable;
//! * FIFO links with configurable latency, jitter and loss (TCP in the
//!   paper; FIFO per link is all the protocols require);
//! * timers, node crash/restart injection, per-node CPU accounting (for
//!   the paper's "% CPU idle" plots) and a metrics recorder.
//!
//! The same [`Node`] impls also run on real threads (`gryphon-net`) for
//! wall-clock benchmarks.
//!
//! # Observability
//!
//! Everything that observes a run — metrics, a bounded ring of structured
//! [`trace::TraceEvent`]s, the protocol-invariant [`trace::Watchdogs`],
//! the delivery-lineage ledger, tail forensics, the population sketch —
//! has one owner, [`Observers`], which both runtimes embed (DESIGN.md
//! §9). Nodes report through [`NodeCtx`]; instrumentation sites wrap the
//! call in [`traced!`], so building with `--no-default-features` (the
//! `trace` feature off) compiles the instrumentation out of every hot
//! path.
//!
//! # Examples
//!
//! ```
//! use gryphon_sim::{Node, NodeCtx, Sim, TimerKey};
//! use gryphon_types::{NetMsg, NodeId};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
//!         ctx.record("echoed", 1.0);
//!         ctx.send(from, msg); // bounce it back
//!     }
//!     fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
//! }
//!
//! let mut sim = Sim::new(42);
//! let echo = sim.add_node("echo", Box::new(Echo));
//! let probe = sim.add_node("probe", Box::new(Echo));
//! sim.connect(echo, probe, 1_000); // 1 ms links both ways
//! sim.inject(0, probe, echo, NetMsg::SubInterest(gryphon_types::SubInterestMsg { version: 0, change: gryphon_types::InterestChange::Snapshot(vec![]) }));
//! sim.run_until(10_000);
//! assert!(sim.metrics().series("echoed").len() >= 2); // ping-pongs until time runs out
//! ```

pub mod codec;
pub mod forensics;
pub mod health;
pub mod lineage;
mod metrics;
mod observers;
mod ring;
mod runtime;
pub mod sketch;
pub mod telemetry;
pub mod trace;

pub use forensics::{BusyInterval, Exemplar, ExemplarReservoir, ForensicsConfig};
pub use health::{default_rules, AlertRecord, AlertState, HealthEngine, HealthRule, RuleKind};
pub use lineage::{LedgerAudit, Lineage, Span};
pub use metrics::{names, Histogram, HistogramSummary, Metrics, MetricsSnapshot};
pub use observers::{Observers, Oracle};
pub use runtime::{AnyNode, Handle, LinkParams, Node, NodeCtx, Sim, TimerKey, CONTROL_NODE};
pub use sketch::{
    LagSpectrum, PopulationSketch, SketchConfig, SpaceSaving, SpectrumStats, TopKEntry,
    TopKSnapshot,
};
pub use trace::{DeliveryPath, TraceEvent, TraceRecord, Watchdogs, TRACE_ENABLED};
