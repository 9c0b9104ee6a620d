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
//! # Hosting nodes
//!
//! What a host writes is small, and the rest is written here once. A
//! host implements the acting half of [`NodeCtx`] — `now_us`, `me`,
//! `send`, `set_timer`, `rng`, `work` — plus [`NodeCtx::observers`],
//! which hands out its [`Observers`]; the observation half has provided
//! bodies that forward to them. It schedules through an [`Agenda`], the
//! one `(time, push order)` queue ([`Sim`] keeps its events in one, each
//! `gryphon-net` worker its timers), arms its windows with
//! [`Observers::arm_windows`] and closes them with
//! [`Observers::close_window`]. It stores its nodes as [`AnyNode`]s, so
//! a [`Handle`] borrows them back.
//!
//! # Observability
//!
//! Everything that observes a run — metrics, a bounded ring of structured
//! [`trace::TraceEvent`]s, delivery lineage with the correctness oracle
//! ([`Lineage`]: the exactly-once ledger and the three protocol-invariant
//! watchdogs, one checker that counts and never panics), tail forensics,
//! the population sketch — has one owner, [`Observers`], which both
//! runtimes embed (DESIGN.md §9). What a violation does is the runtime's
//! call: [`Sim`] dumps a post-mortem and then panics if armed
//! ([`Sim::set_oracle_panic`]); `gryphon-net` only counts. Nodes report
//! through [`NodeCtx`]; instrumentation sites wrap the call in
//! [`traced!`], so building with `--no-default-features` (the `trace`
//! feature off) compiles the instrumentation out of every hot path.
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
//! let echo = sim.add_typed_node("echo", Echo).id();
//! let probe = sim.add_typed_node("probe", Echo).id();
//! sim.connect(echo, probe, 1_000); // 1 ms links both ways
//! sim.inject_from(0, probe, echo, NetMsg::SubInterest(gryphon_types::SubInterestMsg { version: 0, change: gryphon_types::InterestChange::Snapshot(vec![]) }));
//! sim.run_until(10_000);
//! assert!(sim.metrics().series("echoed").len() >= 2); // ping-pongs until time runs out
//! ```

mod agenda;
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

pub use agenda::Agenda;
pub use forensics::{BusyInterval, Exemplar, ExemplarReservoir};
pub use health::{default_rules, AlertRecord, AlertState, HealthEngine, HealthRule, RuleKind};
pub use lineage::{LedgerAudit, Lineage, Span};
pub use metrics::{names, Histogram, HistogramSummary, Metrics, MetricsSnapshot};
pub use observers::Observers;
pub use runtime::{AnyNode, Handle, LinkParams, Node, NodeCtx, Sim, TimerKey, CONTROL_NODE};
pub use sketch::{
    LagSpectrum, PopulationSketch, SpaceSaving, SpectrumStats, TopKEntry, TopKSnapshot,
};
pub use trace::{DeliveryPath, TraceEvent, TraceRecord, TRACE_ENABLED};
