//! The unified Gryphon broker node, composed from three role components.
//!
//! A [`Broker`] plays any combination of PHB / intermediate / SHB roles,
//! exactly like a Gryphon broker: the 1-broker topology of the paper's
//! Figure 3 hosts pubends *and* subscribers on one node, while the 4-SHB
//! topology separates them across a tree.
//!
//! # Architecture
//!
//! The broker is a thin composition shell: this module holds only the
//! struct, its lifecycle (boot, periodic timers, restart) and the
//! [`Node`] dispatch that classifies each message/timer and hands it to
//! a role. The protocol logic lives in the role modules:
//!
//! * `phb` — publisher hosting: pubend timestamping, the only-once
//!   event log, one broker-wide group-commit window (§2–3);
//! * `ib` — routing: knowledge caching and subtree filtering,
//!   curiosity/nack consolidation, interest versioning, release
//!   aggregation (§3, §5.3);
//! * `shb_role` — subscriber hosting: connect parking, catchup
//!   driving, PFS reads, client handlers (§4).
//!
//! All state scoped to a single pubend — the hosted [`Pubend`], the
//! [`Route`], per-child release reports — lives in one
//! `pipeline::PubendPipeline` keyed once per pubend, so a pubend's
//! whole pipeline is created, restored or dropped as one unit (see
//! `DESIGN.md` §10).

mod ib;
mod phb;
mod pipeline;
mod pubend;
mod route;
mod shb;
mod shb_role;
#[cfg(test)]
mod shb_tests;
mod sub_table;

pub use pubend::Pubend;
pub use route::Route;
pub use shb::{CatchupNeeds, Con, Conn, ConnectRequest, Shb};
pub use sub_table::{PubendMap, SubState, SubscriberTable};

use crate::config::{
    BrokerConfig, CACHE_TRIM_INTERVAL_US, CLIENT_SILENCE_INTERVAL_US, META_PERSIST_INTERVAL_US,
};
use crate::timer::{self, Kind};
use gryphon_sim::{names, traced, Node, NodeCtx, TimerKey, TraceEvent};
use gryphon_storage::{CommitPipeline, EventLog, MediaFactory, VolumeConfig};
use gryphon_streams::RetryPolicy;
use gryphon_types::{NetMsg, NodeId, PubendId, Timestamp};
use ib::IbRole;
use phb::PhbRole;
use pipeline::PubendPipeline;
use shb_role::ShbRole;
use std::collections::HashMap;

/// A Gryphon broker; construct with [`Broker::new`] and assign roles with
/// [`Broker::hosting_pubends`] / [`Broker::hosting_subscribers`], then
/// wire the tree with [`Broker::set_parent`] / [`Broker::add_child`].
///
/// Internally a composition of three role components (PHB, IB, SHB) over
/// a map of per-pubend pipelines; see the [module docs](self) and the
/// [crate docs](crate) for a complete example.
pub struct Broker {
    id: u32,
    config: BrokerConfig,
    factory: Box<dyn MediaFactory>,
    /// Bumped on restart; timers from older epochs are stale.
    epoch: u8,
    parent: Option<NodeId>,
    /// Publisher-hosting role: declared pubends + the only-once log.
    phb: PhbRole,
    /// Intermediate role: children, per-child state, interest versions.
    ib: IbRole,
    /// Subscriber-hosting role: the SHB state machine + parked connects.
    shb: ShbRole,
    /// All per-pubend state, one pipeline per pubend.
    pipelines: HashMap<PubendId, PubendPipeline>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("id", &self.id)
            .field("pipelines", &self.pipelines.len())
            .field("children", &self.ib.children.len())
            .field("shb", &self.shb.state.is_some())
            .finish()
    }
}

const TICK_US: u64 = 1_000; // 1 tick = 1 virtual millisecond

pub(crate) fn now_ticks(ctx: &dyn NodeCtx) -> Timestamp {
    Timestamp(ctx.now_us() / TICK_US)
}

impl Broker {
    /// Creates a broker with persistent storage rooted in `factory`.
    pub fn new(id: u32, factory: Box<dyn MediaFactory>, config: BrokerConfig) -> Self {
        Broker {
            id,
            config,
            factory,
            epoch: 0,
            parent: None,
            phb: PhbRole::default(),
            ib: IbRole::default(),
            shb: ShbRole::default(),
            pipelines: HashMap::new(),
        }
    }

    /// Declares this broker a PHB hosting `pubends`.
    pub fn hosting_pubends(mut self, pubends: impl IntoIterator<Item = PubendId>) -> Self {
        self.phb.declared.extend(pubends);
        self
    }

    /// Declares this broker an SHB (durable subscribers may attach).
    pub fn hosting_subscribers(mut self) -> Self {
        self.shb.hosts_subscribers = true;
        self
    }

    /// Sets the upstream broker (towards the pubend hosts).
    pub fn set_parent(&mut self, parent: NodeId) {
        self.parent = Some(parent);
    }

    /// Adds a downstream broker.
    pub fn add_child(&mut self, child: NodeId) {
        if !self.ib.children.contains(&child) {
            self.ib.children.push(child);
        }
    }

    /// The SHB role state (None for pure PHB/intermediate brokers).
    pub fn shb(&self) -> Option<&Shb> {
        self.shb.state.as_ref()
    }

    /// Mutable SHB access (harness inspection).
    pub fn shb_mut(&mut self) -> Option<&mut Shb> {
        self.shb.state.as_mut()
    }

    /// Hosted pubend state (harness inspection).
    pub fn pubend(&self, p: PubendId) -> Option<&Pubend> {
        self.pipelines.get(&p).and_then(|pl| pl.pubend.as_ref())
    }

    /// Total events published across hosted pubends.
    pub fn published(&self) -> u64 {
        self.pipelines
            .values()
            .filter_map(|pl| pl.pubend.as_ref())
            .map(|p| p.published)
            .sum()
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    fn boot(&mut self, ctx: &mut dyn NodeCtx) {
        let now = now_ticks(ctx);
        if !self.phb.declared.is_empty() {
            let log = EventLog::open(
                self.factory.clone_box(),
                &format!("b{}-events", self.id),
                VolumeConfig::default(),
            )
            .expect("PHB event log must open");
            self.phb.log = Some(CommitPipeline::new(log));
            let declared = self.phb.declared.clone();
            for p in declared {
                self.pipeline_mut(p).pubend = Some(Pubend::new(p, now));
            }
        }
        if self.shb.hosts_subscribers {
            self.shb.state = Some(Shb::open(self.factory.as_ref(), &format!("b{}", self.id)));
        }
        // Every PHB keeps its lost prefix (early release decisions are
        // irreversible and must survive crashes) durable in the event log
        // itself: each release chop's frame carries the chop boundary as
        // its floor, which recovery returns as `chopped_below_ts`.
        // Restore from it:
        if let Some(log) = &self.phb.log {
            for pl in self.pipelines.values_mut() {
                let Some(pe) = pl.pubend.as_mut() else {
                    continue;
                };
                let chopped = log.with(|l| l.chopped_below_ts(pe.id));
                if chopped > Timestamp::ZERO {
                    pe.restore_lost_to(chopped.prev());
                }
            }
        }
        self.arm_periodic(ctx);
    }

    /// Arms every periodic timer this broker's roles run.
    fn arm_periodic(&self, ctx: &mut dyn NodeCtx) {
        for kind in PERIODIC {
            self.arm_period(kind, ctx);
        }
    }

    /// Arms `kind` one period ahead, if it is periodic here.
    fn arm_period(&self, kind: Kind, ctx: &mut dyn NodeCtx) {
        if let Some(period) = self.period_us(kind) {
            ctx.set_timer(period, timer::pack(kind, self.epoch, 0, 0));
        }
    }

    /// How often `kind` fires on this broker: `None` for a one-shot
    /// kind, and for a periodic one this broker's roles do not run
    /// (pubend silence needs declared pubends; PFS sync, meta persist and
    /// client silence need hosted subscribers).
    fn period_us(&self, kind: Kind) -> Option<u64> {
        let pubends = !self.phb.declared.is_empty();
        let subscribers = self.shb.hosts_subscribers;
        match kind {
            Kind::PhbSilence if pubends => Some(self.config.pubend_silence_interval_us),
            Kind::Release => Some(self.config.release_interval_us),
            Kind::CacheTrim => Some(CACHE_TRIM_INTERVAL_US),
            Kind::RetryNacks => Some(RetryPolicy::default().timeout_us),
            Kind::PfsSync if subscribers => Some(self.config.pfs_sync_interval_us),
            Kind::MetaPersist if subscribers => Some(META_PERSIST_INTERVAL_US),
            Kind::ClientSilence if subscribers => Some(CLIENT_SILENCE_INTERVAL_US),
            _ => None,
        }
    }
}

/// The periodic timer kinds, in the order a (re)booting broker arms
/// them; each re-arms itself after its handler ran.
const PERIODIC: [Kind; 7] = [
    Kind::PhbSilence,
    Kind::Release,
    Kind::CacheTrim,
    Kind::RetryNacks,
    Kind::PfsSync,
    Kind::MetaPersist,
    Kind::ClientSilence,
];

impl Node for Broker {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        self.boot(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        ctx.work(self.config.costs.per_msg_us);
        match msg {
            NetMsg::Publish(m) => self.on_publish(m, ctx),
            NetMsg::Knowledge(m) => {
                let p = m.pubend;
                self.ingest(p, m.parts, m.nack_response, m.interest_version, ctx);
            }
            NetMsg::Curiosity(m) => self.on_curiosity(from, m, ctx),
            NetMsg::Release(m) => self.on_release_msg(from, m),
            NetMsg::SubInterest(m) => self.on_sub_interest(from, m, ctx),
            NetMsg::Client(m) => self.on_client(from, m, ctx),
            m @ NetMsg::Server(_) => {
                // Brokers never expect server-bound messages; a silent
                // drop here once hid misrouted traffic entirely.
                ctx.count(names::BROKER_UNEXPECTED_MSG, 1.0);
                traced!(ctx.trace(TraceEvent::UnexpectedMsg { tag: m.tag() }));
            }
        }
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        let Some(d) = timer::unpack(key) else {
            return;
        };
        if d.epoch != self.epoch {
            return; // stale timer from before a crash
        }
        ctx.count(d.kind.name(), 1.0);
        match d.kind {
            Kind::PhbCommit => self.on_phb_commit(ctx),
            Kind::PhbCommitDone => self.on_phb_commit_done(ctx),
            Kind::PhbSilence => self.on_phb_silence(ctx),
            Kind::Release => self.on_release_timer(ctx),
            Kind::MetaPersist => {
                if let Some(shb) = self.shb.state.as_mut() {
                    // The slab-byte census and population sweep are
                    // O(live subscriptions), so they ride this periodic
                    // timer, never the delivery path.
                    shb.update_memory_gauges(ctx);
                    shb.sweep_population(ctx);
                    shb.meta_persist(ctx);
                }
            }
            Kind::PfsSync => {
                if let Some(shb) = self.shb.state.as_mut() {
                    shb.pfs_sync(ctx);
                }
            }
            Kind::RetryNacks => self.on_retry_nacks(ctx),
            Kind::ClientSilence => {
                if let Some(shb) = self.shb.state.as_mut() {
                    shb.client_silence(ctx);
                }
            }
            Kind::CacheTrim => self.on_cache_trim(ctx),
            Kind::CatchupRead => self.on_catchup_read(PubendId(d.pubend as u32), d.param, ctx),
            Kind::CtCommit => self.on_ct_commit(d.param as usize, ctx),
        }
        self.arm_period(d.kind, ctx);
    }

    fn on_restart(&mut self, ctx: &mut dyn NodeCtx) {
        self.epoch = self.epoch.wrapping_add(1);
        // Volatile state is rebuilt from persistent storage. The
        // interest version deliberately survives (virtual-timestamp
        // monotonicity across crashes); the parent's copy of our interest
        // may now be stale, so the next change goes up as a snapshot.
        self.pipelines.clear();
        self.ib.child.clear();
        self.ib.upstream_confirmed = 0;
        self.ib.resync = true;
        self.shb.parked.clear();
        self.phb.log = None;
        self.phb.commit_scheduled = false;
        self.phb.in_flight.clear();
        self.shb.state = None;
        self.boot(ctx);
        ctx.count("broker.restarts", 1.0);
        // Recovering constreams: open-ended nack from latestDelivered,
        // in ascending pubend order (intrinsic — `con` is a BTreeMap).
        if let Some(shb) = &self.shb.state {
            let pubends: Vec<(PubendId, Timestamp)> = shb
                .con
                .iter()
                .map(|(&p, c)| (p, c.latest_delivered))
                .collect();
            for (p, ld) in pubends {
                self.resolve_for_constream(p, vec![(ld.next(), Timestamp::MAX)], ctx);
            }
            self.bump_and_send_interest(Vec::new(), Vec::new(), ctx);
        }
    }
}
