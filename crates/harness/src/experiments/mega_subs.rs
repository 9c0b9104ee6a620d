//! `mega_subs` — the million-durable-subscription memory workload
//! (DESIGN.md §15).
//!
//! The paper's motivating scale is "millions of durable subscriptions",
//! almost all of them *idle* at any moment. What bounds that scale is
//! not throughput but bytes-per-idle-subscription in the SHB: the slab
//! must hold a disconnected durable subscription in a compact record
//! (spec + filter + release cursors + parked stream positions), not a
//! live connection. This workload direct-drives one [`Shb`] (no
//! simulator — pfs_micro-style) through four phases and reports the
//! census after each:
//!
//! 1. **register** — N durable subscriptions (`--subs`, default 10^6;
//!    quick 20 000), all idle;
//! 2. **traffic** — a small fraction connects and the constream
//!    advances through a fully-known cache, proving delivery still
//!    flows while the idle mass sits in the slab;
//! 3. **churn** — `CHURN_PCT` percent of the population unsubscribes
//!    and re-registers, recycling slab slots (generation bumps);
//! 4. **storm** — a reconnect storm: a batch of idle subscribers
//!    connects with old checkpoints (catchup streams open), drops
//!    (streams park into compact records), and reconnects (parked
//!    records drain, counted by `shb.stream_rehydrations`).
//!
//! The headline figure is `telemetry.shb.bytes_per_idle_sub`, published
//! exactly as the broker publishes it (through
//! [`Shb::update_memory_gauges`]) and sampled onto the report timeline
//! so run bundles carry it and `xp doctor diff` can guard it.

use crate::report::{Report, Table};
use crate::topology::RunOptions;
use gryphon::broker::Shb;
use gryphon::config::BrokerConfig;
use gryphon_sim::sketch::DIM_SUB_LAG;
use gryphon_sim::telemetry::Timeline;
use gryphon_sim::{AlertState, DeliveryPath, NodeCtx, Observers, TimerKey, TraceEvent};
use gryphon_storage::MemFactory;
use gryphon_streams::KnowledgeStream;
use gryphon_types::{
    CheckpointToken, Event, NetMsg, NodeId, PubendId, SubscriberId, SubscriptionSpec, Timestamp,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

const P: PubendId = PubendId(0);
const CLIENT: NodeId = NodeId(9);
/// Percent of the population the churn phase unsubscribes and
/// re-registers.
const CHURN_PCT: f64 = 1.0;

struct WorkloadSpec {
    /// Durable subscription population (`--subs`).
    subs: u64,
    /// Subscribers connected during the traffic phase.
    connected: u64,
    /// Idle subscribers thrown into the reconnect storm.
    storm: u64,
    /// Constream ticks of traffic (one event per tick).
    ticks: u64,
    /// Filter classes (`class = i % classes`).
    classes: u64,
}

/// Direct-drive context: counters, gauges and sketch attributions land
/// in an [`Observers`] (the owner the runtimes embed, so each census
/// closes its window exactly as they do); sends, timers, trace events and
/// delivery reports go nowhere, so no oracle runs. `me()` is node 1, so
/// the gauge shards match a single-broker run (`telemetry.shb.*.n1`).
struct DriveCtx {
    now_us: u64,
    obs: Observers,
    rng: SmallRng,
}

impl NodeCtx for DriveCtx {
    fn now_us(&self) -> u64 {
        self.now_us
    }
    fn me(&self) -> NodeId {
        NodeId(1)
    }
    fn send(&mut self, _to: NodeId, _msg: NetMsg) {}
    fn set_timer(&mut self, _delay_us: u64, _key: TimerKey) {}
    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
    fn work(&mut self, _cost_us: u64) {}
    fn observers(&mut self) -> Option<&mut Observers> {
        Some(&mut self.obs)
    }
    fn trace(&mut self, _event: TraceEvent) {}
    fn delivered(&mut self, _: PubendId, _: Timestamp, _: DeliveryPath, _: &[SubscriberId]) {}
}

impl DriveCtx {
    /// The census timeline so far.
    fn timeline(&self) -> &Timeline {
        self.obs.timeline().expect("windows armed")
    }
}

fn filter_for(i: u64, spec: &WorkloadSpec) -> SubscriptionSpec {
    SubscriptionSpec::new(format!("class = {}", i % spec.classes))
}

fn connect_one(
    shb: &mut Shb,
    sub: SubscriberId,
    ct: Option<CheckpointToken>,
    config: &BrokerConfig,
    ctx: &mut DriveCtx,
) {
    shb.connect(
        sub,
        CLIENT,
        ct,
        None,
        false,
        false,
        &HashMap::new(),
        None,
        config,
        ctx,
    )
    .expect("registered subscription must connect");
}

/// One census row: phase label, wall time, and the slab statistics the
/// phase left behind.
fn census(table: &mut Table, phase: &str, wall_ms: f64, shb: &mut Shb, ctx: &mut DriveCtx) -> f64 {
    // Publish through the broker's own gauge path, then close the
    // timeline window — the bundle carries exactly what a live broker
    // would publish on its meta-persist timer. The population sweep
    // runs first (the live broker runs it on the same timer), so the
    // window's sample carries the per-entity attribution it produced.
    ctx.now_us += 500_000;
    shb.sweep_population(ctx);
    shb.update_telemetry_gauges(ctx);
    shb.update_memory_gauges(ctx);
    ctx.obs.close_window(ctx.now_us, ctx.now_us);
    let bytes = shb.slab_bytes();
    let idle = shb.idle_subs().max(1);
    let per_idle = bytes as f64 / idle as f64;
    table.row(&[
        phase.into(),
        format!("{wall_ms:.0}"),
        shb.sub_count().to_string(),
        shb.connected_count().to_string(),
        shb.catchup_streams().to_string(),
        shb.parked_streams().to_string(),
        format!("{:.1}", bytes as f64 / 1e6),
        format!("{per_idle:.0}"),
    ]);
    per_idle
}

/// Runs the workload. `--subs` overrides the population
/// ([`RunOptions::mega_subs`]).
pub fn run(opts: &RunOptions) -> Report {
    let quick = opts.quick;
    let spec = WorkloadSpec {
        subs: opts
            .mega_subs
            .unwrap_or(if quick { 20_000 } else { 1_000_000 }),
        connected: if quick { 256 } else { 512 },
        storm: if quick { 128 } else { 256 },
        ticks: if quick { 128 } else { 256 },
        classes: if quick { 128 } else { 256 },
    };
    let config = BrokerConfig::default();
    // No trace ring: nothing here emits trace events. Every census is
    // judged by the default rules, as `xp doctor check` replays them
    // over the bundle.
    let mut obs = Observers::new(0);
    obs.arm_windows(500_000);
    let mut ctx = DriveCtx {
        now_us: 0,
        obs,
        rng: SmallRng::seed_from_u64(7),
    };
    let slow_sub_mode = opts.slow_sub;
    let mut shb = Shb::open(&MemFactory::new(), "mega");
    let mut t = Table::new(
        format!(
            "§15 subscriber memory model ({} durable subs, {} classes, churn {:.1}%)",
            spec.subs, spec.classes, CHURN_PCT
        ),
        &[
            "phase",
            "wall (ms)",
            "subs",
            "connected",
            "catchup",
            "parked",
            "slab (MB)",
            "B/idle sub",
        ],
    );

    // Phase 1: register the idle mass.
    let start = Instant::now();
    for i in 0..spec.subs {
        shb.register_spec(
            SubscriberId(i + 1),
            CLIENT,
            Some(&filter_for(i, &spec)),
            false,
            false,
            &mut ctx,
        )
        .expect("register");
    }
    let register_ms = start.elapsed().as_secs_f64() * 1e3;
    let idle_bytes = census(&mut t, "register", register_ms, &mut shb, &mut ctx);

    // Phase 2: a small fraction connects and traffic flows through the
    // constream. Each tick's event matches `connected / classes` of the
    // connected batch (plus idle slots, which the deliver loop skips).
    let start = Instant::now();
    for i in 0..spec.connected {
        connect_one(&mut shb, SubscriberId(i + 1), None, &config, &mut ctx);
    }
    let mut cache = KnowledgeStream::new();
    for tick in 1..=spec.ticks {
        let e = Event::builder(P)
            .attr("class", (tick % spec.classes) as i64)
            .build_ref(Timestamp(tick));
        assert!(cache.set_data(e));
    }
    cache.set_silence(Timestamp(1), Timestamp(spec.ticks));
    shb.constream_advance(P, &cache, Timestamp(spec.ticks), &config, &mut ctx);
    let delivered = shb.delivered;
    assert_eq!(
        delivered,
        spec.ticks * (spec.connected / spec.classes),
        "traffic must reach every connected matching subscriber"
    );
    let traffic_ms = start.elapsed().as_secs_f64() * 1e3;
    census(&mut t, "traffic", traffic_ms, &mut shb, &mut ctx);

    // Phase 3: churn — unsubscribe + re-register recycles slab slots
    // (generation bumps keep stale handles dead). Drawn from the idle
    // region above the connected/storm batches.
    let churned = ((spec.subs as f64) * CHURN_PCT / 100.0) as u64;
    let churn_base = spec.connected + spec.storm;
    let churned = churned.min(spec.subs.saturating_sub(churn_base));
    let start = Instant::now();
    for k in 0..churned {
        let i = churn_base + k;
        let sub = SubscriberId(i + 1);
        shb.unsubscribe(sub);
        shb.register_spec(
            sub,
            CLIENT,
            Some(&filter_for(i, &spec)),
            false,
            false,
            &mut ctx,
        )
        .expect("re-register");
    }
    let churn_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        shb.sub_count() as u64,
        spec.subs,
        "churn preserves the population"
    );
    census(&mut t, "churn", churn_ms, &mut shb, &mut ctx);

    // Phase 4: reconnect storm. A batch of idle subscribers presents an
    // old checkpoint, so each connect opens a PFS catchup stream; the
    // drop parks every stream into a compact record; the reconnect
    // drains the parked records (counted as rehydrations) and rebuilds
    // the streams from the checkpoint protocol.
    let storm_ct = || {
        let mut ct = CheckpointToken::new();
        ct.advance(P, Timestamp::ZERO);
        Some(ct)
    };
    let start = Instant::now();
    let storm_subs: Vec<SubscriberId> = (0..spec.storm)
        .map(|k| SubscriberId(spec.connected + k + 1))
        .collect();
    for &sub in &storm_subs {
        connect_one(&mut shb, sub, storm_ct(), &config, &mut ctx);
    }
    let streams_open = shb.catchup_streams();
    for &sub in &storm_subs {
        shb.disconnect(sub, ctx.now_us);
    }
    let parked_peak = shb.parked_streams();
    for &sub in &storm_subs {
        connect_one(&mut shb, sub, storm_ct(), &config, &mut ctx);
    }
    let storm_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        streams_open as u64, spec.storm,
        "storm connects open catchup streams"
    );
    assert_eq!(
        parked_peak as u64, spec.storm,
        "disconnects park every stream"
    );
    assert_eq!(
        shb.parked_streams(),
        0,
        "reconnects drain the parked records"
    );
    census(&mut t, "storm", storm_ms, &mut shb, &mut ctx);

    // Phase 5 (only under `--slow-sub`): plant one slow consumer and
    // prove the attribution path names it. The connected cohort
    // shrinks to 16 caught-up subscribers so the lag spectrum's p99
    // rank lands on the laggard; the last registered subscriber then
    // connects with an ancient checkpoint, opening a catchup stream
    // that never progresses. The next sweep attributes a full window
    // of lag to exactly that entity, the skew gauge jumps, and the
    // `lag_skew` health rule fires; reconnecting it caught-up clears
    // the alert at the following census.
    let mut slow_note = None;
    if slow_sub_mode {
        const KEEP: u64 = 16;
        let start = Instant::now();
        for i in KEEP..spec.connected {
            shb.disconnect(SubscriberId(i + 1), ctx.now_us);
        }
        for &sub in &storm_subs {
            shb.disconnect(sub, ctx.now_us);
        }
        let slow = SubscriberId(spec.subs);
        connect_one(&mut shb, slow, storm_ct(), &config, &mut ctx);
        let slow_ms = start.elapsed().as_secs_f64() * 1e3;
        census(&mut t, "slow-sub", slow_ms, &mut shb, &mut ctx);
        let (leader_entity, lag_us) = {
            let lag_top = ctx
                .timeline()
                .topks()
                .filter(|s| s.dim == DIM_SUB_LAG)
                .last()
                .expect("slow-sub census produces a lag snapshot");
            let leader = lag_top.entries.first().expect("lag snapshot has entries");
            (leader.entity, leader.count)
        };
        assert_eq!(
            leader_entity, slow.0,
            "the sketch must name the planted slow consumer"
        );

        // Hold the laggard for a second window: `lag_skew` is a
        // sustained-ceiling rule (two consecutive breaching windows)
        // so one-census transients like the reconnect storm stay
        // quiet, and the alert fires here.
        let start = Instant::now();
        let hold_ms = start.elapsed().as_secs_f64() * 1e3;
        census(&mut t, "slow-hold", hold_ms, &mut shb, &mut ctx);
        assert!(
            ctx.timeline()
                .alerts()
                .iter()
                .any(|a| a.rule == "lag_skew" && a.state == AlertState::Firing),
            "planted laggard must fire the lag_skew rule"
        );

        // Recovery: the laggard reconnects caught-up; the next census
        // sweeps a uniform population and the alert clears.
        let start = Instant::now();
        shb.disconnect(slow, ctx.now_us);
        connect_one(&mut shb, slow, None, &config, &mut ctx);
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        census(&mut t, "recovered", recover_ms, &mut shb, &mut ctx);
        assert!(
            ctx.timeline()
                .alerts()
                .iter()
                .any(|a| a.rule == "lag_skew" && a.state == AlertState::Cleared),
            "caught-up laggard must clear the lag_skew rule"
        );
        slow_note = Some(format!(
            "slow-sub drill: subscriber {} planted at {lag_us} µs of catchup lag was named \
             by the top-K sketch and fired (then cleared) the lag_skew rule",
            slow.0
        ));
    }

    // The attribution layer's memory is O(K) per dimension no matter
    // how large the population is — the acceptance bound for running
    // this sketch at 10^6 subscribers.
    let sketch_bytes = ctx.obs.sketch().map_or(0, |s| s.approx_heap_bytes());
    assert!(
        sketch_bytes <= 4 * 1024,
        "population sketch must stay O(K): {sketch_bytes} B for {} subs",
        spec.subs
    );

    let rehydrations = ctx.obs.metrics().counter("shb.stream_rehydrations");
    let mut report = Report::new("mega_subs");
    report.table(t);
    report.note(format!(
        "idle footprint after registration: {idle_bytes:.0} B per idle durable subscription \
         across {} subscribers (telemetry.shb.bytes_per_idle_sub — guarded by xp doctor diff)",
        spec.subs
    ));
    report.note(format!(
        "traffic: {delivered} deliveries to the {}-sub connected fraction while {} idle subs \
         sat in the slab",
        spec.connected,
        spec.subs - spec.connected
    ));
    report.note(format!(
        "storm: {} catchup streams opened, {} parked on disconnect, {rehydrations:.0} parked \
         records rehydrated on reconnect",
        streams_open, parked_peak
    ));
    report.note(format!(
        "population sketch: {sketch_bytes} B of attribution state for {} subscribers (O(K) \
         per dimension; DESIGN.md §9)",
        spec.subs
    ));
    if let Some(n) = slow_note {
        report.note(n);
    }
    report.attach_metrics(ctx.obs.metrics());
    report.attach_telemetry(ctx.obs.take_timeline().expect("windows armed"));
    report
}
