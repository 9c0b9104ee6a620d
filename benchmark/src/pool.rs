//! The client-pool node: every logical durable subscriber of a workload
//! on one runtime thread, plus the delivery ledger the oracle checks.
//!
//! `ServerMsg::Deliver` carries the subscriber id and the SHB keys
//! connections per subscriber, so one node id can hold N subscriptions.
//! Each subscriber behaves like `gryphon::SubscriberClient`: it owns its
//! checkpoint token, acknowledges every 100 ms, ignores deliveries that
//! arrive while it is not connected, and presents its token when it
//! reconnects.

use crate::gen::{Cycle, Workload, PUBENDS};
use gryphon_sim::{Node, NodeCtx, TimerKey};
use gryphon_types::{
    AttrName, AttrValue, CheckpointToken, ClientMsg, DeliveryKind, NetMsg, NodeId, ServerMsg,
    SubscriberId, SubscriptionSpec, Timestamp,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const T_ACK: TimerKey = TimerKey(0xB001);
const T_CYCLE: TimerKey = TimerKey(0xB002);
const ACK_INTERVAL_US: u64 = 100_000;
/// Subscribers ack every [`ACK_INTERVAL_US`], but not all at once: one
/// group per tick. Independent clients are not synchronised, and 1 000
/// acks in one burst would be the generator's artefact, not the
/// program's load.
const ACK_GROUPS: usize = 10;
const CYCLE_TICK_US: u64 = 5_000;
/// First-time connects kept in flight at once. Every one makes the SHB
/// send its whole interest set upstream, so an unpaced burst of N
/// connects would queue O(N²) filter text in the PHB's channel.
const CONNECT_WINDOW: usize = 32;

/// Which deliveries get a latency sample: event seqs in
/// `[from, from + slices * per_slice)`, bucketed by the slice their
/// *due* instant falls in.
#[derive(Debug, Clone, Copy)]
pub struct SampleWindow {
    /// First measured seq.
    pub from: u32,
    /// Events per slice.
    pub per_slice: u32,
    /// Number of slices.
    pub slices: usize,
}

/// Counters the driver thread polls while the net runs.
#[derive(Default)]
pub struct Shared {
    /// Event deliveries entered in the ledger.
    pub delivered: AtomicU64,
    /// Subscribers that have received their first `ConnectOk`.
    pub connected_once: AtomicU64,
    /// Newest seq the driver has published (catchup target).
    pub newest_seq: AtomicI64,
    /// Set by the driver when the stream ends: cycling stops and every
    /// subscriber reconnects so the ledger can complete.
    pub draining: AtomicBool,
    /// Stream start, µs since the bench epoch; 0 until set-up is done.
    /// The disconnect schedules count from it (they are part of the
    /// measured stream, not of set-up).
    pub stream_start_us: AtomicU64,
}

struct Sub {
    id: SubscriberId,
    spec: SubscriptionSpec,
    cycle: Option<Cycle>,
    connected: bool,
    ever_connected: bool,
    /// Away on its own schedule (as opposed to never connected yet).
    away: bool,
    /// Stream time (µs since the bench epoch) of the next toggle.
    next_toggle_us: u64,
    ct: CheckpointToken,
    last_ts: [Timestamp; PUBENDS as usize],
    /// Ledger: seqs received per pubend, in arrival order.
    got: [Vec<u32>; PUBENDS as usize],
    /// Reconnect in progress: when its `ConnectOk` arrived, and the seq
    /// per pubend it must reach to count as caught up.
    catching_up: Option<(Instant, [i64; PUBENDS as usize])>,
}

/// Counts of things that must not happen.
#[derive(Debug, Clone, Copy, Default)]
pub struct Anomalies {
    /// `Gap` deliveries (information lost to early release).
    pub gaps: u64,
    /// Deliveries at or below the subscriber's last timestamp.
    pub order_violations: u64,
    /// `ConnectErr` replies.
    pub connect_errors: u64,
}

/// The pool node.
pub struct Pool {
    shb: NodeId,
    epoch: Instant,
    window: SampleWindow,
    /// Only the first `sampled` subscribers contribute latency samples
    /// (`reconnect` samples the steady half — the interference view).
    sampled: usize,
    seq_name: AttrName,
    sent_name: AttrName,
    subs: Vec<Sub>,
    next_to_connect: usize,
    ack_tick: usize,
    shared: Arc<Shared>,
    /// Latency samples (ns from the due instant, capped at 4.29 s) per
    /// slice.
    pub lat_ns: Vec<Vec<u32>>,
    /// `ConnectOk` → caught up, per completed reconnect, ms.
    pub catchup_ms: Vec<f64>,
    /// Reconnects issued by cycling subscribers.
    pub reconnects: u64,
    /// See [`Anomalies`].
    pub anomalies: Anomalies,
}

impl Pool {
    /// A pool hosting `workload`'s subscribers against broker `shb`.
    /// `epoch` is the instant `_sent_us` stamps count from.
    pub fn new(
        workload: &Workload,
        shb: NodeId,
        epoch: Instant,
        window: SampleWindow,
        shared: Arc<Shared>,
    ) -> Self {
        let subs = (0..workload.spec.subs)
            .map(|j| Sub {
                id: SubscriberId(j as u64 + 1),
                spec: SubscriptionSpec::new(workload.filter_expr(j)),
                cycle: workload.cycles[j],
                connected: false,
                ever_connected: false,
                away: false,
                next_toggle_us: u64::MAX,
                ct: CheckpointToken::new(),
                last_ts: [Timestamp::ZERO; PUBENDS as usize],
                got: Default::default(),
                catching_up: None,
            })
            .collect();
        let sampled = workload.cycles.iter().filter(|c| c.is_none()).count();
        Pool {
            shb,
            epoch,
            window,
            sampled,
            seq_name: AttrName::intern("_seq"),
            sent_name: AttrName::intern("_sent_us"),
            subs,
            next_to_connect: 0,
            ack_tick: 0,
            shared,
            lat_ns: vec![Vec::new(); window.slices],
            catchup_ms: Vec::new(),
            reconnects: 0,
            anomalies: Anomalies::default(),
        }
    }

    /// Ledger of subscriber `j`: received seqs per pubend.
    pub fn ledger(&self, j: usize) -> &[Vec<u32>; PUBENDS as usize] {
        &self.subs[j].got
    }

    fn connect(&mut self, j: usize, ctx: &mut dyn NodeCtx) {
        let s = &self.subs[j];
        ctx.send(
            self.shb,
            NetMsg::Client(ClientMsg::Connect {
                sub: s.id,
                ct: s.ever_connected.then(|| s.ct.clone()),
                spec: Some(s.spec.clone()),
                broker_ct: false,
                auto_ack: false,
            }),
        );
    }

    fn connect_next(&mut self, ctx: &mut dyn NodeCtx) {
        if self.next_to_connect < self.subs.len() {
            self.connect(self.next_to_connect, ctx);
            self.next_to_connect += 1;
        }
    }

    fn on_server(&mut self, msg: ServerMsg, ctx: &mut dyn NodeCtx) {
        match msg {
            ServerMsg::ConnectOk { sub, start } => {
                let j = sub.0 as usize - 1;
                let first = !self.subs[j].ever_connected;
                let newest = self.shared.newest_seq.load(Ordering::Relaxed);
                let s = &mut self.subs[j];
                s.connected = true;
                s.ever_connected = true;
                s.ct.merge(&start);
                for (p, t) in start.iter() {
                    let last = &mut s.last_ts[p.0 as usize];
                    *last = (*last).max(t);
                }
                if first {
                    self.shared.connected_once.fetch_add(1, Ordering::Relaxed);
                    self.connect_next(ctx);
                } else if newest >= 0 {
                    // Caught up once, on every pubend, the subscriber
                    // holds the newest event published at or before this
                    // instant (every event matches `true`, the only
                    // filter cycling subscribers use).
                    let mut target = [0i64; PUBENDS as usize];
                    for (p, t) in target.iter_mut().enumerate() {
                        let back = (newest - p as i64).rem_euclid(PUBENDS as i64);
                        *t = newest - back;
                    }
                    s.catching_up = Some((Instant::now(), target));
                }
            }
            ServerMsg::ConnectErr { .. } => self.anomalies.connect_errors += 1,
            ServerMsg::Deliver { sub, msg } => {
                let j = sub.0 as usize - 1;
                let s = &mut self.subs[j];
                if !s.connected {
                    return; // in flight across a disconnect; redelivered from the token
                }
                let (p, ts) = (msg.pubend.0 as usize, msg.ts());
                if ts <= s.last_ts[p] {
                    self.anomalies.order_violations += 1;
                    return;
                }
                s.last_ts[p] = ts;
                s.ct.advance(msg.pubend, ts);
                match &msg.kind {
                    DeliveryKind::Event(e) => {
                        let Some(AttrValue::Int(seq)) = e.attrs.get(&self.seq_name) else {
                            return;
                        };
                        let seq = *seq as u32;
                        s.got[p].push(seq);
                        self.shared.delivered.fetch_add(1, Ordering::Relaxed);
                        if let Some((since, target)) = s.catching_up {
                            let done = (0..PUBENDS as usize).all(|q| {
                                s.got[q].last().is_some_and(|&l| l as i64 >= target[q])
                                    || target[q] < 0
                            });
                            if done {
                                self.catchup_ms.push(since.elapsed().as_secs_f64() * 1e3);
                                s.catching_up = None;
                            }
                        }
                        let w = self.window;
                        if j < self.sampled && seq >= w.from {
                            let slice = ((seq - w.from) / w.per_slice) as usize;
                            if let (Some(bucket), Some(AttrValue::Int(sent))) =
                                (self.lat_ns.get_mut(slice), e.attrs.get(&self.sent_name))
                            {
                                let now = self.epoch.elapsed().as_nanos() as i64;
                                bucket.push((now - sent * 1_000).clamp(0, u32::MAX as i64) as u32);
                            }
                        }
                    }
                    DeliveryKind::Silence(_) => {}
                    DeliveryKind::Gap(_) => self.anomalies.gaps += 1,
                }
            }
        }
    }

    fn on_cycle_tick(&mut self, ctx: &mut dyn NodeCtx) {
        ctx.set_timer(CYCLE_TICK_US, T_CYCLE);
        let start = self.shared.stream_start_us.load(Ordering::Relaxed);
        if start == 0 {
            return;
        }
        let now = self.epoch.elapsed().as_micros() as u64;
        let draining = self.shared.draining.load(Ordering::Relaxed);
        for j in 0..self.subs.len() {
            let s = &mut self.subs[j];
            let Some(c) = s.cycle else { continue };
            if s.next_toggle_us == u64::MAX {
                s.next_toggle_us = start + c.phase_us;
            }
            let due = now >= s.next_toggle_us;
            if s.away && (due || draining) {
                s.away = false;
                s.next_toggle_us += c.on_us;
                self.reconnects += 1;
                self.connect(j, ctx);
            } else if s.connected && due && !draining {
                s.connected = false;
                s.away = true;
                s.catching_up = None;
                s.next_toggle_us += c.off_us;
                ctx.send(
                    self.shb,
                    NetMsg::Client(ClientMsg::Disconnect { sub: s.id }),
                );
            }
        }
    }
}

impl Node for Pool {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        for _ in 0..CONNECT_WINDOW {
            self.connect_next(ctx);
        }
        ctx.set_timer(ACK_INTERVAL_US / ACK_GROUPS as u64, T_ACK);
        if self.subs.iter().any(|s| s.cycle.is_some()) {
            ctx.set_timer(CYCLE_TICK_US, T_CYCLE);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        if let NetMsg::Server(server) = msg {
            self.on_server(server, ctx);
        }
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        match key {
            T_ACK => {
                let group = self.ack_tick % ACK_GROUPS;
                self.ack_tick += 1;
                let due = self.subs.iter().skip(group).step_by(ACK_GROUPS);
                for s in due.filter(|s| s.connected) {
                    ctx.send(
                        self.shb,
                        NetMsg::Client(ClientMsg::Ack {
                            sub: s.id,
                            ct: s.ct.clone(),
                        }),
                    );
                }
                ctx.set_timer(ACK_INTERVAL_US / ACK_GROUPS as u64, T_ACK);
            }
            T_CYCLE => self.on_cycle_tick(ctx),
            _ => {}
        }
    }
}
