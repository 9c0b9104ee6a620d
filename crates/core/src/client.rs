//! Client nodes: durable subscribers and publishers.
//!
//! A [`SubscriberClient`] owns its [`CheckpointToken`] (the paper's model:
//! the token lives *outside* the messaging system, updated in the
//! transaction that consumes messages), acknowledges periodically,
//! disconnects/reconnects on a schedule, detects broker death, and
//! verifies per-pubend delivery order as it consumes.

use gryphon_sim::{Node, NodeCtx, TimerKey};
use gryphon_types::{
    Attributes, CheckpointToken, ClientMsg, DeliveryKind, NetMsg, NodeId, PubendId, PublishMsg,
    ServerMsg, SubscriberId, SubscriptionSpec, Timestamp,
};
use rand::rngs::SmallRng;

const T_ACK: TimerKey = TimerKey(0x0C01);
const T_PROBE: TimerKey = TimerKey(0x0C02);
const T_DISCONNECT: TimerKey = TimerKey(0x0C03);
const T_RECONNECT: TimerKey = TimerKey(0x0C04);
const T_PUBLISH: TimerKey = TimerKey(0x0C05);
const T_SAMPLE: TimerKey = TimerKey(0x0C06);
const T_CONNECT: TimerKey = TimerKey(0x0C07);

/// Behaviour knobs for a [`SubscriberClient`].
#[derive(Debug, Clone)]
pub struct SubscriberConfig {
    /// Period of checkpoint acknowledgments (ignored in auto-ack mode).
    pub ack_interval_us: u64,
    /// Liveness probe: reconnect when the broker has been silent this
    /// long (and retry failed connects at this period).
    pub probe_interval_us: u64,
    /// When to connect for the first time.
    pub connect_at_us: u64,
    /// Voluntary disconnect period (disconnect-to-disconnect), `None` for
    /// an always-connected subscriber. The paper's scalability runs use
    /// 300 s.
    pub disconnect_period_us: Option<u64>,
    /// How long each voluntary disconnection lasts (5 s in the paper).
    pub disconnect_duration_us: u64,
    /// Offset of the *first* disconnect after connecting (defaults to one
    /// full period); topologies stagger this so reconnections trickle
    /// steadily instead of stampeding.
    pub disconnect_phase_us: Option<u64>,
    /// Extra delay before reconnecting after *detecting a broker crash*
    /// (the paper's §5.3 setup delays reconnection until the constream
    /// has caught up).
    pub crash_reconnect_delay_us: u64,
    /// Keep every received delivery for test inspection (memory!).
    pub collect: bool,
    /// Record a per-second received-event-rate series
    /// (`client{id}.rate`).
    pub sample_rate: bool,
    /// JMS-style: the broker manages the checkpoint token.
    pub broker_ct: bool,
    /// JMS auto-acknowledge: one acknowledgment per delivery.
    pub auto_ack: bool,
}

impl Default for SubscriberConfig {
    fn default() -> Self {
        SubscriberConfig {
            ack_interval_us: 100_000,
            probe_interval_us: 2_000_000,
            connect_at_us: 0,
            disconnect_period_us: None,
            disconnect_duration_us: 5_000_000,
            disconnect_phase_us: None,
            crash_reconnect_delay_us: 0,
            collect: false,
            sample_rate: false,
            broker_ct: false,
            auto_ack: false,
        }
    }
}

/// A record of one received delivery (when `collect` is on).
#[derive(Debug, Clone)]
pub struct Received {
    /// Virtual receive time.
    pub at_us: u64,
    /// Source pubend.
    pub pubend: PubendId,
    /// The advanced-to timestamp.
    pub ts: Timestamp,
    /// `"event"`, `"silence"` or `"gap"`.
    pub kind: &'static str,
    /// The `_seq` attribute of event deliveries (ground-truth checks).
    pub seq: Option<i64>,
    /// The `_sent_us` attribute (publish time) of event deliveries —
    /// end-to-end latency measurement.
    pub sent_us: Option<i64>,
}

/// A durable subscriber.
///
/// See the [crate docs](crate) for a wiring example.
#[derive(Debug)]
pub struct SubscriberClient {
    id: SubscriberId,
    shb: NodeId,
    spec: SubscriptionSpec,
    cfg: SubscriberConfig,
    /// The client-side checkpoint token (persistent across client
    /// crashes by assumption — the client stores it transactionally).
    ct: CheckpointToken,
    ever_connected: bool,
    connected: bool,
    voluntary_down: bool,
    last_traffic_us: u64,
    events: u64,
    gaps: u64,
    order_violations: u64,
    received: Vec<Received>,
    events_since_sample: u64,
    last_ts: std::collections::HashMap<PubendId, Timestamp>,
    /// Set at (re)connect when the resumption point lags the stream;
    /// cleared (recording `client.catchup_ms`) once deliveries are
    /// current again.
    catchup_since_us: Option<u64>,
    catchup_durations_ms: Vec<f64>,
}

impl SubscriberClient {
    /// Creates a durable subscriber that will attach to `shb`.
    pub fn new(
        id: SubscriberId,
        shb: NodeId,
        filter: impl Into<SubscriptionSpec>,
        cfg: SubscriberConfig,
    ) -> Self {
        SubscriberClient {
            id,
            shb,
            spec: filter.into(),
            cfg,
            ct: CheckpointToken::new(),
            ever_connected: false,
            connected: false,
            voluntary_down: false,
            last_traffic_us: 0,
            events: 0,
            gaps: 0,
            order_violations: 0,
            received: Vec::new(),
            events_since_sample: 0,
            last_ts: std::collections::HashMap::new(),
            catchup_since_us: None,
            catchup_durations_ms: Vec::new(),
        }
    }

    /// Events received so far.
    pub fn events_received(&self) -> u64 {
        self.events
    }

    /// Gap messages received so far.
    pub fn gaps_received(&self) -> u64 {
        self.gaps
    }

    /// Per-pubend order violations observed (must stay 0 — the
    /// exactly-once in-order guarantee).
    pub fn order_violations(&self) -> u64 {
        self.order_violations
    }

    /// Collected deliveries (empty unless `cfg.collect`).
    pub fn received(&self) -> &[Received] {
        &self.received
    }

    /// The current client-side checkpoint token.
    pub fn checkpoint(&self) -> &CheckpointToken {
        &self.ct
    }

    /// `true` while attached to the SHB.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Client-observed catchup durations (one entry per reconnect that
    /// had to recover missed messages), in milliseconds.
    pub fn catchup_durations_ms(&self) -> &[f64] {
        &self.catchup_durations_ms
    }

    /// Seeds the client with a checkpoint token carried over from a
    /// previous session (possibly at a *different* SHB — the
    /// reconnect-anywhere extension). The client will present it on its
    /// first connect.
    pub fn with_checkpoint(mut self, ct: CheckpointToken) -> Self {
        for (p, t) in ct.iter() {
            let e = self.last_ts.entry(p).or_default();
            *e = (*e).max(t);
        }
        self.ct.merge(&ct);
        self.ever_connected = true;
        self
    }

    fn connect(&mut self, ctx: &mut dyn NodeCtx) {
        let ct = if !self.ever_connected || self.cfg.broker_ct {
            None
        } else {
            Some(self.ct.clone())
        };
        ctx.send(
            self.shb,
            NetMsg::Client(ClientMsg::Connect {
                sub: self.id,
                ct,
                spec: Some(self.spec.clone()),
                broker_ct: self.cfg.broker_ct,
                auto_ack: self.cfg.auto_ack,
            }),
        );
        self.last_traffic_us = ctx.now_us();
    }

    fn send_ack(&mut self, ctx: &mut dyn NodeCtx) {
        ctx.send(
            self.shb,
            NetMsg::Client(ClientMsg::Ack {
                sub: self.id,
                ct: self.ct.clone(),
            }),
        );
    }
}

impl Node for SubscriberClient {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        ctx.set_timer(self.cfg.connect_at_us, T_CONNECT);
        ctx.set_timer(self.cfg.connect_at_us + self.cfg.ack_interval_us, T_ACK);
        ctx.set_timer(self.cfg.connect_at_us + self.cfg.probe_interval_us, T_PROBE);
        if let Some(period) = self.cfg.disconnect_period_us {
            let phase = self.cfg.disconnect_phase_us.unwrap_or(period).max(1);
            ctx.set_timer(self.cfg.connect_at_us + phase, T_DISCONNECT);
        }
        if self.cfg.sample_rate {
            ctx.set_timer(1_000_000, T_SAMPLE);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        let NetMsg::Server(server) = msg else {
            return;
        };
        self.last_traffic_us = ctx.now_us();
        match server {
            ServerMsg::ConnectOk { sub, start } => {
                debug_assert_eq!(sub, self.id);
                self.connected = true;
                self.ever_connected = true;
                self.ct.merge(&start);
                let now_ticks = ctx.now_us() / 1_000;
                let mut lagging = false;
                for (p, t) in start.iter() {
                    let e = self.last_ts.entry(p).or_default();
                    *e = (*e).max(t);
                    if now_ticks.saturating_sub(e.0) > 2_000 {
                        lagging = true;
                    }
                }
                if lagging && self.catchup_since_us.is_none() {
                    self.catchup_since_us = Some(ctx.now_us());
                }
            }
            ServerMsg::ConnectErr { .. } => {
                self.connected = false;
            }
            ServerMsg::Deliver { sub, msg } => {
                debug_assert_eq!(sub, self.id);
                if !self.connected {
                    return; // in-flight deliveries after a disconnect
                }
                let ts = msg.ts();
                let p = msg.pubend;
                let last = self.last_ts.entry(p).or_default();
                if ts <= *last {
                    self.order_violations += 1;
                    ctx.count("client.order_violations", 1.0);
                    return;
                }
                *last = ts;
                self.ct.advance(p, ts);
                let (kind, seq, sent_us) = match &msg.kind {
                    DeliveryKind::Event(e) => {
                        self.events += 1;
                        self.events_since_sample += 1;
                        ctx.count("client.events", 1.0);
                        let seq = match e.attr("_seq") {
                            Some(gryphon_types::AttrValue::Int(v)) => Some(*v),
                            _ => None,
                        };
                        let sent = match e.attr("_sent_us") {
                            Some(gryphon_types::AttrValue::Int(v)) => Some(*v),
                            _ => None,
                        };
                        if self.cfg.collect {
                            if let Some(sent) = sent {
                                let lat_ms = (ctx.now_us() as i64 - sent) as f64 / 1_000.0;
                                ctx.record("client.latency_ms", lat_ms);
                            }
                        }
                        ("event", seq, sent)
                    }
                    DeliveryKind::Silence(_) => ("silence", None, None),
                    DeliveryKind::Gap(_) => {
                        self.gaps += 1;
                        ctx.count("client.gaps", 1.0);
                        ("gap", None, None)
                    }
                };
                if self.cfg.collect {
                    self.received.push(Received {
                        at_us: ctx.now_us(),
                        pubend: p,
                        ts,
                        kind,
                        seq,
                        sent_us,
                    });
                }
                if let Some(since) = self.catchup_since_us {
                    // Caught up once every pubend's cursor is within 1.5 s
                    // of the virtual clock.
                    let now_ticks = ctx.now_us() / 1_000;
                    let current = self
                        .last_ts
                        .values()
                        .all(|t| now_ticks.saturating_sub(t.0) < 1_500);
                    if current {
                        let dur_ms = (ctx.now_us() - since) as f64 / 1_000.0;
                        self.catchup_durations_ms.push(dur_ms);
                        ctx.record("client.catchup_ms", dur_ms);
                        self.catchup_since_us = None;
                    }
                }
                if self.cfg.auto_ack {
                    self.send_ack(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        match key {
            T_CONNECT if !self.connected && !self.voluntary_down => {
                self.connect(ctx);
            }
            T_ACK => {
                if self.connected && !self.cfg.auto_ack {
                    self.send_ack(ctx);
                }
                ctx.set_timer(self.cfg.ack_interval_us, T_ACK);
            }
            T_PROBE => {
                let now = ctx.now_us();
                if !self.voluntary_down {
                    if !self.connected {
                        self.connect(ctx);
                    } else if now.saturating_sub(self.last_traffic_us) > self.cfg.probe_interval_us
                    {
                        // Broker presumed crashed.
                        self.connected = false;
                        ctx.count("client.crash_detected", 1.0);
                        if self.cfg.crash_reconnect_delay_us > 0 {
                            self.voluntary_down = true;
                            ctx.set_timer(self.cfg.crash_reconnect_delay_us, T_RECONNECT);
                        } else {
                            self.connect(ctx);
                        }
                    }
                }
                ctx.set_timer(self.cfg.probe_interval_us, T_PROBE);
            }
            T_DISCONNECT => {
                if self.connected {
                    ctx.send(
                        self.shb,
                        NetMsg::Client(ClientMsg::Disconnect { sub: self.id }),
                    );
                    self.connected = false;
                    self.voluntary_down = true;
                    ctx.set_timer(self.cfg.disconnect_duration_us, T_RECONNECT);
                }
                if let Some(period) = self.cfg.disconnect_period_us {
                    ctx.set_timer(period, T_DISCONNECT);
                }
            }
            T_RECONNECT => {
                self.voluntary_down = false;
                self.connect(ctx);
            }
            T_SAMPLE => {
                ctx.record(
                    &format!("client{}.rate", self.id.0),
                    self.events_since_sample as f64,
                );
                self.events_since_sample = 0;
                ctx.set_timer(1_000_000, T_SAMPLE);
            }
            _ => {}
        }
    }
}

/// Generates an event's attributes: `(sequence number, rng) → attrs`.
pub type AttrGen = Box<dyn FnMut(u64, &mut SmallRng) -> Attributes + Send>;

/// A publisher client: publishes to one pubend at a fixed rate.
///
/// Every event automatically carries a monotone `_seq` attribute so tests
/// and the harness can verify exactly-once delivery against ground truth.
pub struct PublisherClient {
    phb: NodeId,
    pubend: PubendId,
    interval_us: u64,
    start_at_us: u64,
    payload_len: usize,
    attr_gen: Option<AttrGen>,
    seq: u64,
    stop_after: Option<u64>,
}

impl std::fmt::Debug for PublisherClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublisherClient")
            .field("pubend", &self.pubend)
            .field("interval_us", &self.interval_us)
            .field("seq", &self.seq)
            .finish()
    }
}

impl PublisherClient {
    /// Creates a publisher for `pubend` (hosted at broker node `phb`)
    /// publishing `rate` events per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn new(phb: NodeId, pubend: PubendId, rate: f64) -> Self {
        assert!(rate > 0.0, "publish rate must be positive");
        PublisherClient {
            phb,
            pubend,
            interval_us: (1_000_000.0 / rate).max(1.0) as u64,
            start_at_us: 0,
            payload_len: 250,
            attr_gen: None,
            seq: 0,
            stop_after: None,
        }
    }

    /// Sets the attribute generator (default: no attributes beyond
    /// `_seq`).
    pub fn with_attrs(
        mut self,
        f: impl FnMut(u64, &mut SmallRng) -> Attributes + Send + 'static,
    ) -> Self {
        self.attr_gen = Some(Box::new(f));
        self
    }

    /// Sets the application payload size (250 bytes in the paper: 418 on
    /// the wire with headers).
    pub fn with_payload_len(mut self, len: usize) -> Self {
        self.payload_len = len;
        self
    }

    /// Delays the first publish.
    pub fn starting_at(mut self, at_us: u64) -> Self {
        self.start_at_us = at_us;
        self
    }

    /// Stops after publishing this many events (for bounded tests).
    pub fn stop_after(mut self, n: u64) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Events published so far.
    pub fn published(&self) -> u64 {
        self.seq
    }
}

impl Node for PublisherClient {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        ctx.set_timer(self.start_at_us + self.interval_us, T_PUBLISH);
    }

    fn on_message(&mut self, _from: NodeId, _msg: NetMsg, _ctx: &mut dyn NodeCtx) {}

    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        if key != T_PUBLISH {
            return;
        }
        if let Some(limit) = self.stop_after {
            if self.seq >= limit {
                return;
            }
        }
        let mut attrs = match &mut self.attr_gen {
            Some(f) => f(self.seq, ctx.rng()),
            None => Attributes::new(),
        };
        attrs.insert("_seq".into(), (self.seq as i64).into());
        attrs.insert("_sent_us".into(), (ctx.now_us() as i64).into());
        ctx.send(
            self.phb,
            NetMsg::Publish(PublishMsg {
                pubend: self.pubend,
                attrs,
                payload: bytes::Bytes::from(vec![0u8; self.payload_len]),
            }),
        );
        self.seq += 1;
        ctx.count("pub.published", 1.0);
        ctx.set_timer(self.interval_us, T_PUBLISH);
    }
}
