//! Tracing from outside the program: a [`Traced`] node wrapper that
//! records a span around every `on_message`/`on_timer`, and a delegating
//! [`NodeCtx`] that timestamps every `send` and `set_timer`.
//!
//! Spans of one event share its `_seq`; the cause of a receive span is
//! the matching send. Nothing is added inside `crates/`; timer kinds are
//! `pub(crate)` there, so timer work is one bucket per node.

use gryphon_sim::{Node, NodeCtx, TimerKey, TraceEvent};
use gryphon_types::{
    AttrName, AttrValue, DeliveryKind, EventRef, KnowledgePart, NetMsg, NodeId, ServerMsg,
};
use rand::rngs::SmallRng;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Span kind of a timer callback (message spans use [`kind_of`]).
pub const KIND_TIMER: u8 = 7;
/// Span kind of `on_start`.
pub const KIND_START: u8 = 8;
/// `from` of a message injected by the driver.
pub const FROM_DRIVER: u8 = u8::MAX;

/// Span-kind code of a message.
pub fn kind_of(msg: &NetMsg) -> u8 {
    match msg {
        NetMsg::Publish(_) => 0,
        NetMsg::Knowledge(_) => 1,
        NetMsg::Curiosity(_) => 2,
        NetMsg::Release(_) => 3,
        NetMsg::SubInterest(_) => 4,
        NetMsg::Client(_) => 5,
        NetMsg::Server(_) => 6,
    }
}

/// Name of a span kind, as written to `spans.ndjson`.
pub fn kind_name(kind: u8) -> &'static str {
    [
        "publish",
        "knowledge",
        "curiosity",
        "release",
        "sub_interest",
        "client",
        "server",
        "timer",
        "start",
    ][kind as usize]
}

/// One `on_message` / `on_timer` / `on_start` callback.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// See [`kind_of`], [`KIND_TIMER`], [`KIND_START`].
    pub kind: u8,
    /// Sending node id ([`FROM_DRIVER`] for injected messages).
    pub from: u8,
    /// Callback entry, ns since the bench epoch.
    pub start_ns: u64,
    /// Callback return.
    pub end_ns: u64,
    /// `_seq`s of the events the message carried: `seqs[seq_lo..][..seq_n]`.
    pub seq_lo: u32,
    /// See `seq_lo`.
    pub seq_n: u32,
    /// Destination subscriber of a `Deliver`, else 0.
    pub sub: u32,
    /// Sends made during the callback: `sends[send_lo..][..send_n]`.
    pub send_lo: u32,
    /// See `send_lo`.
    pub send_n: u32,
}

/// One `ctx.send` made inside a span.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    /// Send instant, ns since the bench epoch.
    pub t_ns: u64,
    /// Destination node id.
    pub to: u8,
    /// See [`kind_of`].
    pub kind: u8,
    /// Index of the span the send was made in.
    pub span: u32,
    /// `_seq`s carried, as in [`Span`].
    pub seq_lo: u32,
    /// See `seq_lo`.
    pub seq_n: u32,
    /// Destination subscriber of a `Deliver`, else 0.
    pub sub: u32,
    /// A knowledge message answering a nack (recovery traffic).
    pub nack_response: bool,
}

/// Everything one traced node recorded.
#[derive(Debug, Default, Clone)]
pub struct NodeTrace {
    /// Callbacks, in execution order.
    pub spans: Vec<Span>,
    /// Sends, in execution order.
    pub sends: Vec<Send>,
    /// `_seq` storage spans and sends point into.
    pub seqs: Vec<u32>,
    /// Timer fired − timer due, ns.
    pub timer_late_ns: Vec<u32>,
}

impl NodeTrace {
    /// The `_seq`s span `s` carried.
    pub fn span_seqs(&self, s: &Span) -> &[u32] {
        &self.seqs[s.seq_lo as usize..(s.seq_lo + s.seq_n) as usize]
    }

    /// The `_seq`s send `s` carried.
    pub fn send_seqs(&self, s: &Send) -> &[u32] {
        &self.seqs[s.seq_lo as usize..(s.seq_lo + s.seq_n) as usize]
    }
}

struct Recorder {
    epoch: Instant,
    seq_name: AttrName,
    trace: NodeTrace,
    /// Due instants (ns) of armed timers, per key, oldest first.
    timers: HashMap<u64, VecDeque<u64>>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_seq(&mut self, e: &EventRef) {
        if let Some(AttrValue::Int(seq)) = e.attrs.get(&self.seq_name) {
            self.trace.seqs.push(*seq as u32);
        }
    }

    /// Appends the `_seq`s `msg` carries to the pool; returns their range
    /// and the destination subscriber if it is a `Deliver`.
    fn carried(&mut self, msg: &NetMsg) -> (u32, u32, u32) {
        let lo = self.trace.seqs.len() as u32;
        let mut sub = 0;
        match msg {
            NetMsg::Publish(p) => {
                if let Some(AttrValue::Int(seq)) = p.attrs.get(&self.seq_name) {
                    self.trace.seqs.push(*seq as u32);
                }
            }
            NetMsg::Knowledge(k) => {
                for part in &k.parts {
                    if let KnowledgePart::Data(e) = part {
                        self.push_seq(e);
                    }
                }
            }
            NetMsg::Server(ServerMsg::Deliver { sub: s, msg }) => {
                sub = s.0 as u32;
                if let DeliveryKind::Event(e) = &msg.kind {
                    self.push_seq(e);
                }
            }
            _ => {}
        }
        (lo, self.trace.seqs.len() as u32 - lo, sub)
    }

    fn open(&mut self, kind: u8, from: u8, seqs: (u32, u32, u32)) {
        let start_ns = self.now_ns();
        self.trace.spans.push(Span {
            kind,
            from,
            start_ns,
            end_ns: start_ns,
            seq_lo: seqs.0,
            seq_n: seqs.1,
            sub: seqs.2,
            send_lo: self.trace.sends.len() as u32,
            send_n: 0,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let sends = self.trace.sends.len() as u32;
        let span = self.trace.spans.last_mut().expect("span opened");
        span.end_ns = end_ns;
        span.send_n = sends - span.send_lo;
    }
}

/// A node wrapped for the traced pass.
pub struct Traced<N> {
    inner: N,
    rec: Recorder,
}

impl<N> Traced<N> {
    /// Wraps `inner`; timestamps count from `epoch`.
    pub fn new(inner: N, epoch: Instant) -> Self {
        Traced {
            inner,
            rec: Recorder {
                epoch,
                seq_name: AttrName::intern("_seq"),
                trace: NodeTrace::default(),
                timers: HashMap::new(),
            },
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// What was recorded.
    pub fn trace(&self) -> &NodeTrace {
        &self.rec.trace
    }
}

impl<N: Node> Node for Traced<N> {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        self.rec.open(KIND_START, FROM_DRIVER, (0, 0, 0));
        self.inner.on_start(&mut TracingCtx {
            ctx,
            rec: &mut self.rec,
        });
        self.rec.close();
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        let seqs = self.rec.carried(&msg);
        let from_id = if from == gryphon_sim::CONTROL_NODE {
            FROM_DRIVER
        } else {
            from.0 as u8
        };
        self.rec.open(kind_of(&msg), from_id, seqs);
        self.inner.on_message(
            from,
            msg,
            &mut TracingCtx {
                ctx,
                rec: &mut self.rec,
            },
        );
        self.rec.close();
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        self.rec.open(KIND_TIMER, FROM_DRIVER, (0, 0, 0));
        if let Some(due) = self
            .rec
            .timers
            .get_mut(&key.0)
            .and_then(VecDeque::pop_front)
        {
            let fired = self.rec.trace.spans.last().expect("just opened").start_ns;
            self.rec
                .trace
                .timer_late_ns
                .push(fired.saturating_sub(due).min(u32::MAX as u64) as u32);
        }
        self.inner.on_timer(
            key,
            &mut TracingCtx {
                ctx,
                rec: &mut self.rec,
            },
        );
        self.rec.close();
    }
}

/// Delegates to the runtime's context, recording sends and timers.
struct TracingCtx<'a> {
    ctx: &'a mut dyn NodeCtx,
    rec: &'a mut Recorder,
}

impl NodeCtx for TracingCtx<'_> {
    fn now_us(&self) -> u64 {
        self.ctx.now_us()
    }
    fn me(&self) -> NodeId {
        self.ctx.me()
    }
    fn send(&mut self, to: NodeId, msg: NetMsg) {
        let (seq_lo, seq_n, sub) = self.rec.carried(&msg);
        self.rec.trace.sends.push(Send {
            t_ns: self.rec.now_ns(),
            to: to.0 as u8,
            kind: kind_of(&msg),
            span: self.rec.trace.spans.len() as u32 - 1,
            seq_lo,
            seq_n,
            sub,
            nack_response: matches!(&msg, NetMsg::Knowledge(k) if k.nack_response),
        });
        self.ctx.send(to, msg);
    }
    fn set_timer(&mut self, delay_us: u64, key: TimerKey) {
        let due = self.rec.now_ns() + delay_us * 1_000;
        self.rec.timers.entry(key.0).or_default().push_back(due);
        self.ctx.set_timer(delay_us, key);
    }
    fn rng(&mut self) -> &mut SmallRng {
        self.ctx.rng()
    }
    fn work(&mut self, cost_us: u64) {
        self.ctx.work(cost_us);
    }
    fn record(&mut self, series: &str, value: f64) {
        self.ctx.record(series, value);
    }
    fn count(&mut self, counter: &str, delta: f64) {
        self.ctx.count(counter, delta);
    }
    fn observe(&mut self, name: &str, value: f64) {
        self.ctx.observe(name, value);
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.ctx.gauge(name, value);
    }
    fn trace(&mut self, event: TraceEvent) {
        self.ctx.trace(event);
    }
    fn interval(&mut self, kind: &'static str, dur_us: u64) {
        self.ctx.interval(kind, dur_us);
    }
    fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        self.ctx.attribute(dim, entity, weight);
    }
}
