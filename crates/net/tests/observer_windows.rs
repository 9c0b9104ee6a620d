//! The threaded runtime closes the same window the simulator closes,
//! while it runs — not once at `stop()` — and counts what it drops.

use gryphon_net::{Handle, NetBuilder};
use gryphon_sim::sketch::{DIM_SUB_BYTES, DIM_SUB_LAG};
use gryphon_sim::telemetry::Timeline;
use gryphon_sim::{names, AlertState, Node, NodeCtx, TimerKey};
use gryphon_types::{InterestChange, NetMsg, NodeId, SubInterestMsg};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn ping() -> NetMsg {
    NetMsg::SubInterest(SubInterestMsg {
        version: 0,
        change: InterestChange::Snapshot(vec![]),
    })
}

/// On every message, attributes a window's worth of delivered bytes: one
/// heavy subscriber among three light ones, and a lag for each.
struct Sweeper;

const HEAVY: u64 = 7;

impl Node for Sweeper {
    fn on_message(&mut self, _: NodeId, _: NetMsg, ctx: &mut dyn NodeCtx) {
        ctx.attribute(DIM_SUB_BYTES, HEAVY, 10_000);
        ctx.attribute(DIM_SUB_LAG, HEAVY, 900);
        for light in 1..=3 {
            ctx.attribute(DIM_SUB_BYTES, light, 10);
            ctx.attribute(DIM_SUB_LAG, light, 5);
        }
    }
    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

/// Per-window sketch drain, culprit naming and sketch-driven alerts on
/// the live timeline. At the parent commit the sketch was drained once,
/// in `stop()`, so none of this could be seen — or fire — mid-run.
#[test]
fn sampler_windows_drain_the_sketch_and_fire_named_alerts_mid_run() {
    let mut builder = NetBuilder::new();
    let sweeper = builder.add_node("sweeper", Sweeper);
    let mut net = builder.start();
    net.start_sampler(Duration::from_millis(5));

    let seen = |t: &Timeline| {
        let dims: Vec<&str> = t.topks().map(|s| s.dim).collect();
        dims.contains(&DIM_SUB_BYTES)
            && dims.contains(&DIM_SUB_LAG)
            && !t.series(names::SKETCH_DOMINANCE_SHARE).is_empty()
            && t.alerts().iter().any(|a| a.rule == "entity_dominance")
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let live = loop {
        net.inject(sweeper.id(), ping());
        std::thread::sleep(Duration::from_millis(1));
        let t = net.telemetry().expect("sampler armed");
        if seen(&t) {
            break t;
        }
        assert!(
            Instant::now() < deadline,
            "no sketch window on the live timeline; series: {:?}",
            t.series_names()
        );
    };

    let bytes = live
        .topks()
        .find(|s| s.dim == DIM_SUB_BYTES)
        .expect("checked above");
    assert_eq!(bytes.entries[0].entity, HEAVY, "ranked: {bytes:?}");
    let share = live.series(names::SKETCH_DOMINANCE_SHARE);
    assert!(share.iter().any(|&(_, v)| v > 0.75), "share: {share:?}");
    assert!(!live.series(names::SKETCH_LAG_P99_US).is_empty());
    let alert = live
        .alerts()
        .iter()
        .find(|a| a.rule == "entity_dominance")
        .expect("checked above");
    assert_eq!(alert.state, AlertState::Firing);
    assert!(
        alert
            .detail
            .contains(&format!("top {DIM_SUB_BYTES} entity {HEAVY} ")),
        "the alert must name its culprit: {}",
        alert.detail
    );

    let result = net.stop();
    assert!(result.metrics.counter(names::HEALTH_ALERT_ENTITY_DOMINANCE) >= 1.0);
    let final_timeline = result.telemetry.expect("sampler ran");
    assert!(final_timeline.topks().len() >= live.topks().len());
}

/// Floods `to` from inside one callback, then reports back.
struct Flooder {
    to: NodeId,
    sends: usize,
    done: mpsc::Sender<()>,
}

impl Node for Flooder {
    fn on_message(&mut self, _: NodeId, _: NetMsg, ctx: &mut dyn NodeCtx) {
        for _ in 0..self.sends {
            ctx.send(self.to, ping());
        }
        self.done.send(()).expect("test is listening");
    }
    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

/// Holds its first callback — and with it its worker's observer lock, so
/// the test may read nothing from the net meanwhile — until released.
struct Stalled {
    entered: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
    got: u64,
}

impl Node for Stalled {
    fn on_message(&mut self, _: NodeId, _: NetMsg, _: &mut dyn NodeCtx) {
        if self.got == 0 {
            self.entered.send(()).expect("test is listening");
            self.release.recv().expect("test releases the stall");
        }
        self.got += 1;
    }
    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

/// Registers a [`Stalled`] node: its handle, the signal that its first
/// callback has begun, and the sender that lets that callback return.
fn add_stalled(
    builder: &mut NetBuilder,
) -> (Handle<Stalled>, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (entered, stall_entered) = mpsc::channel();
    let (release, stall_release) = mpsc::channel();
    let stalled = builder.add_node(
        "stalled",
        Stalled {
            entered,
            release: stall_release,
            got: 0,
        },
    );
    (stalled, stall_entered, release)
}

/// A node-to-node send that finds the destination's channel full is
/// dropped — and counted under `net.dropped`, the name the simulator
/// uses for link loss. At the parent commit it vanished without a trace.
#[test]
fn sends_into_a_full_channel_are_counted() {
    const CHANNEL: usize = 65_536;
    const EXCESS: usize = 100;
    let (done, flood_done) = mpsc::channel();
    let mut builder = NetBuilder::new();
    let (stalled, stall_entered, release) = add_stalled(&mut builder);
    let flooder = builder.add_node(
        "flooder",
        Flooder {
            to: stalled.id(),
            // One message is inside the stalled callback, CHANNEL fit
            // behind it, the rest are refused.
            sends: CHANNEL + EXCESS,
            done,
        },
    );
    let net = builder.start();
    let wait = Duration::from_secs(30);
    net.inject(stalled.id(), ping());
    // The flood starts only once the stall has taken its message off
    // the channel, so the channel's whole capacity is free.
    stall_entered.recv_timeout(wait).expect("stall entered");
    net.inject(flooder.id(), ping());
    flood_done.recv_timeout(wait).expect("flood finished");
    release.send(()).expect("stalled node is waiting");
    let result = net.stop();
    assert_eq!(result.metrics.counter(names::NET_DROPPED), EXCESS as f64);
    assert!(result.node(stalled).got >= 1);
}

/// Harness injection is the blocking path: into a full channel it waits
/// for a slot instead of dropping, so every injected message is seen.
#[test]
fn inject_into_a_full_channel_waits_for_a_slot() {
    const CHANNEL: usize = 65_536;
    const EXCESS: usize = 100;
    let mut builder = NetBuilder::new();
    let (stalled, stall_entered, release) = add_stalled(&mut builder);
    let net = builder.start();
    let wait = Duration::from_secs(30);
    net.inject(stalled.id(), ping());
    stall_entered.recv_timeout(wait).expect("stall entered");
    let injected = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..CHANNEL + EXCESS {
                net.inject(stalled.id(), ping());
                injected.fetch_add(1, Ordering::SeqCst);
            }
        });
        // CHANNEL injections fit behind the stalled callback; the next
        // one cannot return until the node takes a message.
        let deadline = Instant::now() + wait;
        while injected.load(Ordering::SeqCst) < CHANNEL {
            assert!(
                Instant::now() < deadline,
                "injector never filled the channel"
            );
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(injected.load(Ordering::SeqCst), CHANNEL);
        release.send(()).expect("stalled node is waiting");
    });
    // Every message is on the channel or already seen; let the node
    // finish the backlog before stopping it.
    let total = (1 + CHANNEL + EXCESS) as u64;
    let deadline = Instant::now() + wait;
    let backlog = || net.metrics_snapshot().gauge(names::TELEMETRY_QUEUE_DEPTH);
    while backlog() != Some(0.0) && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let result = net.stop();
    assert_eq!(result.metrics.counter(names::NET_DROPPED), 0.0);
    assert_eq!(result.node(stalled).got, total);
}
