//! One bundle schema for both runtimes (ROADMAP aim 4): the same
//! three-node workload run under the simulator and under the threaded
//! runtime, each with a sampler armed, yields bundles with the same file
//! set and the same record keys in every stream. Values differ — one
//! clock is virtual, the other the wall's — but a reader of one bundle
//! reads the other, because one `Observers::close_window` wrote both.
//!
//! The workload is three small nodes that report the life of each event
//! through `NodeCtx` exactly as brokers do, shaped so that *every* stream
//! has content: a slow delivery for the tail reservoir, a commit interval
//! for the contention profiler, a dominant subscriber for the sketch and
//! the `entity_dominance` alert.

#![cfg(feature = "trace")]

use gryphon_harness::bundle::{write_bundle, BundleMeta};
use gryphon_harness::{doctor, Report, RunOptions};
use gryphon_net::NetBuilder;
use gryphon_sim::forensics::KIND_COMMIT;
use gryphon_sim::sketch::{DIM_SUB_BYTES, DIM_SUB_LAG};
use gryphon_sim::{DeliveryPath, Node, NodeCtx, Sim, TimerKey, TraceEvent};
use gryphon_types::{
    InterestChange, NetMsg, NodeId, PubendId, SubInterestMsg, SubscriberId, Timestamp,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const P: PubendId = PubendId(0);
const EVENTS: u64 = 300;
/// Every `SLOW_EVERY`th event is delivered late: the tail exemplar.
const SLOW_EVERY: u64 = 100;

fn carrier() -> NetMsg {
    NetMsg::SubInterest(SubInterestMsg {
        version: 0,
        change: InterestChange::Snapshot(vec![]),
    })
}

/// Timestamps and logs each injected event, then forwards it. Links are
/// FIFO on both runtimes, so the nodes downstream count along.
struct Phb {
    shb: NodeId,
    ts: u64,
}

impl Node for Phb {
    fn on_message(&mut self, _: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        self.ts += 1;
        let ts = Timestamp(self.ts);
        ctx.trace(TraceEvent::PubendTimestamped { pubend: P, ts });
        ctx.trace(TraceEvent::EventLogged {
            pubend: P,
            ts,
            bytes: 100,
        });
        ctx.interval(KIND_COMMIT, 50);
        ctx.send(self.shb, msg);
    }
    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

/// Ingests each event and delivers it off a timer — the slow ones, to a
/// subscriber of their own so each session stays in order, much later.
struct Shb {
    client: NodeId,
    ts: u64,
}

impl Node for Shb {
    fn on_message(&mut self, _: NodeId, _: NetMsg, ctx: &mut dyn NodeCtx) {
        self.ts += 1;
        ctx.trace(TraceEvent::ShbIngested {
            pubend: P,
            ts: Timestamp(self.ts),
        });
        let slow = self.ts.is_multiple_of(SLOW_EVERY);
        ctx.set_timer(if slow { 30_000 } else { 100 }, TimerKey(self.ts));
    }
    fn on_timer(&mut self, key: TimerKey, ctx: &mut dyn NodeCtx) {
        let slow = key.0.is_multiple_of(SLOW_EVERY);
        let sub = if slow { 9 } else { 7 };
        ctx.trace(TraceEvent::Delivered {
            pubend: P,
            ts: Timestamp(key.0),
            sub: SubscriberId(sub),
            path: DeliveryPath::Constream,
        });
        // What a population sweep would report: subscriber 7 takes
        // nearly all the bytes, among enough others to count as a
        // population.
        ctx.attribute(DIM_SUB_BYTES, 7, 10_000);
        for light in 1..=3 {
            ctx.attribute(DIM_SUB_BYTES, light, 10);
            ctx.attribute(DIM_SUB_LAG, light, 50);
        }
        ctx.send(self.client, carrier());
    }
}

struct Client;

impl Node for Client {
    fn on_message(&mut self, _: NodeId, _: NetMsg, ctx: &mut dyn NodeCtx) {
        ctx.count("client.events", 1.0);
    }
    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

// Registration order fixes the ids on both runtimes: phb 0, shb 1, client 2.
fn nodes() -> (Phb, Shb, Client) {
    (
        Phb {
            shb: NodeId(1),
            ts: 0,
        },
        Shb {
            client: NodeId(2),
            ts: 0,
        },
        Client,
    )
}

fn under_sim() -> Report {
    let mut sim = Sim::new(7);
    RunOptions {
        sample_interval_us: Some(50_000),
        ..RunOptions::default()
    }
    .arm(&mut sim);
    let (phb, shb, client) = nodes();
    let phb = sim.add_typed_node("phb", phb).id();
    let shb = sim.add_typed_node("shb", shb).id();
    let client = sim.add_typed_node("client", client).id();
    sim.connect(phb, shb, 200);
    sim.connect(shb, client, 200);
    for i in 0..EVENTS {
        sim.inject_ctrl(i * 1_000, phb, carrier());
    }
    sim.run_until(EVENTS * 1_000 + 100_000);
    assert_eq!(sim.metrics().counter("client.events"), EVENTS as f64);
    assert_eq!(sim.ledger_violations() + sim.watchdog_violations(), 0);
    let mut report = Report::new("parity");
    report.attach_metrics(sim.metrics());
    report.attach_telemetry(sim.take_telemetry().expect("sampler armed"));
    report
}

fn under_net() -> Report {
    let (phb, shb, client) = nodes();
    let mut builder = NetBuilder::new();
    let phb = builder.add_node("phb", phb);
    builder.add_node("shb", shb);
    builder.add_node("client", client);
    let mut net = builder.start();
    net.start_sampler(Duration::from_millis(20));
    for _ in 0..EVENTS {
        net.inject(phb.id(), carrier());
        std::thread::sleep(Duration::from_micros(500));
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while net.counter("client.events") < EVENTS as f64 {
        assert!(Instant::now() < deadline, "threaded run never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    let result = net.stop();
    assert_eq!(result.ledger_violations(), 0);
    assert_eq!(result.watchdog_violations(), 0.0);
    let mut report = Report::new("parity");
    report.attach_metrics(&result.metrics);
    report.attach_telemetry(result.telemetry.expect("sampler ran"));
    report
}

/// Every path under `dir`, relative, directories included.
fn file_set(dir: &Path) -> BTreeSet<PathBuf> {
    let mut out = BTreeSet::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("bundle dir") {
            let path = entry.expect("dir entry").path();
            out.insert(path.strip_prefix(dir).expect("under dir").to_path_buf());
            if path.is_dir() {
                stack.push(path);
            }
        }
    }
    out
}

/// The JSON keys used anywhere in an ndjson stream, in a flat record
/// format where every `"` not preceded by `\` delimits a string and
/// every string followed by `:` is a key.
fn record_keys(ndjson: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for line in ndjson.lines() {
        let mut rest = line;
        while let Some(open) = rest.find('"') {
            let body = &rest[open + 1..];
            let mut close = 0;
            let bytes = body.as_bytes();
            while bytes[close] != b'"' {
                close += if bytes[close] == b'\\' { 2 } else { 1 };
            }
            if body[close + 1..].starts_with(':') {
                keys.insert(body[..close].to_owned());
            }
            rest = &body[close + 1..];
        }
    }
    keys
}

#[test]
fn sim_and_net_bundles_share_files_and_record_keys() {
    let root = std::env::temp_dir().join(format!("gryphon-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let meta = BundleMeta::default();
    let sim_dir = write_bundle(&root.join("sim"), &under_sim(), &meta).expect("sim bundle");
    let net_dir = write_bundle(&root.join("net"), &under_net(), &meta).expect("net bundle");

    assert_eq!(file_set(&sim_dir), file_set(&net_dir));

    let streams = [
        "timeline.ndjson",
        "alerts.ndjson",
        "exemplars.ndjson",
        "intervals.ndjson",
        "topk.ndjson",
    ];
    let keys_of = |dir: &Path| -> BTreeMap<&str, BTreeSet<String>> {
        streams
            .iter()
            .map(|&name| {
                let text = std::fs::read_to_string(dir.join(name)).expect(name);
                (name, record_keys(&text))
            })
            .collect()
    };
    let (sim_keys, net_keys) = (keys_of(&sim_dir), keys_of(&net_dir));
    for name in streams {
        assert!(!sim_keys[name].is_empty(), "sim bundle: empty {name}");
        assert_eq!(sim_keys[name], net_keys[name], "{name}");
    }
    // The tail exemplar's stages ran on two workers (timestamped and
    // logged on the PHB's, ingested and delivered on the SHB's): its
    // anchors resolve only if the window's owner looked the span up in
    // both shards.
    for anchor in ["birth_us", "log_us", "ingest_us"] {
        assert!(net_keys["exemplars.ndjson"].contains(anchor), "{anchor}");
    }

    // And the one reader reads both.
    for dir in [&sim_dir, &net_dir] {
        let bundle = doctor::load_bundle(dir).expect("bundle loads");
        assert!(bundle
            .alerts
            .iter()
            .any(|a| a.rule == "entity_dominance" && a.detail.contains("entity 7 ")));
        assert!(!bundle.exemplars.is_empty());
        assert!(!bundle.intervals.is_empty());
        assert!(bundle.timeline.topks().len() > 0);
    }
    let _ = std::fs::remove_dir_all(&root);
}
