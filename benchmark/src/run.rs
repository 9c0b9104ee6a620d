//! One pass of one workload on the threaded runtime: set-up, warm-up,
//! the sliced measured phase (a CPU phase, then a latency phase), drain,
//! optional saturation phase, stop, verification against the oracle.
//!
//! Topology (all workloads): node `phb` hosts the 4 pubends and has
//! child `shb`; node `shb` hosts the subscribers; node `pool` holds every
//! logical subscriber. The driver is the calling thread: it injects
//! publishes round-robin over the pubends as a fixed-rate **open loop**,
//! sleeping (never spinning) until each *due* instant and stamping the
//! due instant — not the send instant — into `_sent_us`, so a stall
//! charges the wait it imposes to the events behind it.

use crate::gen::{Workload, PROBE_EVENTS, PUBENDS, RATE};
use crate::pool::{Anomalies, Pool, SampleWindow, Shared};
use crate::procstat::{self, ThreadCpu};
use crate::sched::{self, Cores, KeepAwake, PinnedThread};
use crate::store::StoreDir;
use crate::trace::{NodeTrace, Traced};
use gryphon::{Broker, BrokerConfig};
use gryphon_net::{Handle, NetBuilder, NetResult, RunningNet};
use gryphon_sim::names;
use gryphon_types::{NetMsg, NodeId, PubendId};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PHB: NodeId = NodeId(0);
const SHB: NodeId = NodeId(1);
/// The drain and set-up deadlines: past them the run is a failure, not
/// a hang.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
const SETUP_DEADLINE: Duration = Duration::from_secs(60);
/// Deliveries allowed in flight during the closed-loop saturation
/// phase: inter-node sends are `try_send` on channels of 65 536, so the
/// loop stays a factor of four under what a full channel would drop.
const SAT_IN_FLIGHT_DELIVERIES: u64 = 16_384;
const SAT_IN_FLIGHT_EVENTS: u64 = 1_024;

/// Length of one slice of the measured phase. Interference on this box
/// comes in bursts of up to a second (a neighbour, a hypervisor stall);
/// every timing and CPU metric is an order statistic of its phase's
/// slice values, so a burst costs a slice or two, not the run.
pub const SLICE_S: f64 = 0.5;

/// Shape of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassCfg {
    /// Wrap the nodes in [`Traced`] and keep their spans.
    pub traced: bool,
    /// Set-ups to time (each on a fresh store; the last one is used).
    pub setups: usize,
    /// Warm-up at the workload's rate, discarded.
    pub warm_s: f64,
    /// Measured phase, first part: all four threads on one core, the
    /// vCPUs may halt; CPU metrics.
    pub cpu_s: f64,
    /// Measured phase, second part: the generator on a core of its own,
    /// the vCPUs kept awake; latency metrics. Both parts are cut into
    /// slices of [`SLICE_S`].
    pub lat_s: f64,
    /// Closed-loop saturation phase after the drain; 0 skips it.
    pub sat_s: f64,
}

/// Deliveries that went wrong, by kind; their sum is `failed`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// Expected by the oracle, absent at the drain deadline.
    pub missing: u64,
    /// Received more than once.
    pub duplicates: u64,
    /// Per-pubend `_seq` order violations in a subscriber's ledger.
    pub out_of_order: u64,
    /// Received by a subscriber whose filter the event does not satisfy.
    pub spurious: u64,
    /// From the pool: gaps, stale timestamps, refused connects.
    pub anomalies: Anomalies,
    /// Publishes the PHB dropped.
    pub publish_dropped: u64,
}

impl Failures {
    /// Failed operations.
    pub fn total(&self) -> u64 {
        self.missing
            + self.duplicates
            + self.out_of_order
            + self.spurious
            + self.anomalies.gaps
            + self.anomalies.order_violations
            + self.anomalies.connect_errors
            + self.publish_dropped
    }
}

/// CPU clocks (ns) and bytes written at a slice boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    phb_ns: u64,
    shb_ns: u64,
    pool_ns: u64,
    driver_ns: u64,
    wchar: u64,
}

/// One slice of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Events due (and published) in the slice.
    pub events: u64,
    /// Latency phase (generator on its own core, vCPUs kept awake) as
    /// opposed to CPU phase.
    pub awake: bool,
    /// CPU the `phb` thread used, ns.
    pub phb_ns: u64,
    /// CPU the `shb` thread used, ns.
    pub shb_ns: u64,
    /// CPU the `pool` thread used, ns.
    pub pool_ns: u64,
    /// CPU the driver thread used, ns.
    pub driver_ns: u64,
    /// Generator lateness (actual − due send), µs, sorted.
    pub lag_us: Vec<u32>,
    /// Publish-due → receipt, µs, sorted.
    pub lat_us: Vec<f32>,
}

/// Program counters read back through `NetResult` — existing public
/// outputs of the program, whole-run totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub published: f64,
    pub commits: f64,
    pub constream_delivered: f64,
    pub catchup_delivered: f64,
    pub knowledge_batches: f64,
    pub batch_parts_mean: f64,
    pub nacks_sent: f64,
    pub pfs_batch_read_records_mean: f64,
    pub commit_group_size_mean: f64,
}

/// Spans of the three nodes of a traced pass.
pub struct Traces {
    pub phb: NodeTrace,
    pub shb: NodeTrace,
    pub pool: NodeTrace,
    /// Actual inject instant per seq, ns since the bench epoch.
    pub inject_ns: Vec<u64>,
}

/// What a pass measured.
pub struct Pass {
    /// One value per timed set-up.
    pub setup_s: Vec<f64>,
    /// The measured phase, slice by slice.
    pub slices: Vec<Slice>,
    /// Bytes written (`wchar`) over the measured phase.
    pub disk_bytes: u64,
    /// `VmHWM` right after `stop()`.
    pub rss_peak_mib: f64,
    /// Saturation phase throughput (0 if skipped).
    pub sat_events_per_s: f64,
    /// Reference deliveries.
    pub attempted: u64,
    /// Deliveries that went wrong.
    pub failures: Failures,
    /// `NetResult::watchdog_violations()`.
    pub watchdog_violations: f64,
    /// `NetResult::ledger_violations()`.
    pub ledger_violations: u64,
    /// Whether the ledger completed before the drain deadline.
    pub drained: bool,
    /// Time the drain took.
    pub drain_s: f64,
    /// `ConnectOk` → caught up, per reconnect, ms.
    pub catchup_ms: Vec<f64>,
    /// Reconnects cycling subscribers issued.
    pub reconnects: u64,
    /// See [`Counters`].
    pub counters: Counters,
    /// Stream start and measured-phase bounds, ns since the bench epoch.
    pub stream_start_ns: u64,
    /// First seq and number of events of the latency phase: what the
    /// traced pass's analysis looks at.
    pub measured: (u32, u32),
    /// Storage medium label.
    pub medium: String,
    /// Whether the keep-awake threads got the idle scheduling class (if
    /// not, they did not run and vCPU wake-ups are in every latency).
    pub awake_idle_class: bool,
    /// Whether every thread took every pin it was given.
    pub pinned: bool,
    /// Present after a traced pass.
    pub traces: Option<Traces>,
}

impl Pass {
    /// `correct` in the contract's sense.
    pub fn correct(&self) -> bool {
        self.failures.total() == 0
            && self.watchdog_violations == 0.0
            && self.ledger_violations == 0
            && self.drained
    }

    /// Events published in the measured phase.
    pub fn measured_events(&self) -> u64 {
        self.slices.iter().map(|s| s.events).sum()
    }

    /// Slices of the CPU phase (`awake == false`) or the latency phase.
    pub fn phase(&self, awake: bool) -> impl Iterator<Item = &Slice> {
        self.slices.iter().filter(move |s| s.awake == awake)
    }
}

enum Handles {
    Plain(Handle<Pool>),
    Traced {
        phb: Handle<Traced<Broker>>,
        shb: Handle<Traced<Broker>>,
        pool: Handle<Traced<Pool>>,
    },
}

/// A started net that has finished set-up. Field order matters: the
/// store directory is removed after the brokers using it have stopped.
struct Net {
    /// `None` only once stopped.
    running: Option<RunningNet>,
    handles: Option<Handles>,
    shared: Arc<Shared>,
    epoch: Instant,
    clocks: CpuClocks,
    /// Whether the three node threads took their pins.
    pinned: bool,
    /// Deliveries the oracle expects for everything published so far.
    expected: u64,
    next_seq: u32,
    store: StoreDir,
}

impl Net {
    /// Builds the topology on a fresh store, connects every subscriber
    /// and sees the probe events through to all their matches.
    fn set_up(
        w: &Workload,
        traced: bool,
        window: SampleWindow,
        cores: Option<Cores>,
    ) -> Result<(Net, f64), String> {
        let t0 = Instant::now();
        let store = StoreDir::create().map_err(|e| format!("store directory: {e}"))?;
        let epoch = t0;
        let shared = Arc::new(Shared {
            newest_seq: AtomicI64::new(-1),
            ..Shared::default()
        });
        // The shipped defaults, with the modeled 44 ms disk replaced by
        // the real file write.
        let cfg = BrokerConfig {
            phb_commit_latency_us: 0,
            ..BrokerConfig::default()
        };
        let mut phb = Broker::new(0, store.factory("phb"), cfg.clone())
            .hosting_pubends((0..PUBENDS).map(PubendId));
        phb.add_child(SHB);
        let mut shb = Broker::new(1, store.factory("shb"), cfg).hosting_subscribers();
        shb.set_parent(PHB);
        let pool = Pool::new(w, SHB, epoch, window, Arc::clone(&shared));
        let mut b = NetBuilder::new();
        let handles = if traced {
            Handles::Traced {
                phb: b.add_node("phb", Traced::new(phb, epoch)),
                shb: b.add_node("shb", Traced::new(shb, epoch)),
                pool: b.add_node("pool", Traced::new(pool, epoch)),
            }
        } else {
            b.add_node("phb", phb);
            b.add_node("shb", shb);
            Handles::Plain(b.add_node("pool", pool))
        };
        let running = b.start();
        let deadline = t0 + SETUP_DEADLINE;
        // A thread takes its name a moment after it is spawned.
        let clocks = loop {
            match CpuClocks::find() {
                Ok(clocks) => break clocks,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(100)),
            }
        };
        let pinned = cores.is_some_and(|c| {
            sched::pin(clocks.phb.tid, c.brokers)
                & sched::pin(clocks.shb.tid, c.brokers)
                & sched::pin(clocks.pool.tid, c.generator)
        });
        let mut net = Net {
            running: Some(running),
            handles: Some(handles),
            shared,
            epoch,
            clocks,
            pinned,
            expected: 0,
            next_seq: 0,
            store,
        };
        let subs = w.spec.subs as u64;
        net.wait(deadline, |s| {
            s.connected_once.load(Ordering::Relaxed) >= subs
        })
        .map_err(|()| "set-up: subscribers did not all connect".to_owned())?;
        for _ in 0..PROBE_EVENTS {
            let now_us = epoch.elapsed().as_micros() as i64;
            net.publish(w, now_us);
        }
        let expected = net.expected;
        net.wait(deadline, |s| {
            s.delivered.load(Ordering::Relaxed) >= expected
        })
        .map_err(|()| "set-up: probe events were not delivered".to_owned())?;
        Ok((net, t0.elapsed().as_secs_f64()))
    }

    fn wait(&self, deadline: Instant, done: impl Fn(&Shared) -> bool) -> Result<(), ()> {
        while !done(&self.shared) {
            if Instant::now() > deadline {
                return Err(());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Builds the next event of the stream, due at `sent_us`, and books
    /// its expected deliveries.
    fn next_event(&mut self, w: &Workload, sent_us: i64) -> (u32, NetMsg) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.expected += w.matching(seq, |_| {}) as u64;
        (seq, NetMsg::Publish(w.publish(seq, sent_us)))
    }

    fn inject(&self, seq: u32, msg: NetMsg) {
        self.running.as_ref().expect("running").inject(PHB, msg);
        self.shared.newest_seq.store(seq as i64, Ordering::Relaxed);
    }

    fn publish(&mut self, w: &Workload, sent_us: i64) {
        let (seq, msg) = self.next_event(w, sent_us);
        self.inject(seq, msg);
    }

    fn stop(mut self) -> (NetResult, Handles) {
        let running = self.running.take().expect("running");
        (running.stop(), self.handles.take().expect("handles"))
    }
}

impl Drop for Net {
    /// Joins the node threads on every path, then lets the store
    /// directory go.
    fn drop(&mut self) {
        if let Some(running) = self.running.take() {
            drop(running.stop());
        }
    }
}

struct CpuClocks {
    phb: ThreadCpu,
    shb: ThreadCpu,
    pool: ThreadCpu,
    driver: ThreadCpu,
}

impl CpuClocks {
    fn find() -> Result<Self, String> {
        let by_name = |n: &str| ThreadCpu::by_name(n).ok_or(format!("no thread named {n}"));
        Ok(CpuClocks {
            phb: by_name("phb")?,
            shb: by_name("shb")?,
            pool: by_name("pool")?,
            driver: ThreadCpu::current(),
        })
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            phb_ns: self.phb.ns(),
            shb_ns: self.shb.ns(),
            pool_ns: self.pool.ns(),
            driver_ns: self.driver.ns(),
            wchar: procstat::written_bytes(),
        }
    }
}

/// Runs one pass of `w`.
pub fn run_pass(w: &Workload, cfg: PassCfg) -> Result<Pass, String> {
    let interval_ns = 1_000_000_000 / RATE;
    let warm_n = (cfg.warm_s * RATE as f64) as u32;
    let per_slice = (SLICE_S * RATE as f64) as u32;
    let cpu_slices = ((cfg.cpu_s / SLICE_S).round() as usize).max(1);
    let slices = cpu_slices + ((cfg.lat_s / SLICE_S).round() as usize).max(1);
    let measure_n = per_slice * slices as u32;
    let window = SampleWindow {
        from: PROBE_EVENTS + warm_n,
        per_slice,
        slices,
    };

    // Placement: see `sched`. The driver's pin ends with the pass.
    let cores = Cores::pick();
    let driver_pin = cores.map(|c| PinnedThread::to(c.generator));
    // Set-up, `setups` times; the last net carries the run.
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut net = None;
    for _ in 0..cfg.setups.max(1) {
        drop(net.take());
        let (n, secs) = Net::set_up(w, cfg.traced, window, cores)?;
        setup_s.push(secs);
        net = Some(n);
    }
    let mut net = net.expect("at least one set-up");
    let medium = crate::store::medium(net.store.path());
    let epoch = net.epoch;
    // Warm-up and CPU phase: the generator shares the brokers' core.
    let pool_tid = net.clocks.pool.tid;
    let move_generator = |core: usize| sched::pin(pool_tid, core) & sched::pin(0, core);
    let mut pinned = net.pinned
        && driver_pin.as_ref().is_some_and(PinnedThread::pinned)
        && cores.is_some_and(|c| move_generator(c.brokers));

    // Warm-up + measured phase: one fixed-rate open loop.
    let start = Instant::now() + Duration::from_millis(5);
    let stream_start_ns = start.duration_since(epoch).as_nanos() as u64;
    net.shared
        .stream_start_us
        .store(stream_start_ns / 1_000, Ordering::Relaxed);
    let mut inject_ns = Vec::new();
    let mut lag_us: Vec<Vec<u32>> = vec![Vec::with_capacity(per_slice as usize); slices];
    let mut snaps = Vec::with_capacity(slices + 1);
    let mut awake = None;
    for i in 0..warm_n + measure_n {
        let measured = i.checked_sub(warm_n);
        if measured.is_some_and(|m| m % per_slice == 0) {
            snaps.push(net.clocks.snapshot());
            if snaps.len() == cpu_slices + 1 {
                // The CPU phase is over: the generator gets its own core
                // and the vCPUs stay awake from here on.
                pinned &= cores.is_some_and(|c| move_generator(c.generator));
                awake = cores.map(KeepAwake::start);
            }
        }
        let due_ns = stream_start_ns + i as u64 * interval_ns;
        let (seq, msg) = net.next_event(w, (due_ns / 1_000) as i64);
        let due = epoch + Duration::from_nanos(due_ns);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = epoch.elapsed().as_nanos() as u64;
        net.inject(seq, msg);
        if let Some(m) = measured {
            lag_us[(m / per_slice) as usize].push((sent.saturating_sub(due_ns) / 1_000) as u32);
        }
        if cfg.traced {
            inject_ns.resize(seq as usize, 0);
            inject_ns.push(sent);
        }
    }
    // The last slice ends when the event after it would have been due.
    let end_ns = stream_start_ns + (warm_n + measure_n) as u64 * interval_ns;
    if let Some(wait) =
        (epoch + Duration::from_nanos(end_ns)).checked_duration_since(Instant::now())
    {
        std::thread::sleep(wait);
    }
    snaps.push(net.clocks.snapshot());
    let awake_idle_class = awake.is_some_and(KeepAwake::finish);

    // Drain: every subscriber back on line, ledger complete.
    let drain_start = Instant::now();
    net.shared.draining.store(true, Ordering::Relaxed);
    let expected = net.expected;
    let drained = net
        .wait(drain_start + DRAIN_DEADLINE, |s| {
            s.delivered.load(Ordering::Relaxed) >= expected
        })
        .is_ok();
    let drain_s = drain_start.elapsed().as_secs_f64();

    // Saturation: closed loop, reported and never gated.
    let mut sat_events_per_s = 0.0;
    if cfg.sat_s > 0.0 && drained {
        let sat_start = Instant::now();
        let first = net.next_seq;
        while sat_start.elapsed().as_secs_f64() < cfg.sat_s {
            let delivered = net.shared.delivered.load(Ordering::Relaxed);
            let in_flight = net.expected.saturating_sub(delivered);
            let per_event = (net.expected / net.next_seq as u64).max(1);
            if in_flight >= SAT_IN_FLIGHT_DELIVERIES.min(SAT_IN_FLIGHT_EVENTS * per_event) {
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            net.publish(w, -1);
        }
        let expected = net.expected;
        let done = net
            .wait(Instant::now() + DRAIN_DEADLINE, |s| {
                s.delivered.load(Ordering::Relaxed) >= expected
            })
            .is_ok();
        if done {
            sat_events_per_s = (net.next_seq - first) as f64 / sat_start.elapsed().as_secs_f64();
        }
    }

    let (published, attempted) = (net.next_seq, net.expected);
    let (result, handles) = net.stop();
    let rss_peak_mib = procstat::rss_peak_mib();

    let (pool, traces) = match handles {
        Handles::Plain(h) => (result.node(h), None),
        Handles::Traced { phb, shb, pool } => {
            let traces = Traces {
                phb: result.node(phb).trace().clone(),
                shb: result.node(shb).trace().clone(),
                pool: result.node(pool).trace().clone(),
                inject_ns,
            };
            (result.node(pool).inner(), Some(traces))
        }
    };

    let mut measured_slices = Vec::with_capacity(slices);
    for (k, pair) in snaps.windows(2).enumerate() {
        let (a, b) = (pair[0], pair[1]);
        let mut lag = std::mem::take(&mut lag_us[k]);
        lag.sort_unstable();
        let mut lat: Vec<f32> = pool.lat_ns[k]
            .iter()
            .map(|&ns| ns as f32 / 1_000.0)
            .collect();
        lat.sort_unstable_by(f32::total_cmp);
        measured_slices.push(Slice {
            events: per_slice as u64,
            awake: k >= cpu_slices,
            phb_ns: b.phb_ns - a.phb_ns,
            shb_ns: b.shb_ns - a.shb_ns,
            pool_ns: b.pool_ns - a.pool_ns,
            driver_ns: b.driver_ns - a.driver_ns,
            lag_us: lag,
            lat_us: lat,
        });
    }
    let disk_bytes = snaps.last().expect("snapshots").wchar - snaps[0].wchar;

    let m = &result.metrics;
    let hist_mean = |name: &str| m.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0);
    let counters = Counters {
        published: m.counter("phb.published"),
        commits: m.counter("phb.commits"),
        constream_delivered: m.counter(names::SHB_CONSTREAM_DELIVERED),
        catchup_delivered: m.counter(names::SHB_CATCHUP_DELIVERED),
        knowledge_batches: m.counter(names::IB_KNOWLEDGE_BATCHES),
        batch_parts_mean: hist_mean(names::IB_KNOWLEDGE_BATCH_PARTS),
        nacks_sent: m.counter(names::CURIOSITY_NACKS_SENT),
        pfs_batch_read_records_mean: hist_mean(names::PFS_BATCH_READ_RECORDS),
        commit_group_size_mean: hist_mean(names::STORAGE_COMMIT_GROUP_SIZE),
    };
    let mut failures = verify(w, pool, published);
    failures.publish_dropped = m.counter("phb.publish_dropped") as u64;

    Ok(Pass {
        setup_s,
        slices: measured_slices,
        disk_bytes,
        rss_peak_mib,
        sat_events_per_s,
        attempted,
        failures,
        watchdog_violations: result.watchdog_violations(),
        ledger_violations: result.ledger_violations(),
        drained,
        drain_s,
        catchup_ms: pool.catchup_ms.clone(),
        reconnects: pool.reconnects,
        counters,
        stream_start_ns,
        measured: (
            window.from + per_slice * cpu_slices as u32,
            per_slice * (slices - cpu_slices) as u32,
        ),
        medium,
        awake_idle_class,
        pinned,
        traces,
    })
}

/// Exactly-once check: the pool's ledger against the oracle's reference
/// — per subscriber and pubend, the `_seq`s it must hold, in order.
fn verify(w: &Workload, pool: &Pool, published: u32) -> Failures {
    let n_p = PUBENDS as usize;
    let mut want: Vec<Vec<u32>> = vec![Vec::new(); w.spec.subs * n_p];
    for seq in 0..published {
        let p = Workload::pubend_of(seq).0 as usize;
        w.matching(seq, |j| want[j * n_p + p].push(seq));
    }
    let mut f = Failures {
        anomalies: pool.anomalies,
        ..Failures::default()
    };
    for j in 0..w.spec.subs {
        for p in 0..n_p {
            let (want, got) = (&want[j * n_p + p], &pool.ledger(j)[p]);
            if want == got {
                continue;
            }
            f.out_of_order += got.windows(2).filter(|w| w[1] < w[0]).count() as u64;
            let mut sorted = got.clone();
            sorted.sort_unstable();
            let before = sorted.len();
            sorted.dedup();
            f.duplicates += (before - sorted.len()) as u64;
            // `want` is ascending by construction.
            f.missing += want
                .iter()
                .filter(|s| sorted.binary_search(s).is_err())
                .count() as u64;
            f.spurious += sorted
                .iter()
                .filter(|s| want.binary_search(s).is_err())
                .count() as u64;
        }
    }
    f
}
