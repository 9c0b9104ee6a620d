//! Topology builder for the paper's Figure 3 networks.
//!
//! * **1 broker** — one node hosting pubends *and* subscribers;
//! * **1 / 2 / 4 SHB** — a PHB hosting all pubends with SHBs as children
//!   (optionally through an intermediate broker to exercise caching and
//!   nack consolidation at an interior node).

use crate::workload::Workload;
use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient};
use gryphon_sim::{Handle, LinkParams, Sim};
use gryphon_storage::MemFactory;
use gryphon_types::{NodeId, PubendId, SubscriberId};

/// Everything about a run that `xp`'s flags decide, in one value: passed
/// to [`crate::run`], carried on [`TopologySpec::run`] into every
/// [`System::build`], and applied to a freshly built simulator by
/// [`RunOptions::arm`]. The default is what a test wants: a full-length,
/// unobserved, undegraded run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Shortened virtual-time version of each experiment (`--quick`).
    pub quick: bool,
    /// Flight-recorder directory: any watchdog or ledger violation dumps
    /// a post-mortem there (`None` disables it). `xp --bundle-out` points
    /// it inside the bundle.
    pub flight_dir: Option<std::path::PathBuf>,
    /// Telemetry sampling interval in virtual µs (`--sample-interval`,
    /// implied by `--bundle-out`); `None` disarms the windowed sampler
    /// and, with it, the health engine, tail forensics and the
    /// population sketch.
    pub sample_interval_us: Option<u64>,
    /// Added to every [`TopologySpec::seed`] at build time
    /// (`--seed-offset`): two runs of one experiment that differ only in
    /// their RNG stream.
    pub seed_offset: u64,
    /// Deliberately worsen the broker configuration — tripled PHB commit
    /// latency and a huge, slow-flushing knowledge batch budget — so
    /// latency percentiles regress measurably (`--degrade`). Exists to
    /// give `xp doctor diff` a known-bad bundle to flag in CI.
    pub degrade: bool,
    /// `mega_subs` subscriber population (`--subs`); `None` = built-in
    /// scale (10^6, or 20 000 under `--quick`).
    pub mega_subs: Option<u64>,
    /// Plant one deliberately slow consumer in `mega_subs` so the top-K
    /// attribution path has a known entity to name (`--slow-sub`).
    pub slow_sub: bool,
}

impl RunOptions {
    /// Applies the observability options to a freshly built [`Sim`].
    /// [`System::build`] calls this; experiments that assemble a raw
    /// `Sim` themselves (latency, jms) call it too, so a bundle covers
    /// every simulator a run builds.
    pub fn arm(&self, sim: &mut Sim) {
        sim.set_flight_dir(self.flight_dir.clone());
        if let Some(interval_us) = self.sample_interval_us {
            sim.enable_telemetry(interval_us);
        }
    }
}

/// Structural parameters of a run.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// Simulation seed (identical seeds ⇒ identical runs).
    pub seed: u64,
    /// 1-broker topology (pubends + subscribers on one node).
    pub combined: bool,
    /// Number of SHBs (ignored when `combined`).
    pub n_shbs: usize,
    /// Insert one intermediate broker between the PHB and the SHBs.
    pub intermediate: bool,
    /// Number of pubends (all hosted at the PHB).
    pub pubends: u32,
    /// Broker configuration (shared by every broker).
    pub broker_config: BrokerConfig,
    /// One-way latency of broker↔broker links.
    pub link_latency_us: u64,
    /// Bandwidth of broker↔broker links (bounds recovery burst rates).
    pub broker_bw: Option<u64>,
    /// One-way latency of client links.
    pub client_latency_us: u64,
    /// Bandwidth of SHB→client links (bounds catchup delivery rates; the
    /// paper's flow-control effect).
    pub client_bw: Option<u64>,
    /// What `xp`'s flags ask of the run; the default asks for nothing.
    pub run: RunOptions,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            seed: 42,
            combined: false,
            n_shbs: 1,
            intermediate: false,
            pubends: 4,
            broker_config: BrokerConfig::default(),
            link_latency_us: 1_000,
            broker_bw: None,
            client_latency_us: 500,
            client_bw: None,
            run: RunOptions::default(),
        }
    }
}

/// A built system ready to run.
pub struct System {
    /// The simulator.
    pub sim: Sim,
    /// The broker hosting every pubend (equals `shbs[0]` when combined).
    pub phb: Handle<Broker>,
    /// Optional interior broker.
    pub intermediates: Vec<Handle<Broker>>,
    /// Subscriber hosting brokers.
    pub shbs: Vec<Handle<Broker>>,
    /// One publisher per pubend.
    pub publishers: Vec<Handle<PublisherClient>>,
    /// All subscribers with their SHB index.
    pub subscribers: Vec<(Handle<SubscriberClient>, usize)>,
    /// The workload that was instantiated.
    pub workload: Workload,
}

impl System {
    /// Builds the system. [`TopologySpec::run`] applies here: the seed
    /// offset shifts the RNG stream, and the degrade switch swaps in a
    /// deliberately worsened broker configuration (see
    /// [`RunOptions::degrade`]).
    pub fn build(spec: &TopologySpec, workload: &Workload) -> System {
        let mut sim = Sim::new(spec.seed.wrapping_add(spec.run.seed_offset));
        spec.run.arm(&mut sim);
        let broker_config = if spec.run.degrade {
            let mut c = spec.broker_config.clone();
            c.phb_commit_latency_us *= 3;
            c.knowledge_flush_interval_us = c.knowledge_flush_interval_us.max(1) * 200;
            c.knowledge_batch_max_parts = c.knowledge_batch_max_parts.max(1) * 1_000;
            c
        } else {
            spec.broker_config.clone()
        };
        let broker_link = LinkParams {
            latency_us: spec.link_latency_us,
            jitter_us: 0,
            loss: 0.0,
            bytes_per_sec: spec.broker_bw,
        };
        let client_link = LinkParams {
            latency_us: spec.client_latency_us,
            jitter_us: 0,
            loss: 0.0,
            bytes_per_sec: spec.client_bw,
        };
        let pubend_ids: Vec<PubendId> = (0..spec.pubends).map(PubendId).collect();
        let mut next_broker = 0u32;
        let mut mk_broker = |sim: &mut Sim, name: &str, pubends: bool, subs: bool| {
            let mut b = Broker::new(
                next_broker,
                Box::new(MemFactory::new()),
                broker_config.clone(),
            );
            next_broker += 1;
            if pubends {
                b = b.hosting_pubends(pubend_ids.clone());
            }
            if subs {
                b = b.hosting_subscribers();
            }
            sim.add_typed_node(name, b)
        };

        let (phb, shbs, intermediates) = if spec.combined {
            let b = mk_broker(&mut sim, "broker", true, true);
            (b, vec![b], Vec::new())
        } else {
            let phb = mk_broker(&mut sim, "phb", true, false);
            let mut intermediates = Vec::new();
            let parent_of_shbs = if spec.intermediate {
                let mid = mk_broker(&mut sim, "mid", false, false);
                sim.node(phb).add_child(mid.id());
                sim.node(mid).set_parent(phb.id());
                sim.connect_with(phb.id(), mid.id(), broker_link);
                intermediates.push(mid);
                mid
            } else {
                phb
            };
            let mut shbs = Vec::new();
            for i in 0..spec.n_shbs {
                let shb = mk_broker(&mut sim, &format!("shb{i}"), false, true);
                sim.node(parent_of_shbs).add_child(shb.id());
                sim.node(shb).set_parent(parent_of_shbs.id());
                sim.connect_with(parent_of_shbs.id(), shb.id(), broker_link);
                shbs.push(shb);
            }
            (phb, shbs, intermediates)
        };

        // Publishers: one per pubend at input_rate / pubends.
        let per_pubend_rate = workload.input_rate / spec.pubends as f64;
        let classes = workload.classes;
        let payload = workload.payload;
        let mut publishers = Vec::new();
        for &p in &pubend_ids {
            let publisher = sim.add_typed_node(
                &format!("pub{}", p.0),
                PublisherClient::new(phb.id(), p, per_pubend_rate)
                    .with_attrs(move |seq, _| {
                        let mut a = gryphon_types::Attributes::new();
                        a.insert("class".into(), ((seq as i64) % classes).into());
                        a
                    })
                    .with_payload_len(payload),
            );
            sim.connect_with(publisher.id(), phb.id(), client_link);
            publishers.push(publisher);
        }

        // Subscribers, staggered.
        let mut subscribers = Vec::new();
        let mut sub_no = 0u64;
        for (shb_idx, &shb) in shbs.iter().enumerate() {
            for i in 0..workload.subs_per_shb {
                let mut cfg = workload.sub_cfg.clone();
                if workload.stagger {
                    // Connects trickle over the first second; first
                    // disconnects are phased uniformly across one period
                    // so the system always sees some subscriber catching
                    // up (as in the paper's runs).
                    cfg.connect_at_us += ((sub_no * 97) % 1_000) * 1_000;
                    if let Some(period) = cfg.disconnect_period_us {
                        cfg.disconnect_phase_us = Some(
                            ((sub_no * period) / workload.subs_per_shb.max(1) as u64) % period + 1,
                        );
                    }
                }
                sub_no += 1;
                let sub = sim.add_typed_node(
                    &format!("sub{sub_no}"),
                    SubscriberClient::new(
                        SubscriberId(sub_no),
                        shb.id(),
                        workload.filter_for(i).as_str(),
                        cfg,
                    ),
                );
                sim.connect_with(sub.id(), shb.id(), client_link);
                subscribers.push((sub, shb_idx));
            }
        }

        System {
            sim,
            phb,
            intermediates,
            shbs,
            publishers,
            subscribers,
            workload: workload.clone(),
        }
    }

    /// Runs to `until_us`, sampling every broker's cumulative CPU work
    /// into `busy.<name>` series every `sample_us` (for CPU-idle plots).
    pub fn run_sampled(&mut self, until_us: u64, sample_us: u64) {
        let mut t = self.sim.now_us();
        let brokers: Vec<(NodeId, String)> = self
            .broker_nodes()
            .into_iter()
            .map(|id| (id, self.sim.node_name(id).to_owned()))
            .collect();
        while t < until_us {
            t = (t + sample_us).min(until_us);
            self.sim.run_until(t);
            for (id, name) in &brokers {
                let busy = self.sim.busy_us(*id) as f64;
                self.sim
                    .metrics_mut()
                    .record(t, &format!("busy.{name}"), busy);
            }
        }
    }

    /// All broker node ids (PHB, intermediates, SHBs), deduplicated.
    pub fn broker_nodes(&self) -> Vec<NodeId> {
        let mut out = vec![self.phb.id()];
        for m in &self.intermediates {
            if !out.contains(&m.id()) {
                out.push(m.id());
            }
        }
        for s in &self.shbs {
            if !out.contains(&s.id()) {
                out.push(s.id());
            }
        }
        out
    }

    /// Total events received across all subscribers.
    pub fn total_events(&self) -> u64 {
        self.subscribers
            .iter()
            .map(|(h, _)| self.sim.node_ref(*h).events_received())
            .sum()
    }

    /// Total gaps received across all subscribers.
    pub fn total_gaps(&self) -> u64 {
        self.subscribers
            .iter()
            .map(|(h, _)| self.sim.node_ref(*h).gaps_received())
            .sum()
    }

    /// Total order violations (must be zero in every experiment).
    pub fn total_order_violations(&self) -> u64 {
        self.subscribers
            .iter()
            .map(|(h, _)| self.sim.node_ref(*h).order_violations())
            .sum()
    }

    /// Attaches this run's observability artefacts to `report`: the
    /// metrics snapshot (counters, histogram percentiles, series
    /// summaries), the rendered trace ring, and — should any protocol
    /// watchdog have fired — a loud note. Call once after the run.
    pub fn attach_observability(&self, report: &mut crate::Report) {
        report.attach_metrics(self.sim.metrics());
        if let Some(t) = self.sim.telemetry() {
            report.attach_telemetry(t.clone());
        }
        let lines: Vec<String> = self
            .sim
            .trace_records()
            .map(|r| r.render(self.sim.node_name(r.node)))
            .collect();
        report.attach_trace(lines);
        let violations = self.sim.watchdog_violations();
        if violations > 0 {
            report.note(format!(
                "WATCHDOG: {violations} protocol-invariant violations recorded — see watchdog.* counters"
            ));
        }
        let ledger = self.sim.ledger_violations();
        if ledger > 0 {
            report.note(format!(
                "LEDGER: {ledger} exactly-once delivery violations recorded — see lineage.ledger.* counters"
            ));
        }
        let dumps = self.sim.flight_dumps();
        if dumps > 0 {
            report.note(format!(
                "FLIGHT RECORDER: {dumps} post-mortem file(s) written — see the bundle's flight/ directory"
            ));
        }
    }

    /// Busy fraction of a node over `[from_us, to_us]`, from the sampled
    /// `busy.<name>` series.
    pub fn busy_fraction(&self, node: NodeId, from_us: u64, to_us: u64) -> f64 {
        let name = format!("busy.{}", self.sim.node_name(node));
        let series = self.sim.metrics().series(&name);
        let at = |t: u64| -> f64 {
            series
                .iter()
                .take_while(|&&(st, _)| st <= t)
                .last()
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        let span = to_us.saturating_sub(from_us) as f64;
        if span <= 0.0 {
            return 0.0;
        }
        // May exceed 1.0: the simulator accounts work without
        // backpressure, so an overloaded broker reports >100% "busy" —
        // exactly what capacity estimation needs.
        ((at(to_us) - at(from_us)) / span).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_paper_topologies() {
        for (combined, n_shbs) in [(true, 1), (false, 1), (false, 2), (false, 4)] {
            let spec = TopologySpec {
                combined,
                n_shbs,
                ..TopologySpec::default()
            };
            let workload = Workload {
                subs_per_shb: 4,
                ..Workload::default()
            };
            let mut sys = System::build(&spec, &workload);
            sys.sim.run_until(3_000_000);
            assert_eq!(sys.total_order_violations(), 0);
            assert!(
                sys.total_events() > 0,
                "no deliveries in topology combined={combined} shbs={n_shbs}"
            );
            assert_eq!(sys.shbs.len(), n_shbs);
        }
    }

    #[test]
    fn intermediate_topology_works() {
        let spec = TopologySpec {
            intermediate: true,
            n_shbs: 2,
            ..TopologySpec::default()
        };
        let workload = Workload {
            subs_per_shb: 2,
            ..Workload::default()
        };
        let mut sys = System::build(&spec, &workload);
        sys.sim.run_until(3_000_000);
        assert_eq!(sys.intermediates.len(), 1);
        assert!(sys.total_events() > 0);
        assert_eq!(sys.total_order_violations(), 0);
    }

    #[test]
    fn busy_sampling_produces_series() {
        let spec = TopologySpec::default();
        let workload = Workload {
            subs_per_shb: 2,
            ..Workload::default()
        };
        let mut sys = System::build(&spec, &workload);
        sys.run_sampled(2_000_000, 500_000);
        let busy = sys.busy_fraction(sys.shbs[0].id(), 0, 2_000_000);
        assert!(busy > 0.0, "SHB should have done some work");
        assert!(busy <= 1.0);
    }
}
