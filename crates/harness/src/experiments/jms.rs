//! §5.2 — JMS auto-acknowledge throughput.
//!
//! Paper: with broker-managed checkpoint tokens committed per event
//! (auto-acknowledge), a single SHB peaks at 4 K ev/s with 25 subscribers
//! and 7.6 K ev/s with 200 — the bottleneck is the metadata-store commit
//! throughput, helped by batching all waiting updates of a worker thread
//! into one transaction (4 threads, subscriber-hashed).

use crate::report::{fmt_rate, Report, Table};
use crate::topology::RunOptions;
use gryphon::{Broker, BrokerConfig, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_sim::Sim;
use gryphon_storage::MemFactory;
use gryphon_types::{PubendId, SubscriberId};

struct JmsCell {
    subs: usize,
    delivered_rate: f64,
    commits: f64,
    mean_batch: f64,
}

fn run_jms(seed: u64, n_subs: usize, run_us: u64, opts: &RunOptions) -> (JmsCell, Sim) {
    let mut sim = Sim::new(seed);
    opts.arm(&mut sim);
    let b = sim.add_typed_node(
        "broker",
        Broker::new(0, Box::new(MemFactory::new()), BrokerConfig::default())
            .hosting_pubends([PubendId(0)])
            .hosting_subscribers(),
    );
    // Every subscriber matches every event: offered load per subscriber
    // equals the input rate, far above the commit-bound capacity.
    for i in 0..n_subs {
        let sub = sim.add_typed_node(
            &format!("jms{i}"),
            SubscriberClient::new(
                SubscriberId(i as u64 + 1),
                b.id(),
                "", // match-all
                SubscriberConfig {
                    broker_ct: true,
                    auto_ack: true,
                    connect_at_us: (i as u64 * 997) % 1_000_000,
                    ..SubscriberConfig::default()
                },
            ),
        );
        sim.connect(sub.id(), b.id(), 500);
    }
    let publisher = sim.add_typed_node("pub", PublisherClient::new(b.id(), PubendId(0), 800.0));
    sim.connect(publisher.id(), b.id(), 500);
    sim.run_until(run_us);
    let delivered = sim.metrics().counter("client.events");
    let commits = sim.metrics().counter("shb.ct_commits");
    let updates = sim.metrics().counter("shb.ct_commit_updates");
    let cell = JmsCell {
        subs: n_subs,
        delivered_rate: delivered / (run_us as f64 / 1e6),
        commits,
        mean_batch: if commits > 0.0 {
            updates / commits
        } else {
            0.0
        },
    };
    (cell, sim)
}

/// Runs the JMS experiment.
pub fn run(opts: &RunOptions) -> Report {
    let run_us = if opts.quick { 8_000_000 } else { 30_000_000 };
    let mut report = Report::new("jms");
    let mut t = Table::new(
        "§5.2 JMS auto-acknowledge peak rate (paper: 25 subs → 4K ev/s, 200 subs → 7.6K ev/s)",
        &[
            "subscribers",
            "delivered (ev/s)",
            "checkpoint commits",
            "mean commit batch",
        ],
    );
    let mut cells = Vec::new();
    let mut last_sim: Option<Sim> = None;
    for (i, &n) in [25usize, 200].iter().enumerate() {
        let (cell, sim) = run_jms(90 + i as u64, n, run_us, opts);
        last_sim = Some(sim);
        t.row(&[
            cell.subs.to_string(),
            fmt_rate(cell.delivered_rate),
            format!("{:.0}", cell.commits),
            format!("{:.1}", cell.mean_batch),
        ]);
        cells.push(cell);
    }
    report.table(t);
    if cells.len() == 2 {
        report.note(format!(
            "200/25-subscriber throughput ratio: {:.2}× (paper: 1.9×) — more subscribers mean \
             bigger commit batches ({:.1} vs {:.1} updates/commit), amortizing the per-commit cost",
            cells[1].delivered_rate / cells[0].delivered_rate,
            cells[1].mean_batch,
            cells[0].mean_batch,
        ));
    }
    report.note(
        "the bottleneck is the metadata table's commit throughput (4 hashed worker threads with \
         group commit), independent of the SHB delivery path — as the paper observes",
    );
    if let Some(sim) = &last_sim {
        report.attach_metrics(sim.metrics());
        if let Some(t) = sim.telemetry() {
            report.attach_telemetry(t.clone());
        }
        report.attach_trace(
            sim.trace_records()
                .map(|r| r.render(sim.node_name(r.node)))
                .collect(),
        );
    }
    report
}
