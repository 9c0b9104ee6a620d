//! Ablations of the design decisions DESIGN.md calls out.

use crate::report::{fmt_rate, Report, Table};
use crate::topology::{RunOptions, System, TopologySpec};
use crate::workload::Workload;
use gryphon::SubscriberConfig;
use gryphon_sim::names;

/// §5 summary point 3 — stream consolidation: an SHB whose subscribers
/// are all served by the constream sustains ≈2× the rate of one where
/// every subscriber runs a private catchup stream (paper: 20 K vs 10 K
/// ev/s).
pub fn run_consolidation(opts: &RunOptions) -> Report {
    let run_us = if opts.quick { 12_000_000 } else { 40_000_000 };
    let mut report = Report::new("ablation_consol");
    let mut t = Table::new(
        "Stream consolidation (paper: ~20K ev/s constream-only vs ~10K all-catchup)",
        &[
            "mode",
            "delivered (ev/s)",
            "SHB busy",
            "est. capacity (ev/s)",
            "catchup share",
        ],
    );
    let mut last_sys: Option<System> = None;
    for (label, disconnecting) in [("all constream", false), ("perpetual catchup", true)] {
        let spec = TopologySpec {
            seed: 61,
            run: opts.clone(),
            n_shbs: 1,
            ..TopologySpec::default()
        };
        let workload = Workload {
            subs_per_shb: 100,
            sub_cfg: if disconnecting {
                SubscriberConfig {
                    // Short frequent absences keep most subscribers in
                    // catchup mode most of the time.
                    disconnect_period_us: Some(4_000_000),
                    disconnect_duration_us: 2_000_000,
                    ..SubscriberConfig::default()
                }
            } else {
                SubscriberConfig::default()
            },
            ..Workload::default()
        };
        let mut sys = System::build(&spec, &workload);
        let warmup = run_us / 4;
        sys.run_sampled(warmup, 500_000);
        let at_warmup = sys.total_events();
        sys.run_sampled(run_us, 500_000);
        assert_eq!(sys.total_order_violations(), 0);
        let delivered = (sys.total_events() - at_warmup) as f64 / ((run_us - warmup) as f64 / 1e6);
        let busy = sys.busy_fraction(sys.shbs[0].id(), warmup, run_us);
        let capacity = if busy > 0.0 {
            delivered / busy
        } else {
            f64::NAN
        };
        let m = sys.sim.metrics();
        let catchup = m.counter(names::SHB_CATCHUP_DELIVERED);
        let catchup_share =
            catchup / (m.counter(names::SHB_CONSTREAM_DELIVERED) + catchup).max(1.0);
        t.row(&[
            label.into(),
            fmt_rate(delivered),
            format!("{:.0}%", busy * 100.0),
            fmt_rate(capacity),
            format!("{:.0}%", catchup_share * 100.0),
        ]);
        last_sys = Some(sys);
    }
    report.table(t);
    report.note(
        "per-subscriber catchup streams double the per-delivery cost (separate knowledge \
         bookkeeping + PFS reads), halving SHB capacity — the reason the constream exists",
    );
    if let Some(sys) = &last_sys {
        sys.attach_observability(&mut report);
    }
    report
}

/// The paper's stated future work: "experimentally examining the effect
/// of different event cache sizes and management policies on the catchup
/// rate of reconnecting subscriptions" (§7). We sweep the broker cache
/// retention window against a fixed 10 s absence: a cache covering the
/// absence answers catchup locally; a smaller one pushes recovery to the
/// pubend (visible as PHB work and longer catchup).
pub fn run_cache_sweep(opts: &RunOptions) -> Report {
    let run_us: u64 = if opts.quick { 30_000_000 } else { 90_000_000 };
    let mut report = Report::new("ablation_cache");
    let mut t = Table::new(
        "Future-work sweep: SHB cache window vs catchup behaviour (10 s absences)",
        &[
            "cache window",
            "mean catchup (s)",
            "PHB busy during catchup",
            "PHB answers (cache misses)",
        ],
    );
    let mut last_sys: Option<System> = None;
    for &(label, window_ticks) in &[("2 s", 2_000u64), ("5 s", 5_000), ("60 s", 60_000)] {
        let spec = TopologySpec {
            seed: 64,
            run: opts.clone(),
            n_shbs: 1,
            broker_config: gryphon::BrokerConfig {
                cache_window_ticks: window_ticks,
                ..gryphon::BrokerConfig::default()
            },
            client_bw: Some(200_000),
            ..TopologySpec::default()
        };
        let workload = Workload {
            subs_per_shb: 20,
            sub_cfg: SubscriberConfig {
                disconnect_period_us: Some(run_us / 2),
                disconnect_duration_us: 10_000_000,
                ..SubscriberConfig::default()
            },
            ..Workload::default()
        };
        let mut sys = System::build(&spec, &workload);
        sys.run_sampled(run_us, 500_000);
        assert_eq!(sys.total_order_violations(), 0);
        let durs: Vec<f64> = sys
            .sim
            .metrics()
            .series("client.catchup_ms")
            .iter()
            .map(|&(_, v)| v / 1_000.0)
            .collect();
        let mean = if durs.is_empty() {
            f64::NAN
        } else {
            durs.iter().sum::<f64>() / durs.len() as f64
        };
        let phb_busy = sys.busy_fraction(sys.phb.id(), run_us / 3, run_us);
        // Knowledge responses the pubend had to produce authoritatively:
        // holes below the SHB cache window end up here.
        let phb_work = sys.sim.metrics().counter("phb.nack_responses");
        t.row(&[
            label.into(),
            format!("{mean:.1}"),
            format!("{:.1}%", phb_busy * 100.0),
            format!("{phb_work:.0}"),
        ]);
        last_sys = Some(sys);
    }
    report.table(t);
    report.note(
        "a cache window covering the absence keeps recovery local to the SHB; shrinking it \
         shifts recovery load to the pubend (authoritative nack responses) without affecting \
         correctness — exactly the trade the paper's future work asks about",
    );
    if let Some(sys) = &last_sys {
        sys.attach_observability(&mut report);
    }
    report
}
