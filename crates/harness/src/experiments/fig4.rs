//! Figure 4 — peak event rate as SHBs are added, with and without
//! subscriber disconnection/reconnection.
//!
//! Paper: 20 K ev/s (1 SHB) → 79.2 K ev/s (4 SHBs) with no disconnects;
//! 17.6 K → 69.6 K (≈88 % of peak) with each subscriber disconnecting
//! every 300 s for 5 s. The 1-broker and 1-SHB networks have similar
//! capacity. PHB idle drops only slightly (69 % → 59 %) as SHBs are
//! added.
//!
//! The simulator is not contention-limited, so "peak" is estimated the
//! way capacity planning does it: measured delivered rate divided by the
//! bottleneck SHB's busy fraction (the cost model anchors one SHB at
//! ≈20 K ev/s).

use crate::report::{fmt_rate, Report, Table};
use crate::topology::{RunOptions, System, TopologySpec};
use crate::workload::Workload;

struct Cell {
    label: &'static str,
    subs: usize,
    delivered_rate: f64,
    shb_busy: f64,
    phb_idle: f64,
    est_peak: f64,
}

fn run_config(
    seed: u64,
    combined: bool,
    n_shbs: usize,
    disconnecting: bool,
    run_us: u64,
    label: &'static str,
    opts: &RunOptions,
) -> (Cell, System) {
    let spec = TopologySpec {
        seed,
        combined,
        n_shbs,
        run: opts.clone(),
        ..TopologySpec::default()
    };
    let workload = if disconnecting {
        // Compressed from the paper's 300 s period / 5 s down, keeping
        // roughly the paper's down-time duty cycle and fitting several
        // cycles into the run.
        Workload::paper_disconnecting(run_us / 2, run_us / 24)
    } else {
        Workload::paper_steady()
    };
    let mut sys = System::build(&spec, &workload);
    let warmup = run_us / 4;
    sys.run_sampled(warmup, 500_000);
    let events_at_warmup = sys.total_events();
    sys.run_sampled(run_us, 500_000);
    let window_s = (run_us - warmup) as f64 / 1e6;
    let delivered_rate = (sys.total_events() - events_at_warmup) as f64 / window_s;
    assert_eq!(sys.total_order_violations(), 0, "order violated in {label}");
    let shb_busy = sys
        .shbs
        .iter()
        .map(|h| sys.busy_fraction(h.id(), warmup, run_us))
        .fold(0.0f64, f64::max);
    let phb_busy = sys.busy_fraction(sys.phb.id(), warmup, run_us);
    let est_peak = if shb_busy > 0.0 {
        delivered_rate / shb_busy
    } else {
        f64::NAN
    };
    let cell = Cell {
        label,
        subs: workload.subs_per_shb * n_shbs,
        delivered_rate,
        shb_busy,
        phb_idle: (1.0 - phb_busy) * 100.0,
        est_peak,
    };
    (cell, sys)
}

/// Runs the Figure 4 reproduction.
pub fn run(opts: &RunOptions) -> Report {
    let run_us = if opts.quick { 12_000_000 } else { 60_000_000 };
    let configs: Vec<(&'static str, bool, usize)> = vec![
        ("1 broker", true, 1),
        ("1 SHB", false, 1),
        ("2 SHB", false, 2),
        ("4 SHB", false, 4),
    ];
    let mut report = Report::new("fig4");
    let mut last_sys: Option<System> = None;
    for disconnecting in [false, true] {
        let title = if disconnecting {
            "Figure 4b: aggregate rate WITH disconnection/reconnection (paper: 17.6K → 69.6K ev/s)"
        } else {
            "Figure 4a: aggregate rate, no disconnection (paper: 20K → 79.2K ev/s)"
        };
        let mut t = Table::new(
            title,
            &[
                "topology",
                "subscribers",
                "delivered (ev/s)",
                "SHB busy",
                "est. peak (ev/s)",
                "PHB idle",
            ],
        );
        let mut cells = Vec::new();
        for (i, &(label, combined, n)) in configs.iter().enumerate() {
            let (cell, sys) = run_config(
                100 + i as u64 + if disconnecting { 50 } else { 0 },
                combined,
                n,
                disconnecting,
                run_us,
                label,
                opts,
            );
            last_sys = Some(sys);
            t.row(&[
                cell.label.into(),
                cell.subs.to_string(),
                fmt_rate(cell.delivered_rate),
                format!("{:.0}%", cell.shb_busy * 100.0),
                fmt_rate(cell.est_peak),
                format!("{:.0}%", cell.phb_idle),
            ]);
            cells.push(cell);
        }
        // Linearity check across 1 → 4 SHBs (skip the combined broker).
        if let (Some(one), Some(four)) = (cells.get(1), cells.get(3)) {
            report.note(format!(
                "{}: est. peak scales {:.2}× from 1 SHB to 4 SHBs (paper: {:.2}×)",
                if disconnecting {
                    "disconnecting"
                } else {
                    "steady"
                },
                four.est_peak / one.est_peak,
                if disconnecting {
                    69.6 / 17.6
                } else {
                    79.2 / 20.0
                },
            ));
        }
        report.table(t);
    }
    report.note(
        "peaks are estimated as delivered-rate / bottleneck-SHB busy fraction; the cost model \
         anchors a single SHB at ≈20K ev/s (see EXPERIMENTS.md calibration note)",
    );
    // Observability snapshot from the last (4-SHB, disconnecting) run —
    // the configuration that exercises catchup and switchover hardest.
    if let Some(sys) = &last_sys {
        sys.attach_observability(&mut report);
    }
    report
}
