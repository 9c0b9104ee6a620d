//! Figures 5 and 6 — detailed SHB behaviour under periodic subscriber
//! disconnection (the 2-broker network of the scalability runs).
//!
//! * Figure 5: per-reconnect catchup durations — in the paper, usually
//!   5–6 s for 5 s disconnections (the catchup stream must recover the
//!   missed interval *and* the events published while it catches up, so
//!   the duration slightly exceeds the absence).
//! * Figure 6: the advance rate of `latestDelivered(p)` is steady at
//!   ≈1000 tick-ms per second regardless of disconnections, while
//!   `released(p)` stalls whenever any subscriber is disconnected and
//!   jumps on acknowledgment.

use crate::report::{Report, Table};
use crate::topology::{RunOptions, System, TopologySpec};
use crate::workload::Workload;

fn shared_run(opts: &RunOptions) -> (System, u64) {
    let run_us: u64 = if opts.quick { 40_000_000 } else { 150_000_000 };
    let period = if opts.quick { 20_000_000 } else { 30_000_000 };
    let spec = TopologySpec {
        seed: 56,
        run: opts.clone(),
        n_shbs: 1,
        // Catchup delivery is bounded by the per-client link (the paper's
        // flow control keeps catchup from overwhelming the client):
        // nominal per-subscriber traffic is ≈64 KB/s on the wire; ~2×
        // headroom makes a 5 s absence take ≈5 s to recover, as in the
        // paper.
        client_bw: Some(118_000),
        ..TopologySpec::default()
    };
    let mut workload = Workload::paper_disconnecting(period, 5_000_000);
    workload.subs_per_shb = 88;
    let mut sys = System::build(&spec, &workload);
    sys.run_sampled(run_us, 500_000);
    assert_eq!(sys.total_order_violations(), 0);
    (sys, run_us)
}

/// Figure 5: catchup duration distribution.
pub fn run_fig5(opts: &RunOptions) -> Report {
    let (sys, _run_us) = shared_run(opts);
    let mut report = Report::new("fig5");
    let mut durations: Vec<(f64, f64)> = Vec::new();
    for &(h, _) in &sys.subscribers {
        let _ = h;
    }
    for &(t, v) in sys.sim.metrics().series("client.catchup_ms") {
        durations.push((t as f64 / 1e6, v / 1_000.0)); // → (s, s)
    }
    let vals: Vec<f64> = durations.iter().map(|&(_, v)| v).collect();
    let mut t = Table::new(
        "Figure 5: catchup durations for 5 s disconnections (paper: 5–6 s)",
        &["metric", "value"],
    );
    if vals.is_empty() {
        t.row(&["catchups observed".into(), "0".into()]);
    } else {
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0f64, f64::max);
        t.row(&["catchups observed".into(), vals.len().to_string()]);
        t.row(&["mean (s)".into(), format!("{mean:.2}")]);
        t.row(&["min (s)".into(), format!("{min:.2}")]);
        t.row(&["max (s)".into(), format!("{max:.2}")]);
        report.note(format!(
            "paper shape: catchup duration slightly exceeds the 5 s absence; measured mean {mean:.2} s"
        ));
    }
    report.table(t);
    report.series("catchup_duration_s", durations);
    sys.attach_observability(&mut report);
    report
}

/// Figure 6: `latestDelivered(p)` / `released(p)` advance rates.
pub fn run_fig6(opts: &RunOptions) -> Report {
    let (sys, run_us) = shared_run(opts);
    let mut report = Report::new("fig6");
    // The SHB is broker id 1 in this topology; pubend 0 is representative
    // (as in the paper's "1 of the 4 pubends").
    let ld = sys.sim.metrics().series("shb1.ld.0");
    let rel = sys.sim.metrics().series("shb1.released.0");
    let to_rate = |series: &[(u64, f64)]| -> Vec<(f64, f64)> {
        series
            .windows(2)
            .map(|w| {
                let dt_s = (w[1].0 - w[0].0) as f64 / 1e6;
                let dv = w[1].1 - w[0].1; // tick-ms advanced
                (
                    w[1].0 as f64 / 1e6,
                    if dt_s > 0.0 { dv / dt_s } else { 0.0 },
                )
            })
            .collect()
    };
    let ld_rate = to_rate(ld);
    let rel_rate = to_rate(rel);
    let stats = |r: &[(f64, f64)]| -> (f64, f64, f64) {
        // Skip the warmup quarter.
        let cut = run_us as f64 / 4e6;
        let vals: Vec<f64> = r
            .iter()
            .filter(|&&(t, _)| t > cut)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            return (f64::NAN, f64::NAN, f64::NAN);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0f64, f64::max);
        (mean, min, max)
    };
    let (ld_mean, ld_min, ld_max) = stats(&ld_rate);
    let (rel_mean, rel_min, rel_max) = stats(&rel_rate);
    let mut t = Table::new(
        "Figure 6: advance rate of latestDelivered(p) and released(p) (tick-ms per second)",
        &["series", "mean", "min", "max"],
    );
    t.row(&[
        "latestDelivered (paper: steady ≈1000)".into(),
        format!("{ld_mean:.0}"),
        format!("{ld_min:.0}"),
        format!("{ld_max:.0}"),
    ]);
    t.row(&[
        "released (paper: large variation, stalls on disconnect)".into(),
        format!("{rel_mean:.0}"),
        format!("{rel_min:.0}"),
        format!("{rel_max:.0}"),
    ]);
    report.table(t);
    report.note(format!(
        "shape check: latestDelivered variation ({:.0}..{:.0}) is much narrower than released's \
         ({:.0}..{:.0}) — disconnected subscribers stall release but not delivery",
        ld_min, ld_max, rel_min, rel_max
    ));
    report.series("latestDelivered_rate", ld_rate);
    report.series("released_rate", rel_rate);
    sys.attach_observability(&mut report);
    report
}
