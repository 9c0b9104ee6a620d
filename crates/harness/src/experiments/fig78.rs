//! Figures 7 and 8 — SHB failure and recovery.
//!
//! Paper setup (§5.3): the 2-broker network, 40 subscribers spread over 5
//! client machines (8 each), 800 ev/s over 4 pubends, 200 ev/s per
//! subscriber. The SHB is failed for 25 s; subscriber reconnection is
//! delayed until the recovering constream has caught up, so subscribers
//! are disconnected for ≈36–40 s and then all catch up simultaneously
//! through per-subscriber catchup streams.
//!
//! Shapes to reproduce:
//! * Fig. 7: `latestDelivered` flat during the crash → recovers at ≈5×
//!   the normal slope (nack-consolidated recovery over a bandwidth-
//!   limited uplink) → returns to normal. `released` stays flat until
//!   the subscribers reconnect, then advances slightly above normal
//!   until catchup completes.
//! * Fig. 8: per-client-machine rates exceed the nominal 1600 ev/s
//!   during catchup (with oscillation from synchronized PFS reads); the
//!   SHB's CPU idle drops sharply during catchup while the PHB's barely
//!   moves (nack consolidation).

use crate::report::{Report, Table};
use crate::topology::{RunOptions, System, TopologySpec};
use crate::workload::Workload;
use gryphon::SubscriberConfig;

struct CrashRun {
    sys: System,
    crash_at_us: u64,
    crash_dur_us: u64,
    run_us: u64,
}

fn crash_run(opts: &RunOptions) -> CrashRun {
    let (warmup, crash_dur, tail) = if opts.quick {
        (10_000_000u64, 10_000_000u64, 60_000_000u64)
    } else {
        (30_000_000, 25_000_000, 180_000_000)
    };
    let crash_at_us = warmup;
    let run_us = warmup + crash_dur + tail;
    let spec = TopologySpec {
        seed: 78,
        run: opts.clone(),
        n_shbs: 1,
        // PHB→SHB uplink: nominal knowledge traffic ≈ 800 ev/s × 330 B ≈
        // 260 KB/s; 5× headroom reproduces the paper's ≈5× recovery slope.
        broker_bw: Some(1_300_000),
        // Per-client links: nominal ≈ 71 KB/s on the wire; ~1.5× headroom
        // bounds catchup delivery (the flow-control effect), making the
        // simultaneous catchup of all 40 subscribers take several times
        // the outage (paper: 116 s for a ≈37 s absence).
        client_bw: Some(110_000),
        ..TopologySpec::default()
    };
    let workload = Workload {
        subs_per_shb: 40,
        sub_cfg: SubscriberConfig {
            probe_interval_us: 2_000_000,
            // The paper delays reconnection until the constream caught up.
            crash_reconnect_delay_us: crash_dur + 8_000_000,
            sample_rate: true,
            ..SubscriberConfig::default()
        },
        stagger: true,
        ..Workload::default()
    };
    let mut sys = System::build(&spec, &workload);
    let shb = sys.shbs[0].id();
    sys.sim.schedule_crash(shb, crash_at_us, crash_dur);
    sys.run_sampled(run_us, 500_000);
    assert_eq!(
        sys.total_order_violations(),
        0,
        "order violated across crash"
    );
    CrashRun {
        sys,
        crash_at_us,
        crash_dur_us: crash_dur,
        run_us,
    }
}

fn slope(series: &[(u64, f64)], from_us: u64, to_us: u64) -> f64 {
    let pts: Vec<&(u64, f64)> = series
        .iter()
        .filter(|&&(t, _)| t >= from_us && t <= to_us)
        .collect();
    match (pts.first(), pts.last()) {
        (Some(&&(t0, v0)), Some(&&(t1, v1))) if t1 > t0 => (v1 - v0) / ((t1 - t0) as f64 / 1e6),
        // No samples (e.g. the broker is down and records nothing): the
        // durable cursor is not advancing — flat.
        _ => 0.0,
    }
}

/// Sustained slope of the recovery phase: from restart until the cursor
/// is back within ~2 s of the virtual clock (the figure's steep segment).
fn recovery_slope(series: &[(u64, f64)], restart_us: u64) -> f64 {
    let pts: Vec<(u64, f64)> = series
        .iter()
        .copied()
        .filter(|&(t, _)| t >= restart_us)
        .collect();
    let Some(&(t0, v0)) = pts.first() else {
        return 0.0;
    };
    let end = pts
        .iter()
        .find(|&&(t, v)| (t / 1_000) as f64 - v < 2_000.0)
        .copied()
        .or_else(|| pts.last().copied());
    match end {
        Some((t1, v1)) if t1 > t0 => (v1 - v0) / ((t1 - t0) as f64 / 1e6),
        _ => 0.0,
    }
}

/// Figure 7: `latestDelivered` / `released` through the crash.
pub fn run_fig7(opts: &RunOptions) -> Report {
    let run = crash_run(opts);
    let mut report = Report::new("fig7");
    let ld = run.sys.sim.metrics().series("shb1.ld.0").to_vec();
    let rel = run.sys.sim.metrics().series("shb1.released.0").to_vec();
    let crash_end = run.crash_at_us + run.crash_dur_us;
    let normal = slope(&ld, run.crash_at_us / 2, run.crash_at_us);
    let during = slope(&ld, run.crash_at_us + 500_000, crash_end);
    // Recovery phase: sustained slope until the cursor is current again.
    let recovery = recovery_slope(&ld, crash_end);
    let tail = slope(&ld, run.run_us - run.run_us / 6, run.run_us);
    let rel_during = slope(&rel, run.crash_at_us, crash_end + 4_000_000);
    let rel_catchup = slope(
        &rel,
        crash_end + 10_000_000,
        (crash_end + 40_000_000).min(run.run_us),
    );
    let mut t = Table::new(
        "Figure 7: latestDelivered(p) and released(p) slopes (tick-ms per second)",
        &["phase", "latestDelivered slope", "released slope"],
    );
    t.row(&[
        "normal (pre-crash)".into(),
        format!("{normal:.0}"),
        format!("{:.0}", slope(&rel, run.crash_at_us / 2, run.crash_at_us)),
    ]);
    t.row(&[
        "SHB down (paper: flat)".into(),
        format!("{during:.0}"),
        format!("{rel_during:.0}"),
    ]);
    t.row(&[
        "constream recovery (paper: ≈5× normal)".into(),
        format!("{recovery:.0}"),
        "0 (subs still away)".into(),
    ]);
    t.row(&[
        "subscriber catchup (paper: released slightly above normal)".into(),
        format!("{tail:.0}"),
        format!("{rel_catchup:.0}"),
    ]);
    report.table(t);
    report.note(format!(
        "recovery/normal latestDelivered slope ratio: {:.1}× (paper: ≈5×)",
        recovery / normal
    ));
    report.series(
        "latestDelivered_tickms",
        ld.iter().map(|&(t, v)| (t as f64 / 1e6, v)).collect(),
    );
    report.series(
        "released_tickms",
        rel.iter().map(|&(t, v)| (t as f64 / 1e6, v)).collect(),
    );
    run.sys.attach_observability(&mut report);
    report
}

/// Figure 8: per-client-machine rates and CPU idle through the crash.
pub fn run_fig8(opts: &RunOptions) -> Report {
    let run = crash_run(opts);
    let mut report = Report::new("fig8");
    let crash_end = run.crash_at_us + run.crash_dur_us;

    // Group the 40 subscribers into 5 "client machines" of 8.
    let mut group_rates: Vec<Vec<(f64, f64)>> = Vec::new();
    for g in 0..5usize {
        let mut acc = std::collections::BTreeMap::<u64, f64>::new();
        for (i, &(h, _)) in run.sys.subscribers.iter().enumerate() {
            if i / 8 != g {
                continue;
            }
            let _ = h;
            let sub_no = (i + 1) as u64; // SubscriberId assigned in build order
            for &(t, v) in run
                .sys
                .sim
                .metrics()
                .series(&format!("client{sub_no}.rate"))
            {
                *acc.entry(t / 1_000_000).or_insert(0.0) += v;
            }
        }
        group_rates.push(acc.into_iter().map(|(t, v)| (t as f64, v)).collect());
    }
    let phase_mean = |pts: &[(f64, f64)], a: f64, b: f64| -> f64 {
        let vals: Vec<f64> = pts
            .iter()
            .filter(|&&(t, _)| t >= a && t < b)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let mut t = Table::new(
        "Figure 8a: per-client-machine event rate (paper: 1600 ev/s nominal; higher with oscillation during catchup)",
        &["machine", "normal (ev/s)", "during crash", "catchup (ev/s)"],
    );
    let reconnect_s = (crash_end + 8_000_000) as f64 / 1e6;
    for (g, pts) in group_rates.iter().enumerate() {
        t.row(&[
            format!("machine {}", g + 1),
            format!("{:.0}", phase_mean(pts, 2.0, run.crash_at_us as f64 / 1e6)),
            format!(
                "{:.0}",
                phase_mean(
                    pts,
                    run.crash_at_us as f64 / 1e6 + 1.0,
                    crash_end as f64 / 1e6
                )
            ),
            format!(
                "{:.0}",
                phase_mean(pts, reconnect_s + 2.0, reconnect_s + 20.0)
            ),
        ]);
    }
    report.table(t);
    for (g, pts) in group_rates.into_iter().enumerate() {
        report.series(format!("machine{}_rate", g + 1), pts);
    }

    // CPU idle per second for SHB and PHB from the sampled busy series.
    let idle_series = |node: gryphon_types::NodeId| -> Vec<(f64, f64)> {
        let name = format!("busy.{}", run.sys.sim.node_name(node));
        run.sys
            .sim
            .metrics()
            .series(&name)
            .windows(2)
            .map(|w| {
                let dt = (w[1].0 - w[0].0) as f64;
                let busy = (w[1].1 - w[0].1) / dt.max(1.0);
                (w[1].0 as f64 / 1e6, (1.0 - busy).clamp(0.0, 1.0) * 100.0)
            })
            .collect()
    };
    let shb_idle = idle_series(run.sys.shbs[0].id());
    let phb_idle = idle_series(run.sys.phb.id());
    let mut t2 = Table::new(
        "Figure 8b: CPU idle (paper: SHB idle drops sharply during catchup; PHB barely moves)",
        &["node", "normal idle", "catchup idle", "drop"],
    );
    for (name, series) in [("SHB", &shb_idle), ("PHB", &phb_idle)] {
        let normal = phase_mean(series, 2.0, run.crash_at_us as f64 / 1e6);
        let catchup = phase_mean(series, reconnect_s + 2.0, reconnect_s + 20.0);
        t2.row(&[
            name.into(),
            format!("{normal:.0}%"),
            format!("{catchup:.0}%"),
            format!("{:.0} pts", normal - catchup),
        ]);
    }
    report.table(t2);
    report.series("shb_idle_pct", shb_idle);
    report.series("phb_idle_pct", phb_idle);

    // Catchup durations + PFS read efficiency (paper: mean 116 s when all
    // 40 catch up together; 87 % of PFS reads are full reads).
    let durs: Vec<f64> = run
        .sys
        .sim
        .metrics()
        .series("client.catchup_ms")
        .iter()
        .map(|&(_, v)| v / 1_000.0)
        .collect();
    let reads = run.sys.sim.metrics().counter("shb.pfs_reads");
    let full_reads = run.sys.sim.metrics().counter("shb.pfs_full_reads");
    let mut t3 = Table::new(
        "Figure 8 context: catchup + PFS reads",
        &["metric", "value"],
    );
    if !durs.is_empty() {
        t3.row(&[
            "mean catchup duration (s)".into(),
            format!("{:.1}", durs.iter().sum::<f64>() / durs.len() as f64),
        ]);
        t3.row(&["catchups".into(), durs.len().to_string()]);
    }
    t3.row(&["PFS batch reads".into(), format!("{reads:.0}")]);
    t3.row(&[
        "full reads (paper: 87% reach lastTimestamp)".into(),
        format!("{:.0}%", full_reads / reads.max(1.0) * 100.0),
    ]);
    t3.row(&[
        "gaps delivered (early release disabled)".into(),
        run.sys.total_gaps().to_string(),
    ]);
    report.table(t3);
    report.note(
        "paper shape: simultaneous catchup of all subscribers is much slower than a lone \
         catchup (separate per-subscriber streams), the SHB bears the load, the PHB barely \
         notices (nack consolidation)",
    );
    run.sys.attach_observability(&mut report);
    report
}
