//! `xp doctor` — offline diagnosis over run bundles (DESIGN.md §9).
//!
//! Three verbs, all reading the bundle directories
//! [`crate::bundle::write_bundle`] produces:
//!
//! * `inspect BUNDLE [--exemplars] [--topk]` — human summary:
//!   manifest, slowest latency stages, the worst tail exemplars
//!   rendered end-to-end stage-by-stage, per-entity top-K attribution
//!   (`--topk` for the full ranked tables per dimension), key
//!   telemetry sparklines, the alert log;
//! * `diff A B` — per-histogram-percentile and per-counter deltas with
//!   configurable thresholds; exits nonzero naming every regressed
//!   series (the offline complement of `perf_gate`) plus the exemplar
//!   behind each regressed latency histogram when one was captured,
//!   and the top-K entity behind each regressed sketch gauge;
//! * `check BUNDLE` — replays the default health rules over the
//!   bundle's timeline (reproducing the online engine's alert log
//!   exactly — see [`gryphon_sim::health`]) and fails on any firing
//!   alert or recorded invariant violation, for CI;
//! * `export-trace BUNDLE -o OUT.json` — Chrome/Perfetto trace-event
//!   export of the forensics streams ([`crate::trace_export`]).

use crate::bundle::read_manifest;
use gryphon_sim::forensics::BusyInterval;
use gryphon_sim::telemetry::{sparkline, Timeline};
use gryphon_sim::{
    codec, default_rules, sketch, AlertRecord, AlertState, Exemplar, HealthEngine,
    HistogramSummary, MetricsSnapshot, TopKSnapshot,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A bundle loaded back into memory.
#[derive(Debug)]
pub struct Bundle {
    /// The bundle directory.
    pub dir: PathBuf,
    /// Flat manifest key/values.
    pub manifest: BTreeMap<String, String>,
    /// Counter snapshot from `metrics.csv`.
    pub counters: BTreeMap<String, f64>,
    /// Histogram percentile rows from `metrics.csv`.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// The re-parsed telemetry timeline: samples and the per-window
    /// top-K attribution snapshots (none for bundles written before the
    /// artifact existed, or with the population sketch disarmed).
    pub timeline: Timeline,
    /// The recorded alert log.
    pub alerts: Vec<AlertRecord>,
    /// Tail exemplars captured by the forensics reservoir (empty for
    /// bundles written before the artifact existed, or with forensics
    /// disarmed).
    pub exemplars: Vec<Exemplar>,
    /// Contention-profiler busy intervals (empty under the same
    /// conditions as the exemplars).
    pub intervals: Vec<BusyInterval>,
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name))
        .map_err(|e| format!("{}: cannot read {name}: {e}", dir.display()))
}

/// Splits one CSV row into fields, honouring the RFC-4180 quoting the
/// exporters use.
fn csv_fields(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if cur.is_empty() => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Loads a bundle directory written by [`crate::bundle::write_bundle`].
///
/// # Errors
///
/// Returns a description of the first missing or malformed artifact.
pub fn load_bundle(dir: &Path) -> Result<Bundle, String> {
    let manifest = read_manifest(&read(dir, "manifest.json")?)?;
    let interval_us: u64 = manifest
        .get("interval_us")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut counters = BTreeMap::new();
    let mut histograms = BTreeMap::new();
    let metrics_csv = read(dir, "metrics.csv")?;
    let mut rows = metrics_csv.lines();
    match rows.next() {
        Some(MetricsSnapshot::CSV_HEADER) => {}
        other => return Err(format!("metrics.csv: bad header {other:?}")),
    }
    for line in rows {
        if line.is_empty() {
            continue;
        }
        let f = csv_fields(line);
        if f.len() != 9 {
            return Err(format!("metrics.csv: bad row {line}"));
        }
        let num = |s: &str| -> f64 { s.parse().unwrap_or(f64::NAN) };
        match f[0].as_str() {
            "counter" => {
                counters.insert(f[1].clone(), num(&f[3]));
            }
            "histogram" => {
                histograms.insert(
                    f[1].clone(),
                    HistogramSummary {
                        name: f[1].clone(),
                        count: f[2].parse().unwrap_or(0),
                        min: num(&f[4]),
                        p50: num(&f[5]),
                        p95: num(&f[6]),
                        p99: num(&f[7]),
                        max: num(&f[8]),
                    },
                );
            }
            "series" => {}
            other => return Err(format!("metrics.csv: unknown kind {other}")),
        }
    }
    // Forensics artifacts are newer than the bundle schema itself:
    // tolerate their absence (older bundles) but not malformation.
    let optional = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
    let timeline = parse_timeline(
        &read(dir, "timeline.ndjson")?,
        &optional("topk.ndjson"),
        interval_us,
    )?;
    let alerts = codec::from_ndjson(&read(dir, "alerts.ndjson")?)?;
    let exemplars = codec::from_ndjson(&optional("exemplars.ndjson"))?;
    let intervals = codec::from_ndjson(&optional("intervals.ndjson"))?;
    Ok(Bundle {
        dir: dir.to_path_buf(),
        manifest,
        counters,
        histograms,
        timeline,
        alerts,
        exemplars,
        intervals,
    })
}

/// Parses a bundle's timeline from the two streams it is written as:
/// the samples (`timeline.ndjson`) and the top-K snapshots
/// (`topk.ndjson`), which name each alert's culprit on replay.
///
/// # Errors
///
/// Returns the first malformed line of either stream.
pub fn parse_timeline(samples: &str, topks: &str, interval_us: u64) -> Result<Timeline, String> {
    let mut timeline = Timeline::from_ndjson(samples, interval_us)?;
    for snap in codec::from_ndjson(topks)? {
        timeline.push_topk(snap);
    }
    Ok(timeline)
}

/// Replays the default health rules over a bundle's timeline at its
/// recorded sample times, reproducing the online engine's alert log:
/// the engine only ever reads samples at or before the evaluation time,
/// so offline replay over the complete timeline is exact, and each
/// transition names its culprit from the same window's top-K snapshots,
/// as [`Observers::close_window`](gryphon_sim::Observers::close_window)
/// does online.
pub fn replay_health(timeline: &Timeline) -> Vec<AlertRecord> {
    let mut times: Vec<u64> = timeline
        .series_names()
        .iter()
        .flat_map(|n| timeline.series(n).iter().map(|&(t, _)| t))
        .collect();
    times.sort_unstable();
    times.dedup();
    let mut engine = HealthEngine::new(default_rules());
    let mut out = Vec::new();
    for t in times {
        let alerts = engine.evaluate(t, timeline);
        if alerts.is_empty() {
            continue;
        }
        let snaps: Vec<TopKSnapshot> = timeline.topks().filter(|s| s.t_us == t).cloned().collect();
        for mut alert in alerts {
            sketch::name_culprit(&mut alert.detail, &alert.series, &snaps);
            out.push(alert);
        }
    }
    out
}

/// Entry point for `xp doctor <verb> …`; returns the process exit code
/// (0 healthy, 1 regression/alerts found, 2 usage or read error).
pub fn run(args: &[String]) -> i32 {
    // Loads the bundle at `path` and hands it to `verb`; a bundle that
    // does not load is a usage error.
    let with_bundle = |path: &str, verb: &dyn Fn(&Bundle) -> i32| match load_bundle(Path::new(path))
    {
        Ok(b) => verb(&b),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    match args.first().map(String::as_str) {
        Some("inspect") if args.len() >= 2 => {
            let mut full_exemplars = false;
            let mut full_topk = false;
            for flag in &args[2..] {
                match flag.as_str() {
                    "--exemplars" => full_exemplars = true,
                    "--topk" => full_topk = true,
                    other => {
                        eprintln!("error: unknown inspect option {other}");
                        return 2;
                    }
                }
            }
            with_bundle(&args[1], &|b| {
                print!("{}", inspect(b, full_exemplars, full_topk));
                0
            })
        }
        Some("export-trace") if args.len() == 4 && args[2] == "-o" => with_bundle(&args[1], &|b| {
            let json =
                crate::trace_export::chrome_trace_json(&b.intervals, &b.exemplars, &b.alerts);
            if let Err(e) = std::fs::write(&args[3], json) {
                eprintln!("error: cannot write {}: {e}", args[3]);
                return 2;
            }
            println!(
                "wrote {} ({} intervals, {} exemplars, {} alerts)",
                args[3],
                b.intervals.len(),
                b.exemplars.len(),
                b.alerts.len()
            );
            0
        }),
        Some("check") if args.len() == 2 => with_bundle(&args[1], &check),
        Some("diff") if args.len() >= 3 => {
            let mut threshold_pct = 25.0;
            let mut abs_floor_us = 1_000.0;
            let mut rest = args[3..].iter();
            while let Some(flag) = rest.next() {
                let value = rest.next().and_then(|v| v.parse::<f64>().ok());
                match (flag.as_str(), value) {
                    ("--threshold-pct", Some(v)) => threshold_pct = v,
                    ("--abs-floor-us", Some(v)) => abs_floor_us = v,
                    _ => {
                        eprintln!("error: unknown diff option {flag}");
                        return 2;
                    }
                }
            }
            with_bundle(&args[1], &|a| {
                with_bundle(&args[2], &|b| diff(a, b, threshold_pct, abs_floor_us))
            })
        }
        _ => {
            eprintln!(
                "usage: xp doctor inspect BUNDLE [--exemplars] [--topk]\n\
                 \x20      xp doctor check BUNDLE\n\
                 \x20      xp doctor diff A B [--threshold-pct P] [--abs-floor-us US]\n\
                 \x20      xp doctor export-trace BUNDLE -o OUT.json"
            );
            2
        }
    }
}

/// `true` for histograms `inspect` lists in its slowest-stage table.
/// Everything latency-shaped (`*_us`) plus the whole commit-pipeline
/// family (whose `batch_records`/`group_size` members are not µs but
/// explain *why* the `_us` members moved). The registry-coverage test
/// below keeps this predicate honest as histograms are added.
pub fn inspect_histogram(name: &str) -> bool {
    name.ends_with("_us") || name.starts_with("storage.commit.")
}

/// The latest top-K snapshot per dimension, in the order the
/// dimensions first appear in the bundle's snapshot log (which is the
/// sketch's fixed dimension order).
fn latest_topks(b: &Bundle) -> Vec<&TopKSnapshot> {
    let mut out: Vec<&TopKSnapshot> = Vec::new();
    for snap in b.timeline.topks() {
        match out.iter_mut().find(|s| s.dim == snap.dim) {
            Some(slot) => *slot = snap,
            None => out.push(snap),
        }
    }
    out
}

/// Renders the human `inspect` summary. `full_exemplars` lists every
/// captured tail exemplar instead of the three worst; `full_topk`
/// lists every ranked entity per attribution dimension instead of the
/// three heaviest.
pub fn inspect(b: &Bundle, full_exemplars: bool, full_topk: bool) -> String {
    let get = |k: &str| b.manifest.get(k).map(String::as_str).unwrap_or("?");
    let mut out = format!(
        "# bundle: {} ({})\n  version {}  git {}  quick {}  seed_offset {}  degrade {}\n  \
         sampling interval {} µs; {} timeline series; {} alert transitions\n",
        get("experiment"),
        b.dir.display(),
        get("version"),
        get("git"),
        get("quick"),
        get("seed_offset"),
        get("degrade"),
        get("interval_us"),
        b.timeline.series_names().len(),
        b.alerts.len(),
    );

    // Slowest pipeline stages first: the question inspect exists to
    // answer is "where did the time go".
    let mut stages: Vec<&HistogramSummary> = b
        .histograms
        .values()
        .filter(|h| inspect_histogram(&h.name))
        .collect();
    stages.sort_by(|x, y| y.p99.total_cmp(&x.p99));
    if !stages.is_empty() {
        out.push_str("\n## latency stages (slowest p99 first)\n");
        out.push_str(&format!(
            "  {:<36} {:>9} {:>12} {:>12} {:>12}\n",
            "histogram", "count", "p50", "p99", "max"
        ));
        for h in stages.iter().take(12) {
            out.push_str(&format!(
                "  {:<36} {:>9} {:>12.0} {:>12.0} {:>12.0}\n",
                h.name, h.count, h.p50, h.p99, h.max
            ));
        }
    }

    // The worst end-to-end spans, worst first: the exemplar reservoir
    // captured these *because* they landed in a stage histogram's tail,
    // so each renders the full timestamped→delivered walk.
    if !b.exemplars.is_empty() {
        let mut worst: Vec<&Exemplar> = b.exemplars.iter().collect();
        worst.sort_by(|x, y| y.value.total_cmp(&x.value));
        let shown = if full_exemplars {
            worst.len()
        } else {
            3.min(worst.len())
        };
        out.push_str(&format!(
            "\n## tail exemplars ({} captured, {shown} shown{})\n",
            b.exemplars.len(),
            if full_exemplars {
                ""
            } else {
                "; --exemplars for all"
            },
        ));
        for ex in worst.iter().take(shown) {
            for line in ex.render().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
    }

    // Per-entity attribution (DESIGN.md §9): the latest window's
    // top-K snapshot per dimension answers "who" the way the stage
    // table answers "where".
    let latest = latest_topks(b);
    if !latest.is_empty() {
        out.push_str(&format!(
            "\n## top-k attribution ({} snapshots{})\n",
            b.timeline.topks().len(),
            if full_topk {
                ""
            } else {
                "; --topk for all entries"
            },
        ));
        for snap in latest {
            out.push_str(&format!(
                "  {} (window at {:.3}s, total {}, dominance {:.1}%)\n",
                snap.dim,
                snap.t_us as f64 / 1e6,
                snap.total,
                snap.dominance_share() * 100.0,
            ));
            let shown = if full_topk {
                snap.entries.len()
            } else {
                3.min(snap.entries.len())
            };
            out.push_str(&format!(
                "    {:>4} {:>12} {:>12} {:>8} {:>7}\n",
                "rank", "entity", "count", "err", "share"
            ));
            for (i, e) in snap.entries.iter().take(shown).enumerate() {
                let share = if snap.total > 0 {
                    e.count as f64 / snap.total as f64 * 100.0
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "    {:>4} {:>12} {:>12} {:>8} {share:>6.1}%\n",
                    i + 1,
                    e.entity,
                    e.count,
                    e.err
                ));
            }
        }
    }

    let key_series: Vec<&str> = b
        .timeline
        .series_names()
        .into_iter()
        .filter(|n| {
            n.starts_with("telemetry.") && !n.contains(".w") && !n.contains(".n")
                || n.ends_with(".q99")
                || n.starts_with("sketch.")
        })
        .collect();
    if !key_series.is_empty() {
        out.push_str("\n## timeline\n");
        let width = key_series.iter().map(|n| n.len()).max().unwrap_or(0);
        for name in key_series {
            let values: Vec<f64> = b.timeline.series(name).iter().map(|&(_, v)| v).collect();
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            out.push_str(&format!(
                "  {name:<width$}  {}  max {max:.1}\n",
                sparkline(&values, 40)
            ));
        }
    }

    out.push_str(&format!("\n## alerts ({})\n", b.alerts.len()));
    if b.alerts.is_empty() {
        out.push_str("  none\n");
    }
    for a in &b.alerts {
        out.push_str(&format!(
            "  [{:>9.3}s] {:<7} {} on {}: {}\n",
            a.t_us as f64 / 1e6,
            a.state.as_str().to_uppercase(),
            a.rule,
            a.series,
            a.detail
        ));
    }
    out
}

/// `check`: replay the health rules and fail on firing alerts or
/// recorded invariant violations.
fn check(b: &Bundle) -> i32 {
    let replayed = replay_health(&b.timeline);
    let firing: Vec<&AlertRecord> = replayed
        .iter()
        .filter(|a| a.state == AlertState::Firing)
        .collect();
    let mut bad = false;
    for a in &firing {
        println!(
            "ALERT [{:.3}s] {} on {}: {}",
            a.t_us as f64 / 1e6,
            a.rule,
            a.series,
            a.detail
        );
        bad = true;
    }
    // Invariant counters must be zero regardless of rule thresholds.
    for (name, v) in &b.counters {
        let invariant = name.starts_with("watchdog.") || name.starts_with("lineage.ledger.");
        if invariant && *v > 0.0 {
            println!("VIOLATION {name} = {v:.0}");
            bad = true;
        }
    }
    if bad {
        println!("doctor check: UNHEALTHY ({} firing alerts)", firing.len());
        1
    } else {
        println!(
            "doctor check: OK — {} sample series, 0 firing alerts, all invariants clean",
            b.timeline.series_names().len()
        );
        0
    }
}

/// The largest-valued exemplar captured for `series` in bundle `b`.
fn worst_exemplar<'a>(b: &'a Bundle, series: &str) -> Option<&'a Exemplar> {
    b.exemplars
        .iter()
        .filter(|e| e.series == series)
        .max_by(|x, y| x.value.total_cmp(&y.value))
}

/// Timeline gauge series `diff` additionally guards (ISSUE 7): each is
/// compared at its final sample with the same relative threshold as the
/// histograms plus a small absolute floor.
const GUARDED_SERIES: &[&str] = &["telemetry.shb.bytes_per_idle_sub"];

/// Sketch gauge series whose regression `diff` attributes to a named
/// entity: each maps to the top-K dimension whose leading entry in
/// bundle B's latest snapshot is the population member driving the
/// gauge (DESIGN.md §9).
const ATTRIBUTED_SERIES: &[(&str, &str)] = &[
    (
        gryphon_sim::names::SKETCH_LAG_P99_US,
        gryphon_sim::sketch::DIM_SUB_LAG,
    ),
    (
        gryphon_sim::names::SKETCH_LAG_SKEW,
        gryphon_sim::sketch::DIM_SUB_LAG,
    ),
];

/// The leading entry of bundle `b`'s latest snapshot for `dim`.
fn top_entity<'a>(b: &'a Bundle, dim: &str) -> Option<(&'a TopKSnapshot, u64, u64, u64)> {
    b.timeline
        .topks()
        .filter(|s| s.dim == dim)
        .last()
        .and_then(|s| s.entries.first().map(|e| (s, e.entity, e.count, e.err)))
}

/// `diff`: latency-histogram percentile and violation-counter deltas.
/// A `*_us` histogram regresses when p50 or p99 rises by more than
/// `threshold_pct` percent AND more than `abs_floor_us` µs (the floor
/// keeps µs-scale jitter from flagging); a violation or alert counter
/// regresses on any increase; the [`GUARDED_SERIES`] timeline gauges
/// regress when their final sample grows past the threshold.
fn diff(a: &Bundle, b: &Bundle, threshold_pct: f64, abs_floor_us: f64) -> i32 {
    println!(
        "diff: {} -> {}  (threshold {threshold_pct}% and {abs_floor_us} µs)",
        a.dir.display(),
        b.dir.display()
    );
    let mut regressions: Vec<String> = Vec::new();
    println!(
        "  {:<36} {:>6} {:>12} {:>12} {:>9}",
        "histogram", "pct", "A_us", "B_us", "delta%"
    );
    for (name, ha) in &a.histograms {
        if !name.ends_with("_us") {
            continue;
        }
        let Some(hb) = b.histograms.get(name) else {
            continue;
        };
        for (label, va, vb) in [("p50", ha.p50, hb.p50), ("p99", ha.p99, hb.p99)] {
            let delta = vb - va;
            let pct = if va > 0.0 { delta / va * 100.0 } else { 0.0 };
            println!("  {name:<36} {label:>6} {va:>12.0} {vb:>12.0} {pct:>+8.1}%");
            if pct > threshold_pct && delta > abs_floor_us {
                let mut r = format!("{name} {label}: {va:.0} µs -> {vb:.0} µs ({pct:+.1}%)");
                // Attribute the regression: the worst exemplar B
                // captured for this histogram shows where, stage by
                // stage, that tail latency was actually spent.
                if let Some(ex) = worst_exemplar(b, name) {
                    for line in ex.render().lines() {
                        r.push_str(&format!("\n    {line}"));
                    }
                }
                regressions.push(r);
            }
        }
    }
    // Guarded timeline gauges: gauges are sampled onto the timeline,
    // not into metrics.csv, so they diff here. The SHB memory model is
    // held by its final sample (the steady-state footprint after the
    // run): B regresses when it grows past the relative threshold AND
    // a 64-byte floor (allocator/capacity jitter stays quiet).
    for name in GUARDED_SERIES {
        let last = |x: &Bundle| x.timeline.series(name).last().map(|&(_, v)| v);
        let (Some(va), Some(vb)) = (last(a), last(b)) else {
            continue;
        };
        let delta = vb - va;
        let pct = if va > 0.0 { delta / va * 100.0 } else { 0.0 };
        println!(
            "  {name:<36} {:>6} {va:>12.0} {vb:>12.0} {pct:>+8.1}%",
            "last"
        );
        if pct > threshold_pct && delta > 64.0 {
            regressions.push(format!("{name}: {va:.0} B -> {vb:.0} B ({pct:+.1}%)"));
        }
    }
    // Attributed sketch gauges: a regressed population gauge names the
    // entity behind it — the leading entry of B's latest top-K
    // snapshot for the matching dimension.
    for (name, dim) in ATTRIBUTED_SERIES {
        let last = |x: &Bundle| x.timeline.series(name).last().map(|&(_, v)| v);
        let (Some(va), Some(vb)) = (last(a), last(b)) else {
            continue;
        };
        let delta = vb - va;
        let pct = if va > 0.0 { delta / va * 100.0 } else { 0.0 };
        // A zero baseline (fully caught-up run A) makes pct useless —
        // any meaningful growth from 0 is a regression on its own.
        let from_zero = va <= 0.0 && vb > 0.0;
        let shown = if from_zero {
            "new".to_string()
        } else {
            format!("{pct:+.1}%")
        };
        println!(
            "  {name:<36} {:>6} {va:>12.0} {vb:>12.0} {shown:>9}",
            "last"
        );
        // µs-valued gauges share the histogram floor; the skew ratio
        // uses a fixed 0.5 floor instead (it is dimensionless).
        let floor = if name.ends_with("_us") {
            abs_floor_us
        } else {
            0.5
        };
        if (pct > threshold_pct || from_zero) && delta > floor {
            let mut r = format!("{name}: {va:.0} -> {vb:.0} ({shown})");
            if let Some((snap, entity, count, err)) = top_entity(b, dim) {
                r.push_str(&format!(
                    "\n    top {dim} entity: {entity} (weight {count} ±{err} of {}, window at {:.3}s)",
                    snap.total,
                    snap.t_us as f64 / 1e6
                ));
            }
            regressions.push(r);
        }
    }
    for (name, va) in &a.counters {
        let guarded = name.starts_with("watchdog.")
            || name.starts_with("lineage.ledger.")
            || name.starts_with("health.alert.");
        if !guarded {
            continue;
        }
        let vb = b.counters.get(name).copied().unwrap_or(0.0);
        if vb > *va {
            regressions.push(format!("{name}: {va:.0} -> {vb:.0}"));
        }
    }
    // Counters guarded in B but absent from A are new failures too.
    for (name, vb) in &b.counters {
        let guarded = name.starts_with("watchdog.")
            || name.starts_with("lineage.ledger.")
            || name.starts_with("health.alert.");
        if guarded && !a.counters.contains_key(name) && *vb > 0.0 {
            regressions.push(format!("{name}: absent -> {vb:.0}"));
        }
    }
    if regressions.is_empty() {
        println!("doctor diff: OK — no regressions past thresholds");
        0
    } else {
        for r in &regressions {
            println!("REGRESSION: {r}");
        }
        println!("doctor diff: {} regression(s)", regressions.len());
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{write_bundle, BundleMeta};
    use crate::report::Report;
    use gryphon_sim::Metrics;

    fn bundle_with(
        tag: &str,
        deliver_p: (f64, f64, f64),
        backlog: &[(u64, f64)],
    ) -> (PathBuf, Bundle) {
        let root =
            std::env::temp_dir().join(format!("gryphon-doctor-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut m = Metrics::default();
        m.count("shb.constream_delivered", 1_000.0);
        // Shape a histogram whose percentiles land near the requested
        // values by observing them directly.
        let (p50, p99, _max) = deliver_p;
        for _ in 0..98 {
            m.observe("lineage.stage.deliver_us", p50);
        }
        m.observe("lineage.stage.deliver_us", p99);
        m.observe("lineage.stage.deliver_us", p99 * 1.01);
        let mut t = gryphon_sim::telemetry::Timeline::new(500_000);
        for &(ts, v) in backlog {
            t.record(ts, "telemetry.catchup_backlog_ticks", v);
        }
        let mut r = Report::new("t");
        r.attach_metrics(&m);
        r.attach_telemetry(t);
        let dir = write_bundle(
            &root,
            &r,
            &BundleMeta {
                interval_us: 500_000,
                ..BundleMeta::default()
            },
        )
        .unwrap();
        let b = load_bundle(&dir).unwrap();
        (root, b)
    }

    #[test]
    fn load_round_trips_metrics_and_timeline() {
        let (root, b) = bundle_with("load", (1_000.0, 5_000.0, 5_050.0), &[(500_000, 3.0)]);
        assert_eq!(b.counters["shb.constream_delivered"], 1_000.0);
        assert!(b.histograms.contains_key("lineage.stage.deliver_us"));
        assert_eq!(
            b.timeline.series("telemetry.catchup_backlog_ticks"),
            &[(500_000, 3.0)]
        );
        assert!(b.alerts.is_empty());
        let text = inspect(&b, false, false);
        assert!(text.contains("lineage.stage.deliver_us"));
        assert!(text.contains("none"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn diff_flags_real_regressions_only() {
        let (ra, a) = bundle_with("diff-a", (1_000.0, 5_000.0, 5_050.0), &[]);
        // ~Equal run: inside thresholds.
        let (rb, b) = bundle_with("diff-b", (1_050.0, 5_200.0, 5_252.0), &[]);
        assert_eq!(diff(&a, &b, 25.0, 1_000.0), 0);
        // Clearly degraded run: 3× slower.
        let (rc, c) = bundle_with("diff-c", (3_000.0, 15_000.0, 15_150.0), &[]);
        assert_eq!(diff(&a, &c, 25.0, 1_000.0), 1);
        // Improvement is not a regression.
        assert_eq!(diff(&c, &a, 25.0, 1_000.0), 0);
        for r in [ra, rb, rc] {
            let _ = std::fs::remove_dir_all(&r);
        }
    }

    fn bundle_with_idle_bytes(tag: &str, bytes_per_idle: f64) -> (PathBuf, Bundle) {
        let root =
            std::env::temp_dir().join(format!("gryphon-doctor-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut t = gryphon_sim::telemetry::Timeline::new(500_000);
        t.record(
            500_000,
            "telemetry.shb.bytes_per_idle_sub",
            bytes_per_idle * 1.2,
        );
        t.record(
            1_000_000,
            "telemetry.shb.bytes_per_idle_sub",
            bytes_per_idle,
        );
        let mut r = Report::new("t");
        r.attach_metrics(&Metrics::default());
        r.attach_telemetry(t);
        let dir = write_bundle(
            &root,
            &r,
            &BundleMeta {
                interval_us: 500_000,
                ..BundleMeta::default()
            },
        )
        .unwrap();
        let b = load_bundle(&dir).unwrap();
        (root, b)
    }

    #[test]
    fn diff_guards_bytes_per_idle_sub_series() {
        let (ra, a) = bundle_with_idle_bytes("idle-a", 240.0);
        // Within threshold and floor: quiet (the final sample counts,
        // not the transient earlier one).
        let (rb, b) = bundle_with_idle_bytes("idle-b", 250.0);
        assert_eq!(diff(&a, &b, 25.0, 1_000.0), 0);
        // 2× the idle footprint: flagged.
        let (rc, c) = bundle_with_idle_bytes("idle-c", 480.0);
        assert_eq!(diff(&a, &c, 25.0, 1_000.0), 1);
        // Improvement is not a regression.
        assert_eq!(diff(&c, &a, 25.0, 1_000.0), 0);
        for r in [ra, rb, rc] {
            let _ = std::fs::remove_dir_all(&r);
        }
    }

    #[test]
    fn replay_health_fires_on_sustained_growth() {
        // Growing backlog across 5 windows by 2400 ticks: the
        // catchup_backlog rule must fire on replay.
        let samples: Vec<(u64, f64)> = (1..=8)
            .map(|i| (i * 500_000, (i as f64 - 1.0) * 600.0))
            .collect();
        let (root, b) = bundle_with("replay", (1_000.0, 5_000.0, 5_050.0), &samples);
        let alerts = replay_health(&b.timeline);
        assert!(
            alerts
                .iter()
                .any(|a| a.rule == "catchup_backlog" && a.state == AlertState::Firing),
            "got {alerts:?}"
        );
        assert_eq!(check(&b), 1);
        // Flat backlog: quiet.
        let (root2, quiet) = bundle_with(
            "replay-quiet",
            (1_000.0, 5_000.0, 5_050.0),
            &[(500_000, 10.0), (1_000_000, 10.0)],
        );
        assert!(replay_health(&quiet.timeline).is_empty());
        assert_eq!(check(&quiet), 0);
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&root2);
    }

    #[test]
    fn run_usage_errors() {
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["inspect".into(), "/nonexistent-bundle".into()]), 2);
        assert_eq!(run(&["inspect".into(), "x".into(), "--bogus".into()]), 2);
        assert_eq!(run(&["verb".into()]), 2);
        assert_eq!(run(&["export-trace".into(), "x".into()]), 2);
    }

    /// Registry-completeness guard (ISSUE 9): every latency-shaped or
    /// commit-pipeline histogram in the metric registry must pass the
    /// inspect filter, so newly registered histograms can't silently
    /// fall out of `doctor inspect`'s slowest-stage listing.
    #[test]
    fn inspect_filter_covers_registered_histograms() {
        for name in gryphon_sim::names::all() {
            if name.ends_with("_us") || name.starts_with("storage.commit.") {
                assert!(
                    inspect_histogram(name),
                    "{name} would fall out of doctor inspect"
                );
            }
        }
        // The two commit-family members that are *not* µs-valued are
        // exactly why the filter is broader than `ends_with("_us")`.
        assert!(inspect_histogram("storage.commit.batch_records"));
        assert!(inspect_histogram("storage.commit.group_size"));
        assert!(!inspect_histogram("phb.log_bytes"));
    }

    /// A bundle observing the PR-8 commit histograms must show them in
    /// the inspect listing end-to-end (not just pass the predicate).
    #[test]
    fn inspect_lists_commit_pipeline_histograms() {
        let root =
            std::env::temp_dir().join(format!("gryphon-doctor-test-{}-commit", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut m = Metrics::default();
        for name in [
            gryphon_sim::names::STORAGE_COMMIT_BATCH_RECORDS,
            gryphon_sim::names::STORAGE_COMMIT_GROUP_SIZE,
        ] {
            m.observe(name, 42.0);
        }
        let mut r = Report::new("t");
        r.attach_metrics(&m);
        r.attach_telemetry(gryphon_sim::telemetry::Timeline::new(500_000));
        let dir = write_bundle(&root, &r, &BundleMeta::default()).unwrap();
        let text = inspect(&load_bundle(&dir).unwrap(), false, false);
        for name in ["storage.commit.batch_records", "storage.commit.group_size"] {
            assert!(text.contains(name), "{name} missing from:\n{text}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    fn forensic_bundle(tag: &str) -> (PathBuf, PathBuf) {
        let root =
            std::env::temp_dir().join(format!("gryphon-doctor-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut m = Metrics::default();
        // Same 98 + 2 shape as `bundle_with`, so the p99 rank lands on
        // the tail values rather than the body.
        for _ in 0..98 {
            m.observe("lineage.stage.deliver_us", 1_000.0);
        }
        m.observe("lineage.stage.deliver_us", 50_000.0);
        m.observe("lineage.stage.deliver_us", 50_500.0);
        let mut t = gryphon_sim::telemetry::Timeline::new(500_000);
        t.record(500_000, "lineage.stage.deliver_us.q99", 50_000.0);
        t.push_exemplar(Exemplar {
            t_us: 451_000,
            series: "lineage.stage.deliver_us".into(),
            value: 50_000.0,
            pubend: 2,
            ts: 9,
            birth_us: Some(400_000),
            log_us: Some(402_000),
            forward_us: Some(405_000),
            ingest_us: Some(430_000),
        });
        t.push_interval(BusyInterval {
            track: 1,
            kind: gryphon_sim::forensics::KIND_BUSY,
            start_us: 400_000,
            dur_us: 2_000,
        });
        let mut r = Report::new("t");
        r.attach_metrics(&m);
        r.attach_telemetry(t);
        let dir = write_bundle(
            &root,
            &r,
            &BundleMeta {
                interval_us: 500_000,
                ..BundleMeta::default()
            },
        )
        .unwrap();
        (root, dir)
    }

    #[test]
    fn exemplars_and_intervals_round_trip_through_bundles() {
        let (root, dir) = forensic_bundle("forensic");
        let b = load_bundle(&dir).unwrap();
        assert_eq!(b.exemplars.len(), 1);
        assert_eq!(b.exemplars[0].value, 50_000.0);
        assert_eq!(b.intervals.len(), 1);
        assert_eq!(b.intervals[0].kind, "busy");
        let text = inspect(&b, false, false);
        assert!(text.contains("tail exemplars"), "{text}");
        assert!(text.contains("lineage.stage.deliver_us"), "{text}");
        // Stage walk renders from the resolved anchors.
        assert!(text.contains("timestamped"), "{text}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn diff_names_the_exemplar_behind_a_regressed_histogram() {
        let (ra, a) = bundle_with("exdiff-a", (1_000.0, 5_000.0, 5_050.0), &[]);
        let (rb, dir_b) = forensic_bundle("exdiff-b");
        let b = load_bundle(&dir_b).unwrap();
        // deliver_us p99 5_000 → ~50_000: regression, and the pushed
        // exemplar for that series is named in the regression output.
        assert_eq!(diff(&a, &b, 25.0, 1_000.0), 1);
        assert!(worst_exemplar(&b, "lineage.stage.deliver_us").is_some());
        assert!(worst_exemplar(&b, "lineage.stage.log_us").is_none());
        for r in [ra, rb] {
            let _ = std::fs::remove_dir_all(&r);
        }
    }

    fn topk_bundle(tag: &str, lag_p99_us: f64) -> (PathBuf, Bundle) {
        use gryphon_sim::TopKEntry;
        let root =
            std::env::temp_dir().join(format!("gryphon-doctor-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut t = gryphon_sim::telemetry::Timeline::new(500_000);
        t.record(500_000, "sketch.sub_lag.p99_us", lag_p99_us);
        let entry = |entity: u64, count: u64| TopKEntry {
            entity,
            count,
            err: 0,
        };
        t.push_topk(TopKSnapshot {
            t_us: 500_000,
            dim: gryphon_sim::sketch::DIM_SUB_LAG,
            total: 1_400,
            entries: vec![entry(42, 800), entry(7, 300), entry(9, 200), entry(1, 100)],
        });
        t.push_topk(TopKSnapshot {
            t_us: 500_000,
            dim: gryphon_sim::sketch::DIM_SUB_BYTES,
            total: 640,
            entries: vec![entry(42, 640)],
        });
        let mut r = Report::new("t");
        r.attach_metrics(&Metrics::default());
        r.attach_telemetry(t);
        let dir = write_bundle(
            &root,
            &r,
            &BundleMeta {
                interval_us: 500_000,
                ..BundleMeta::default()
            },
        )
        .unwrap();
        let b = load_bundle(&dir).unwrap();
        (root, b)
    }

    #[test]
    fn topk_round_trips_and_inspect_renders_ranked_tables() {
        let (root, b) = topk_bundle("topk", 1_000.0);
        assert_eq!(b.timeline.topks().len(), 2);
        let first = b.timeline.topks().next().expect("two snapshots");
        assert_eq!(first.dim, gryphon_sim::sketch::DIM_SUB_LAG);
        assert_eq!(first.entries[0].entity, 42);
        let brief = inspect(&b, false, false);
        assert!(brief.contains("top-k attribution"), "{brief}");
        assert!(brief.contains("slowest_subs_by_lag"), "{brief}");
        assert!(brief.contains("42"), "{brief}");
        // Rank 4 (entity 1, count 100) only shows under --topk.
        assert!(!brief.contains("     100 "), "{brief}");
        let full = inspect(&b, false, true);
        assert!(full.contains("     100 "), "{full}");
        // The sketch gauge series joins the timeline sparklines.
        assert!(brief.contains("sketch.sub_lag.p99_us"), "{brief}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn diff_names_the_entity_behind_a_regressed_sketch_gauge() {
        let (ra, a) = topk_bundle("skdiff-a", 1_000.0);
        // 50× the lag p99: regression, attributed to entity 42 from
        // B's latest slowest_subs_by_lag snapshot.
        let (rb, b) = topk_bundle("skdiff-b", 50_000.0);
        assert_eq!(diff(&a, &b, 25.0, 1_000.0), 1);
        let (_, entity, count, _) = top_entity(&b, gryphon_sim::sketch::DIM_SUB_LAG).unwrap();
        assert_eq!((entity, count), (42, 800));
        // Improvement is not a regression.
        assert_eq!(diff(&b, &a, 25.0, 1_000.0), 0);
        // A zero baseline defeats the percent guard (0 -> anything is
        // +0.0%); growth from zero past the floor must still flag.
        let (rz, z) = topk_bundle("skdiff-z", 0.0);
        assert_eq!(diff(&z, &b, 25.0, 1_000.0), 1);
        assert_eq!(diff(&z, &z, 25.0, 1_000.0), 0);
        for r in [ra, rb, rz] {
            let _ = std::fs::remove_dir_all(&r);
        }
    }

    #[test]
    fn export_trace_writes_valid_event_json() {
        let (root, dir) = forensic_bundle("export");
        let out = root.join("trace.json");
        let code = run(&[
            "export-trace".into(),
            dir.display().to_string(),
            "-o".into(),
            out.display().to_string(),
        ]);
        assert_eq!(code, 0);
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""), "worker slice present");
        assert!(json.contains("\"cat\":\"lineage\""), "async span present");
        assert_eq!(
            json.matches("\"ph\":\"b\"").count(),
            json.matches("\"ph\":\"e\"").count()
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
