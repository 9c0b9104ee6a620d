//! `perf_gate` — compares fresh criterion JSON against the checked-in
//! `BENCH_*.json` baselines and flags regressions.
//!
//! ```text
//! perf_gate [--strict] [--threshold-pct N] BASELINE FRESH [BASELINE FRESH ...]
//! ```
//!
//! Each `BASELINE FRESH` pair is two JSON arrays of
//! `{"name": ..., "ns_per_iter": ..., "iters": ...}` records (the shape
//! `scripts/bench.sh` writes). For every benchmark present in the
//! baseline, the gate computes the per-iteration slowdown and compares
//! it against a per-benchmark threshold:
//!
//! * in-process CPU benches get `--threshold-pct` (default 100, i.e.
//!   fail beyond 2× the baseline — generous because baselines are
//!   machine-relative);
//! * the wall-clock thread benches (the `log_volume_commit/` committer
//!   fan-out) get twice that, since thread scheduling adds real
//!   variance.
//!
//! Without `--strict` regressions are printed as warnings and the exit
//! code stays 0 (the local workflow); with `--strict` any regression —
//! or a baseline benchmark missing from the fresh run — exits 1 (the CI
//! workflow, wired up in `scripts/ci.sh`).

use gryphon_sim::codec::{self, Field, Record};
use std::process::ExitCode;

/// One measurement from a criterion JSON file: a line of the shape the
/// criterion stub's `CRITERION_JSON` hook writes.
#[derive(Debug, Clone, Default, PartialEq)]
struct Measurement {
    name: String,
    ns_per_iter: f64,
    iters: Option<u64>,
}

impl Record for Measurement {
    const STREAM: &'static str = "criterion";
    const FIELDS: &'static [Field<Self>] = &[
        Field::Str(
            "name",
            |m| &m.name,
            |m, v| {
                m.name = v;
                true
            },
        ),
        Field::F64("ns_per_iter", |m| m.ns_per_iter, |m, v| m.ns_per_iter = v),
        Field::OptU64("iters", |m| m.iters, |m, v| m.iters = Some(v)),
    ];
}

/// Parses criterion JSON — an array (`[{...},{...}]`, the checked-in
/// baselines) or one object per line (a fresh run) — into measurements.
/// The records are flat, so each `{`…`}` is one object; objects the
/// shared codec rejects (a missing name or time) are skipped.
fn parse_bench_json(body: &str) -> Vec<Measurement> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(start) = rest.find('{') {
        let Some(len) = rest[start..].find('}') else {
            break;
        };
        let mut obj = &rest[start..start + len + 1];
        if let Ok(m) = codec::decode::<Measurement>(&mut obj) {
            out.push(m);
        }
        rest = &rest[start + len + 1..];
    }
    out
}

/// The gate's verdict on one baseline benchmark.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    name: String,
    baseline_ns: f64,
    fresh_ns: Option<f64>,
    delta_pct: f64,
    limit_pct: f64,
    regressed: bool,
}

/// Per-benchmark regression threshold: wall-clock thread benches (the
/// `log_volume_commit` committer fan-out runs real threads) are allowed
/// twice the slack of in-process CPU benches.
fn limit_for(name: &str, base_threshold_pct: f64) -> f64 {
    if name.starts_with("log_volume_commit/") {
        base_threshold_pct * 2.0
    } else {
        base_threshold_pct
    }
}

/// Compares `fresh` against `baseline`; one verdict per baseline entry.
/// A baseline benchmark absent from the fresh run is reported as
/// regressed (a silently vanished benchmark must not pass a gate).
fn evaluate(baseline: &[Measurement], fresh: &[Measurement], threshold_pct: f64) -> Vec<Verdict> {
    baseline
        .iter()
        .map(|b| {
            let limit_pct = limit_for(&b.name, threshold_pct);
            match fresh.iter().find(|f| f.name == b.name) {
                Some(f) => {
                    let delta_pct = if b.ns_per_iter > 0.0 {
                        (f.ns_per_iter - b.ns_per_iter) / b.ns_per_iter * 100.0
                    } else {
                        0.0
                    };
                    Verdict {
                        name: b.name.clone(),
                        baseline_ns: b.ns_per_iter,
                        fresh_ns: Some(f.ns_per_iter),
                        delta_pct,
                        limit_pct,
                        regressed: delta_pct > limit_pct,
                    }
                }
                None => Verdict {
                    name: b.name.clone(),
                    baseline_ns: b.ns_per_iter,
                    fresh_ns: None,
                    delta_pct: f64::INFINITY,
                    limit_pct,
                    regressed: true,
                },
            }
        })
        .collect()
}

fn render_table(verdicts: &[Verdict]) -> String {
    let name_w = verdicts
        .iter()
        .map(|v| v.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = format!(
        "{:<name_w$}  {:>14}  {:>14}  {:>8}  {:>7}  status\n",
        "name", "baseline ns", "fresh ns", "delta", "limit"
    );
    for v in verdicts {
        let fresh = v
            .fresh_ns
            .map(|f| format!("{f:.0}"))
            .unwrap_or_else(|| "MISSING".to_owned());
        let delta = if v.delta_pct.is_finite() {
            format!("{:+.1}%", v.delta_pct)
        } else {
            "--".to_owned()
        };
        out.push_str(&format!(
            "{:<name_w$}  {:>14.0}  {:>14}  {:>8}  {:>6.0}%  {}\n",
            v.name,
            v.baseline_ns,
            fresh,
            delta,
            v.limit_pct,
            if v.regressed { "REGRESSED" } else { "ok" }
        ));
    }
    out
}

fn read_measurements(path: &str) -> Vec<Measurement> {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let parsed = parse_bench_json(&body);
    if parsed.is_empty() {
        eprintln!("error: no benchmark records parsed from {path}");
        std::process::exit(2);
    }
    parsed
}

fn main() -> ExitCode {
    let mut strict = false;
    let mut threshold_pct = 100.0f64;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => strict = true,
            "--threshold-pct" => {
                threshold_pct = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threshold-pct requires a numeric argument");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: perf_gate [--strict] [--threshold-pct N] \
                     BASELINE FRESH [BASELINE FRESH ...]"
                );
                return ExitCode::SUCCESS;
            }
            other => files.push(other.to_owned()),
        }
    }
    if files.is_empty() || !files.len().is_multiple_of(2) {
        eprintln!(
            "usage: perf_gate [--strict] [--threshold-pct N] \
             BASELINE FRESH [BASELINE FRESH ...]"
        );
        return ExitCode::from(2);
    }
    let mut any_regressed = false;
    for pair in files.chunks(2) {
        let baseline = read_measurements(&pair[0]);
        let fresh = read_measurements(&pair[1]);
        let verdicts = evaluate(&baseline, &fresh, threshold_pct);
        println!("== {} vs {} ==", pair[0], pair[1]);
        print!("{}", render_table(&verdicts));
        for v in verdicts.iter().filter(|v| v.regressed) {
            any_regressed = true;
            eprintln!(
                "{}: {} regressed ({:+.1}% > {:.0}% limit)",
                if strict { "error" } else { "warning" },
                v.name,
                v.delta_pct,
                v.limit_pct
            );
        }
    }
    if any_regressed && strict {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str, ns: f64) -> Measurement {
        Measurement {
            name: name.to_owned(),
            ns_per_iter: ns,
            iters: None,
        }
    }

    #[test]
    fn parses_bench_sh_output_shape() {
        let body = "[\n{\"name\":\"log_volume_commit/group_commit/file8\",\"ns_per_iter\":33127681.4,\"iters\":8},\
                    {\"name\":\"matching/hot\",\"ns_per_iter\":512.3,\"iters\":97000}\n]\n";
        let parsed = parse_bench_json(body);
        let with_iters = |name, ns, iters| Measurement {
            iters: Some(iters),
            ..m(name, ns)
        };
        assert_eq!(
            parsed,
            vec![
                with_iters("log_volume_commit/group_commit/file8", 33127681.4, 8),
                with_iters("matching/hot", 512.3, 97000)
            ]
        );
    }

    #[test]
    fn parse_skips_malformed_objects() {
        let body = "[{\"name\":\"ok\",\"ns_per_iter\":10},{\"iters\":3},{\"name\":\"no_ns\"}]";
        assert_eq!(parse_bench_json(body), vec![m("ok", 10.0)]);
    }

    #[test]
    fn ten_x_slowdown_fails_ten_pct_passes() {
        let baseline = vec![m("matching/hot", 100.0)];
        let slow = evaluate(&baseline, &[m("matching/hot", 1_000.0)], 100.0);
        assert!(slow[0].regressed, "10× slowdown must regress");
        let ok = evaluate(&baseline, &[m("matching/hot", 110.0)], 100.0);
        assert!(!ok[0].regressed, "+10% is inside the threshold");
        assert!((ok[0].delta_pct - 10.0).abs() < 1e-9);
    }

    #[test]
    fn wall_clock_benches_get_double_slack() {
        let baseline = vec![m("log_volume_commit/group_commit/file8", 100.0)];
        // +150% would fail a CPU bench at threshold 100; thread benches get 200.
        let v = evaluate(
            &baseline,
            &[m("log_volume_commit/group_commit/file8", 250.0)],
            100.0,
        );
        assert!(!v[0].regressed);
        let v = evaluate(
            &baseline,
            &[m("log_volume_commit/group_commit/file8", 350.0)],
            100.0,
        );
        assert!(v[0].regressed, "+250% exceeds even the doubled limit");
    }

    #[test]
    fn missing_fresh_benchmark_regresses() {
        let baseline = vec![m("matching/hot", 100.0)];
        let v = evaluate(&baseline, &[], 100.0);
        assert!(v[0].regressed);
        assert_eq!(v[0].fresh_ns, None);
        assert!(render_table(&v).contains("MISSING"));
    }

    #[test]
    fn speedups_never_regress() {
        let baseline = vec![m("matching/hot", 100.0)];
        let v = evaluate(&baseline, &[m("matching/hot", 1.0)], 100.0);
        assert!(!v[0].regressed);
        assert!(v[0].delta_pct < -90.0);
    }

    #[test]
    fn table_renders_status_column() {
        let baseline = vec![m("a", 100.0), m("b", 100.0)];
        let fresh = vec![m("a", 100.0), m("b", 900.0)];
        let table = render_table(&evaluate(&baseline, &fresh, 100.0));
        assert!(table.contains("ok"));
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("+800.0%"));
    }
}
