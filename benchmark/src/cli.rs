//! Command line: one workload run (the form `BENCHMARK.json` names),
//! the four-workload suite, and the `--repeat` A/A self-check.

use crate::gen::{spec_by_name, Workload, WORKLOADS};
use crate::json::{self, Json};
use crate::metrics::{self, Def, Values, END_TO_END, PER_LAYER};
use crate::run::{run_pass, Pass, PassCfg};
use crate::stats::{median, quantile_sorted, quartiles};
use crate::{analyze, replay, store};
use std::process::{Command, Stdio};

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat K]
  --workload W   one of fanout, selective, large_payload, reconnect; all four if absent
  --seed N       drives attribute values, filter constants, payload bytes, disconnect phases (default 1)
  --seconds S    measured phase of a run: a third for the CPU metrics, the rest for the latency metrics (default 24)
  --trace 1      the traced pass: per-layer metrics instead of end-to-end ones
  --repeat [K]   A/A self-check: the untraced suite K times (default 5) on seeds N..N+K, as the driver does; spread and set medians against the bounds
  --help         this text and every metric with its unit, bound and definition";

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

/// Parses `argv[1..]`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?.clone()),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                }
            }
            "--repeat" => {
                // The count is optional: `--repeat` alone means 5.
                a.repeat = Some(match it.clone().next().map(|k| k.parse()) {
                    Some(Ok(k)) => {
                        it.next();
                        k
                    }
                    _ => 5,
                })
            }
            "--help" | "-h" => return Err(help()),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if a.seconds.is_nan() || a.seconds < 3.0 {
        return Err("--seconds must be at least 3".to_owned());
    }
    Ok(a)
}

/// Usage, then every metric with its unit, bound and definition.
fn help() -> String {
    let mut text = format!(
        "{USAGE}\n\nend-to-end metrics (all lower is better; bound = allowed worsening):\n"
    );
    for d in &END_TO_END {
        let bound = d.bound.expect("end-to-end metrics have bounds");
        text += &format!("  {:<30} {:<4} {:.2}  {}\n", d.name, d.unit, bound, d.what);
    }
    text += "\nper-layer metrics (o every pass, * traced pass, + direct-drive replay):\n";
    for d in &PER_LAYER {
        text += &format!("  {:<34} {:<8} {}\n", d.name, d.unit, d.what);
    }
    text
}

/// Runs what the arguments ask for; `Ok(false)` means it ran and found
/// a mismatch.
pub fn run(a: &Args) -> Result<bool, String> {
    match (&a.workload, a.repeat) {
        (_, Some(k)) => repeat(a, k),
        (Some(name), None) => {
            let spec = spec_by_name(name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
            let w = Workload::new(spec, a.seed);
            if a.trace {
                traced_run(&w, a)
            } else {
                untraced_run(&w, a)
            }
        }
        (None, None) => {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut ok = true;
            for spec in WORKLOADS {
                for trace in [false, true] {
                    if !trace || a.trace {
                        let run = child_run(&exe, spec.name, a.seed, a.seconds, trace)?;
                        print!("{}", run.report);
                        ok &= run.correct;
                    }
                }
            }
            Ok(ok)
        }
    }
}

/// The gated pass: three timed set-ups, 1 s warm-up, `seconds` measured
/// in 0.5 s slices, a third of them for CPU (what moves that number is
/// the box, between runs, so more slices would not steady it) and the
/// rest for latency. No saturation phase: 92 runs must fit the driver's 57 minutes, and
/// the issue drops that phase first.
fn gated_pass(seconds: f64) -> PassCfg {
    PassCfg {
        traced: false,
        setups: 3,
        warm_s: 1.0,
        cpu_s: seconds / 3.0,
        lat_s: seconds * 2.0 / 3.0,
        sat_s: 0.0,
    }
}

/// The passes of a traced run share its `seconds`: a quarter each.
fn short_pass(seconds: f64, traced: bool, sat_s: f64) -> PassCfg {
    PassCfg {
        traced,
        setups: 1,
        warm_s: 1.0,
        cpu_s: seconds / 12.0,
        lat_s: seconds / 6.0,
        sat_s,
    }
}

fn untraced_run(w: &Workload, a: &Args) -> Result<bool, String> {
    let cfg = gated_pass(a.seconds);
    let pass = run_pass(w, cfg)?;
    header(w, a, &pass);
    let values = metrics::end_to_end(&pass);
    print_values(&END_TO_END, &values);
    print_values(&PER_LAYER, &metrics::free_layer(&pass));
    notes(&pass, &cfg);
    result_line(
        pass.correct(),
        pass.attempted,
        pass.failures.total(),
        &END_TO_END,
        &values,
    )
}

fn traced_run(w: &Workload, a: &Args) -> Result<bool, String> {
    let base_cfg = short_pass(a.seconds, false, a.seconds / 8.0);
    let base = run_pass(w, base_cfg)?;
    header(w, a, &base);
    let mut values = metrics::free_layer(&base);
    notes(&base, &base_cfg);
    let traced_cfg = short_pass(a.seconds, true, 0.0);
    let traced = run_pass(w, traced_cfg)?;
    notes(&traced, &traced_cfg);
    values.extend(analyze::traced_layer(w, &traced));
    let untraced_cpu = metrics::broker_cpu(&base);
    values.insert(
        "trace.overhead_pct",
        (metrics::broker_cpu(&traced) / untraced_cpu - 1.0) * 100.0,
    );
    values.insert(
        "sim.observer_cpu_pct",
        (untraced_cpu / no_observer_cpu(w, a)? - 1.0) * 100.0,
    );
    values.extend(replay::replay_layers(w)?);
    let spans = store::out_dir().join(format!("{}.spans.ndjson", w.spec.name));
    analyze::write_spans(&spans, traced.traces.as_ref().expect("traced pass"))
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    println!("# spans written to {}", spans.display());
    print_values(&PER_LAYER, &values);
    result_line(
        base.correct() && traced.correct(),
        base.attempted + traced.attempted,
        base.failures.total() + traced.failures.total(),
        &PER_LAYER,
        &values,
    )
}

/// `broker_cpu_us_per_event` of an untraced run of the same length on
/// the build without the `trace` feature, which `run.sh` leaves next to
/// this executable.
fn no_observer_cpu(w: &Workload, a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let leg = exe.with_file_name("gryphon-benchmark-noobs");
    let seconds = (a.seconds / 4.0).max(3.0);
    let run = child_run(&leg, w.spec.name, a.seed, seconds, false)
        .map_err(|e| format!("{}: {e} (build it with run.sh)", leg.display()))?;
    if !run.correct {
        return Err(format!("no-observer leg failed:\n{}", run.report));
    }
    run.values
        .iter()
        .find(|(name, _)| name == "broker_cpu_us_per_event")
        .map(|&(_, v)| v)
        .ok_or("no-observer leg printed no broker_cpu_us_per_event".to_owned())
}

/// Who ran what on what, as one JSON line ahead of the report.
fn header(w: &Workload, a: &Args, pass: &Pass) {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    println!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"subs\": {}, \"payload_bytes\": {}, \"events_per_s\": {}, \"nproc\": {}, \"medium\": \"{}\", \"commit\": \"{}\", \"pinned\": {}, \"keepawake_idle_class\": {}}}}}",
        w.spec.name,
        a.seed,
        a.seconds,
        a.trace,
        w.spec.subs,
        w.spec.payload,
        crate::gen::RATE,
        std::thread::available_parallelism().map_or(0, usize::from),
        pass.medium,
        commit,
        pass.pinned,
        pass.awake_idle_class,
    );
}

/// Phase lengths, sample counts, how late the generator ran, and what
/// went wrong if anything did.
fn notes(pass: &Pass, cfg: &PassCfg) {
    let (usable, late) = metrics::usable_slices(pass);
    let lat: usize = usable.iter().map(|s| s.lat_us.len()).sum();
    let lag: Vec<u32> = {
        let mut v: Vec<u32> = pass
            .phase(true)
            .flat_map(|s| s.lag_us.iter().copied())
            .collect();
        v.sort_unstable();
        v
    };
    println!(
        "# generator ran late by p50 {} us, p99 {} us, max {} us",
        quantile_sorted(&lag, 0.5),
        quantile_sorted(&lag, 0.99),
        quantile_sorted(&lag, 1.0)
    );
    println!(
        "{{\"pass\": {{\"traced\": {}, \"setups\": {}, \"warm_s\": {}, \"cpu_s\": {}, \"lat_s\": {}, \"cpu_slices\": {}, \"latency_slices\": {}, \"latency_slices_late\": {}, \"latency_slices_used\": {}, \"drain_s\": {:.3}, \"sat_s\": {}, \"events\": {}, \"latency_samples\": {}, \"lag_samples\": {}}}}}",
        cfg.traced,
        pass.setup_s.len(),
        cfg.warm_s,
        cfg.cpu_s,
        cfg.lat_s,
        pass.phase(false).count(),
        pass.phase(true).count(),
        late,
        usable.len(),
        pass.drain_s,
        cfg.sat_s,
        pass.measured_events(),
        lat,
        lag.len(),
    );
    for (k, s) in pass.slices.iter().enumerate() {
        let per_event = |ns: u64| ns as f64 / 1_000.0 / s.events as f64;
        println!(
            "# slice {k} ({}): lat p50 {:.0} p90 {:.0} us | cpu/event phb {:.1} shb {:.1} pool {:.1} driver {:.1} us | lag p99 {} us",
            if s.awake { "latency" } else { "cpu" },
            quantile_sorted(&s.lat_us, 0.5),
            quantile_sorted(&s.lat_us, 0.9),
            per_event(s.phb_ns),
            per_event(s.shb_ns),
            per_event(s.pool_ns),
            per_event(s.driver_ns),
            quantile_sorted(&s.lag_us, 0.99),
        );
    }
    if late > 0 {
        println!(
            "# {late} latency slice(s) late: generator lag p99 above {} us",
            metrics::MAX_SLICE_LAG_P99_US
        );
        let on_time = pass.phase(true).count() - late;
        if on_time < usable.len() {
            println!(
                "# LATENCY NOT MEASURED: only {on_time} slice(s) on time; lat_p50_us and lat_p90_us are from the {} least late slices and say more about the box than about the program",
                usable.len()
            );
        }
    }
    if !pass.awake_idle_class {
        println!("# keep-awake threads could not enter SCHED_IDLE and did not run: latencies include vCPU wake-ups");
    }
    if !pass.pinned {
        println!(
            "# threads could not be pinned: CPU per event depends on where the kernel put them"
        );
    }
    if !pass.correct() {
        println!(
            "# MISMATCH: {:?} watchdog_violations={} ledger_violations={} drained={}",
            pass.failures, pass.watchdog_violations, pass.ledger_violations, pass.drained
        );
    }
}

fn print_values(defs: &[Def], values: &Values) {
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!("{:<34} {:>14.3} {}", d.name, v, d.unit);
        }
    }
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `defs`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &Values,
) -> Result<bool, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .get(d.name)
            .ok_or(format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is {v}", d.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

/// What a child run reported.
struct ChildRun {
    /// `correct` on its result line, and exit code 0.
    correct: bool,
    /// The metrics on its result line.
    values: Vec<(String, f64)>,
    /// Everything it printed.
    report: String,
}

/// Runs one workload in a child process of `exe` (so `rss_peak_mb`
/// starts from a fresh address space) and reads its result line back.
fn child_run(
    exe: &std::path::Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    let Ok(result) = json::parse(report.lines().last().unwrap_or_default()) else {
        return Err(format!(
            "{workload}: no result line (exit {:?})",
            out.status.code()
        ));
    };
    let values = result
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.num()?)))
        .collect();
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        values,
        report,
    })
}

/// A/A self-check: the untraced suite `k` times, then per workload and
/// end-to-end metric the spread of the `k` values and the medians of
/// the two interleaved halves against the metric's bound.
fn repeat(a: &Args, k: usize) -> Result<bool, String> {
    let workloads: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|s| s.name).collect(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    // runs[workload][metric] = one value per repetition
    let mut runs: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
    for (wi, w) in workloads.iter().enumerate() {
        for i in 0..k {
            let run = child_run(&exe, w, a.seed + i as u64, a.seconds, false)?;
            print!("{}", run.report);
            ok &= run.correct;
            for (mi, d) in END_TO_END.iter().enumerate() {
                let v = run
                    .values
                    .iter()
                    .find(|(n, _)| n == d.name)
                    .map(|&(_, v)| v);
                runs[wi][mi].push(v.ok_or(format!("{w}: {} missing", d.name))?);
            }
        }
    }
    println!(
        "\n# A/A over {k} runs per workload (seeds {}..{})",
        a.seed,
        a.seed + k as u64
    );
    println!(
        "{:<14} {:<28} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "range", "iqr", "a/a", "bound"
    );
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, d) in END_TO_END.iter().enumerate() {
            let v = &runs[wi][mi];
            let med = median(v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let iqr = if v.len() >= 2 {
                let (q1, _, q3) = quartiles(v);
                (q3 - q1) / med
            } else {
                0.0
            };
            let half =
                |odd: usize| -> Vec<f64> { v.iter().skip(odd).step_by(2).copied().collect() };
            let (ma, mb) = (median(&half(0)), median(&half(1)));
            let aa = if v.len() >= 2 {
                (ma - mb).abs() / ma.min(mb)
            } else {
                0.0
            };
            let bound = d.bound.expect("end-to-end metrics have bounds");
            // setup_s is exempt from the spread rule, not from a/a.
            let fail = aa > bound || (d.name != "setup_s" && iqr > bound);
            ok &= !fail;
            println!(
                "{:<14} {:<28} {:>10.2} {:>10.2} {:>10.2} {:>7.1}% {:>7.1}% {:>7.1}% {:>5.0}%{}",
                w,
                d.name,
                lo,
                med,
                hi,
                (hi - lo) / med * 100.0,
                iqr * 100.0,
                aa * 100.0,
                bound * 100.0,
                if fail { "  FAIL" } else { "" }
            );
        }
    }
    Ok(ok)
}
