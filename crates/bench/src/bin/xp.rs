//! `xp` — regenerates the paper's tables and figures.
//!
//! ```text
//! xp [--quick] [--csv DIR] [--trace] [--bundle-out DIR] [--sample-interval MS]
//!    [--seed-offset N] [--degrade] [--slow-sub] [--subs N] <experiment>|all|list
//! xp doctor inspect BUNDLE [--exemplars] [--topk]
//! xp doctor check BUNDLE
//! xp doctor diff A B [--threshold-pct P] [--abs-floor-us US]
//! xp doctor export-trace BUNDLE -o trace.json
//! ```
//!
//! * `list` prints the catalog;
//! * `all` runs every experiment in order;
//! * `--quick` runs shortened virtual-time versions (CI-friendly);
//! * `--csv DIR` additionally dumps each experiment's raw series as CSV
//!   files for plotting;
//! * `--trace` prints the full structured trace ring after each report
//!   (the report itself only shows the tail);
//! * `--bundle-out DIR` writes a complete self-describing run bundle per
//!   experiment under `DIR/<id>/` — manifest, metrics CSV, telemetry
//!   timeline, alerts, tail exemplars, busy intervals, top-K snapshots,
//!   report, flight-recorder post-mortems (DESIGN.md §9). It is the one
//!   output flag: it arms the sampler (500 ms unless `--sample-interval`
//!   says otherwise), the online health engine and the flight recorder,
//!   and everything else — a Chrome trace included — is read back out
//!   of a bundle with `xp doctor`;
//! * `--sample-interval MS` arms the windowed telemetry sampler — with
//!   the health engine, forensics and the sketch — on every simulator
//!   at the given virtual-time interval (milliseconds, at least 1);
//!   reports then include a sparkline timeline section;
//! * `--seed-offset N` shifts every simulator seed by N (same workload,
//!   different randomness — for A/B bundles fed to `xp doctor diff`);
//! * `--degrade` deliberately worsens the broker config: triple PHB
//!   commit latency (CI uses it to prove `xp doctor diff` catches real
//!   regressions);
//! * `--slow-sub` plants one slow consumer in `mega_subs`;
//! * `--subs N` overrides the `mega_subs` durable-subscription
//!   population (default 10^6, or 20 000 under `--quick`);
//! * `xp doctor inspect|diff|check|export-trace` analyses bundles
//!   offline — see `gryphon_harness::doctor`.

use gryphon_harness::RunOptions;
use std::io::Write;

const USAGE: &str = "usage: xp [--quick] [--csv DIR] [--trace] [--bundle-out DIR] \
     [--sample-interval MS] [--seed-offset N] [--degrade] [--slow-sub] [--subs N] \
     <experiment>|all|list\n\
     \x20      xp doctor inspect BUNDLE [--exemplars] [--topk]\n\
     \x20      xp doctor check BUNDLE\n\
     \x20      xp doctor diff A B [--threshold-pct P] [--abs-floor-us US]\n\
     \x20      xp doctor export-trace BUNDLE -o trace.json";

/// The value of flag `flag`, parsed; exits with a usage error without one.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires {what} argument");
        std::process::exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("doctor") {
        std::process::exit(gryphon_harness::doctor::run(&argv[1..]));
    }
    let mut run = RunOptions::default();
    let mut trace = false;
    let mut csv_dir: Option<String> = None;
    let mut bundle_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => run.quick = true,
            "--trace" => trace = true,
            "--csv" => csv_dir = Some(value(&mut args, "--csv", "a directory")),
            "--bundle-out" => bundle_dir = Some(value(&mut args, "--bundle-out", "a directory")),
            "--sample-interval" => {
                let ms: std::num::NonZeroU64 =
                    value(&mut args, "--sample-interval", "a positive milliseconds");
                run.sample_interval_us = Some(ms.get().saturating_mul(1_000));
            }
            "--seed-offset" => run.seed_offset = value(&mut args, "--seed-offset", "an integer"),
            "--degrade" => run.degrade = true,
            "--slow-sub" => run.slow_sub = true,
            "--subs" => run.mega_subs = Some(value(&mut args, "--subs", "an integer")),
            "--help" | "-h" => {
                println!("{USAGE}");
                print_catalog();
                return;
            }
            other => targets.push(other.to_owned()),
        }
    }
    if targets.is_empty() {
        eprintln!("{USAGE}");
        print_catalog();
        std::process::exit(2);
    }
    // A bundle needs the sampler armed even without an explicit
    // interval (500 ms windows match the experiments' timescales).
    if bundle_dir.is_some() {
        run.sample_interval_us.get_or_insert(500_000);
    }
    let opts = Options {
        run,
        trace,
        csv_dir,
        bundle_dir,
    };
    for target in targets {
        match target.as_str() {
            "list" => print_catalog(),
            "all" => {
                for (id, _) in gryphon_harness::catalog() {
                    run_one(id, &opts);
                }
            }
            id => run_one(id, &opts),
        }
    }
}

struct Options {
    run: RunOptions,
    trace: bool,
    csv_dir: Option<String>,
    bundle_dir: Option<String>,
}

fn print_catalog() {
    println!("experiments:");
    for (id, summary) in gryphon_harness::catalog() {
        println!("  {id:<18} {summary}");
    }
}

fn write_file(dir: &str, name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(dir).join(name);
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::File::create(&path).and_then(|mut f| f.write_all(contents.as_bytes()))
    });
    if let Err(e) = result {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    path
}

fn run_one(id: &str, opts: &Options) {
    let started = std::time::Instant::now();
    let mut run = opts.run.clone();
    if let Some(root) = opts.bundle_dir.as_deref() {
        // Flight-recorder post-mortems belong inside this run's bundle.
        run.flight_dir = Some(gryphon_harness::bundle::flight_dir(
            std::path::Path::new(root),
            id,
        ));
    }
    match gryphon_harness::run(id, &run) {
        Ok(report) => {
            println!("{}", report.render());
            if opts.trace && !report.trace.is_empty() {
                println!("full trace ({} records):", report.trace.len());
                for line in &report.trace {
                    println!("{line}");
                }
            }
            println!(
                "[{} completed in {:.1} s wall{}]\n",
                id,
                started.elapsed().as_secs_f64(),
                if run.quick { ", --quick" } else { "" }
            );
            if let Some(dir) = opts.csv_dir.as_deref() {
                if !report.series.is_empty() {
                    let path = write_file(dir, &format!("{id}.csv"), &report.series_csv());
                    println!("[series written to {}]", path.display());
                }
            }
            if let Some(root) = opts.bundle_dir.as_deref() {
                let meta = gryphon_harness::bundle::BundleMeta {
                    quick: run.quick,
                    interval_us: run.sample_interval_us.unwrap_or(0),
                    seed_offset: run.seed_offset,
                    degrade: run.degrade,
                };
                match gryphon_harness::bundle::write_bundle(
                    std::path::Path::new(root),
                    &report,
                    &meta,
                ) {
                    Ok(dir) => println!("[bundle written to {}]", dir.display()),
                    Err(e) => {
                        eprintln!("error: cannot write bundle for {id}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
