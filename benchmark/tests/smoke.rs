//! Smoke test: every workload passes the oracle at its rate, the names
//! the benchmark prints are the names `BENCHMARK.json` declares, and the
//! traced pass's stage budget tiles the end-to-end latency.
//!
//! One test function on purpose: the passes need the machine's two cores
//! to themselves, and `cargo test` would run separate tests in parallel.

use gryphon_benchmark::gen::{Workload, WORKLOADS};
use gryphon_benchmark::json::{self, Json};
use gryphon_benchmark::metrics::{self, Def, Values, END_TO_END, PER_LAYER};
use gryphon_benchmark::run::{run_pass, PassCfg};
use gryphon_benchmark::{analyze, replay};
use std::collections::BTreeSet;

fn names(defs: &[Def]) -> BTreeSet<&'static str> {
    defs.iter().map(|d| d.name).collect()
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(key)
        .expect(key)
        .items()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_owned();
            (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::num),
            )
        })
        .collect()
}

fn check_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Json::str).unwrap_or_default().to_owned();
            (s("name"), s("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|s| (s.name.to_owned(), s.why.to_owned()))
        .collect();
    assert_eq!(workloads, ours, "workloads in BENCHMARK.json");
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let ours: Vec<_> = defs
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.to_owned(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(declared(&doc, key), ours, "{key} in BENCHMARK.json");
    }
    let ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.bytes()
                .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
    };
    for n in WORKLOADS
        .iter()
        .map(|s| s.name)
        .chain(names(&END_TO_END))
        .chain(names(&PER_LAYER))
    {
        assert!(ok(n), "name {n}");
    }
    assert_eq!(
        names(&END_TO_END).len() + names(&PER_LAYER).len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names used once"
    );
}

fn short(traced: bool, sat_s: f64) -> PassCfg {
    PassCfg {
        traced,
        setups: 1,
        warm_s: 0.5,
        cpu_s: 1.0,
        lat_s: 1.0,
        sat_s,
    }
}

#[test]
fn workloads_pass_the_oracle_and_names_match_the_contract() {
    check_benchmark_json();

    let mut layer = Values::new();
    for spec in WORKLOADS {
        let w = Workload::new(spec, 11);
        // The saturation phase is exercised once, on the first workload.
        let sat_s = if spec.name == "fanout" { 0.5 } else { 0.0 };
        let pass = run_pass(&w, short(false, sat_s)).expect(spec.name);
        assert!(pass.drained, "{}: drain deadline", spec.name);
        assert_eq!(
            pass.failures.total(),
            0,
            "{}: {:?}",
            spec.name,
            pass.failures
        );
        assert_eq!(pass.watchdog_violations, 0.0, "{}", spec.name);
        assert_eq!(pass.ledger_violations, 0, "{}", spec.name);
        assert!(pass.attempted > 0);
        let e2e = metrics::end_to_end(&pass);
        assert_eq!(
            e2e.keys().copied().collect::<BTreeSet<_>>(),
            names(&END_TO_END)
        );
        assert!(e2e.values().all(|v| *v > 0.0), "{}: {e2e:?}", spec.name);
        if spec.name == "fanout" {
            layer.extend(metrics::free_layer(&pass));
        }
    }

    let w = Workload::new(WORKLOADS[0], 11);
    let traced = run_pass(&w, short(true, 0.0)).expect("traced fanout");
    assert!(traced.correct());
    layer.extend(analyze::traced_layer(&w, &traced));
    layer.extend(replay::replay_layers(&w).expect("replays"));
    // The two ratios the command line adds from a second build.
    layer.insert("trace.overhead_pct", 0.0);
    layer.insert("sim.observer_cpu_pct", 0.0);
    assert_eq!(
        layer.keys().copied().collect::<BTreeSet<_>>(),
        names(&PER_LAYER)
    );
    let tiling = layer["stage.sum_over_e2e"];
    assert!(
        (0.90..=1.10).contains(&tiling),
        "stage.sum_over_e2e = {tiling}"
    );
    assert!(layer["stage.joined_deliveries"] > 50_000.0);
    // 200 us holds with the vCPUs kept awake (p50 is about 70 us); a box
    // that refuses SCHED_IDLE wakes its sleepers later than that.
    if traced.awake_idle_class {
        assert!(
            layer["gen.lag_p50_us"] < 200.0,
            "gen.lag_p50_us = {}",
            layer["gen.lag_p50_us"]
        );
    }
}
