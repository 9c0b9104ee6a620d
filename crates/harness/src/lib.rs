//! Experiment harness: reproduces every table and figure of the paper's
//! evaluation (§5) on the deterministic simulator.
//!
//! Each experiment is a function returning a [`Report`] — a set of
//! printable tables (and optionally raw time series) mirroring what the
//! paper plots. The `xp` binary in `gryphon-bench` runs them:
//!
//! ```text
//! cargo run -p gryphon-bench --bin xp -- fig4
//! ```
//!
//! ## Scaling note
//!
//! The paper ran on 2003-era 6-way RS/6000 servers for hundreds of
//! seconds; we run compressed virtual-time versions (documented per
//! experiment) and reproduce *shapes and ratios*, not absolute numbers.
//! The CPU-cost model in [`gryphon::CostModel`] is calibrated so one SHB
//! saturates at ≈20 K deliveries/s, matching the paper's single-SHB
//! capacity anchor; everything else is emergent.

pub mod bundle;
pub mod doctor;
pub mod report;
pub mod topology;
pub mod trace_export;
pub mod workload;

pub mod experiments {
    //! One module per paper artefact.
    pub mod ablation;
    pub mod fig4;
    pub mod fig56;
    pub mod fig78;
    pub mod jms;
    pub mod latency;
    pub mod mega_subs;
    pub mod pfs_micro;
}

pub use report::{Report, Table};
pub use topology::{RunOptions, System, TopologySpec};
pub use workload::Workload;

/// Every experiment id known to the harness, with a one-line summary.
pub fn catalog() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "latency",
            "§5 result 1: 5-hop end-to-end latency; PHB logging dominates; vs store-and-forward",
        ),
        (
            "fig4",
            "Figure 4: peak event rate, 1 broker / 1–4 SHBs, with and without disconnections",
        ),
        (
            "fig5",
            "Figure 5: catchup durations under periodic disconnection",
        ),
        (
            "fig6",
            "Figure 6: latestDelivered/released advance rates under disconnection",
        ),
        (
            "pfs_micro",
            "§5.1.2: PFS vs per-subscriber event logging microbenchmark (bytes + wall time)",
        ),
        (
            "jms",
            "§5.2: JMS auto-acknowledge peak rates, 25 vs 200 subscribers",
        ),
        (
            "fig7",
            "Figure 7: latestDelivered/released through SHB crash and recovery",
        ),
        (
            "fig8",
            "Figure 8: per-client rates and CPU idle through SHB crash and recovery",
        ),
        (
            "ablation_consol",
            "§5 summary 3: constream consolidation vs all-catchup SHB cost",
        ),
        (
            "ablation_pfs_mode",
            "extension: precise vs imprecise PFS write/read trade-off",
        ),
        (
            "ablation_cache",
            "paper §7 future work: cache window vs catchup rate and PHB load",
        ),
        (
            "mega_subs",
            "DESIGN.md §15: 10^6 durable subscriptions — slab bytes/idle sub, churn, reconnect storm",
        ),
    ]
}

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error string for unknown ids.
pub fn run(id: &str, opts: &RunOptions) -> Result<Report, String> {
    match id {
        "latency" => Ok(experiments::latency::run(opts)),
        "fig4" => Ok(experiments::fig4::run(opts)),
        "fig5" => Ok(experiments::fig56::run_fig5(opts)),
        "fig6" => Ok(experiments::fig56::run_fig6(opts)),
        "pfs_micro" => Ok(experiments::pfs_micro::run(opts)),
        "jms" => Ok(experiments::jms::run(opts)),
        "fig7" => Ok(experiments::fig78::run_fig7(opts)),
        "fig8" => Ok(experiments::fig78::run_fig8(opts)),
        "ablation_consol" => Ok(experiments::ablation::run_consolidation(opts)),
        "ablation_pfs_mode" => Ok(experiments::ablation::run_pfs_mode(opts)),
        "ablation_cache" => Ok(experiments::ablation::run_cache_sweep(opts)),
        "mega_subs" => Ok(experiments::mega_subs::run(opts)),
        other => Err(format!(
            "unknown experiment '{other}'; known: {}",
            catalog()
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    fn quick() -> super::RunOptions {
        super::RunOptions {
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn catalog_ids_all_run() {
        for (id, _) in super::catalog() {
            // Quick mode keeps this test affordable; the point is that
            // every catalogued id dispatches.
            let report = super::run(id, &quick()).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(!report.tables.is_empty(), "{id} produced no tables");
        }
    }

    #[test]
    fn unknown_id_is_an_error() {
        assert!(super::run("nope", &quick()).is_err());
    }
}
