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

/// An experiment: its id, a one-line summary, and the function that
/// runs it.
type Experiment = (&'static str, &'static str, fn(&RunOptions) -> Report);

/// Every experiment; [`catalog`] and [`run`] both read this one table.
const EXPERIMENTS: &[Experiment] = &[
    (
        "latency",
        "§5 result 1: 5-hop end-to-end latency; PHB logging dominates; vs store-and-forward",
        experiments::latency::run,
    ),
    (
        "fig4",
        "Figure 4: peak event rate, 1 broker / 1–4 SHBs, with and without disconnections",
        experiments::fig4::run,
    ),
    (
        "fig5",
        "Figure 5: catchup durations under periodic disconnection",
        experiments::fig56::run_fig5,
    ),
    (
        "fig6",
        "Figure 6: latestDelivered/released advance rates under disconnection",
        experiments::fig56::run_fig6,
    ),
    (
        "pfs_micro",
        "§5.1.2: PFS vs per-subscriber event logging microbenchmark (bytes + wall time)",
        experiments::pfs_micro::run,
    ),
    (
        "jms",
        "§5.2: JMS auto-acknowledge peak rates, 25 vs 200 subscribers",
        experiments::jms::run,
    ),
    (
        "fig7",
        "Figure 7: latestDelivered/released through SHB crash and recovery",
        experiments::fig78::run_fig7,
    ),
    (
        "fig8",
        "Figure 8: per-client rates and CPU idle through SHB crash and recovery",
        experiments::fig78::run_fig8,
    ),
    (
        "ablation_consol",
        "§5 summary 3: constream consolidation vs all-catchup SHB cost",
        experiments::ablation::run_consolidation,
    ),
    (
        "ablation_cache",
        "paper §7 future work: cache window vs catchup rate and PHB load",
        experiments::ablation::run_cache_sweep,
    ),
    (
        "mega_subs",
        "DESIGN.md §15: 10^6 durable subscriptions — slab bytes/idle sub, churn, reconnect storm",
        experiments::mega_subs::run,
    ),
];

/// Every experiment id known to the harness, with a one-line summary.
pub fn catalog() -> Vec<(&'static str, &'static str)> {
    EXPERIMENTS
        .iter()
        .map(|&(id, summary, _)| (id, summary))
        .collect()
}

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error string for unknown ids.
pub fn run(id: &str, opts: &RunOptions) -> Result<Report, String> {
    match EXPERIMENTS.iter().find(|&&(known, _, _)| known == id) {
        Some(&(_, _, run)) => Ok(run(opts)),
        None => Err(format!(
            "unknown experiment '{id}'; known: {}",
            EXPERIMENTS
                .iter()
                .map(|&(id, _, _)| id)
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
