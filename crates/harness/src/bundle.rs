//! Run bundles: self-describing artifact directories for one `xp` run
//! (DESIGN.md §9).
//!
//! A bundle is everything a later diagnosis needs, in one directory:
//!
//! ```text
//! <root>/<experiment>/
//!   manifest.json     # flat key/value run metadata + summary counts
//!   metrics.csv       # counters / histogram percentiles / series means
//!   metrics.json      # the same snapshot as JSON
//!   timeline.ndjson   # the windowed telemetry timeline (exact samples)
//!   timeline.csv      # the same timeline as CSV
//!   alerts.ndjson     # health-engine alert transitions (may be empty)
//!   exemplars.ndjson  # tail exemplars with lineage anchors (may be empty)
//!   intervals.ndjson  # contention-profiler busy intervals (may be empty)
//!   topk.ndjson       # per-window top-K attribution snapshots (may be empty)
//!   snapshot.prom     # Prometheus text exposition of the snapshot
//!   report.txt        # the rendered human report
//!   flight/           # flight-recorder post-mortems, when any fired
//! ```
//!
//! `xp --bundle-out DIR` writes one bundle per experiment and `xp
//! doctor` reads them back ([`crate::doctor`]). The formats are the
//! pinned ones the report already exports, all written and read through
//! the one record codec ([`gryphon_sim::codec`]); the manifest is a flat
//! JSON object (no nesting).

use crate::report::Report;
use gryphon_sim::codec;
use gryphon_sim::telemetry::Timeline;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The manifest schema tag bundles are written with; readers reject
/// manifests from a different major shape.
pub const SCHEMA: &str = "gryphon-bundle/1";

/// Run metadata recorded into `manifest.json` alongside the summary
/// counts derived from the report.
#[derive(Debug, Clone, Default)]
pub struct BundleMeta {
    /// Quick (CI-shortened) run.
    pub quick: bool,
    /// Telemetry sampling interval in µs (0 = sampler off).
    pub interval_us: u64,
    /// Seed offset the run was built with (`xp --seed-offset`).
    pub seed_offset: u64,
    /// Whether the deliberate config degrade was armed (`xp --degrade`).
    pub degrade: bool,
}

/// Best-effort current commit from `.git/HEAD` (no git binary, no
/// network): follows one level of `ref:` indirection, returns a
/// shortened hex id, or "unknown" outside a checkout.
fn git_describe() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(s) => s,
        Err(_) => return "unknown".to_owned(),
    };
    let head = head.trim();
    let sha = if let Some(r) = head.strip_prefix("ref: ") {
        match std::fs::read_to_string(Path::new(".git").join(r.trim())) {
            Ok(s) => s.trim().to_owned(),
            Err(_) => return "unknown".to_owned(),
        }
    } else {
        head.to_owned()
    };
    if sha.len() >= 12 && sha.chars().all(|c| c.is_ascii_hexdigit()) {
        sha[..12].to_owned()
    } else {
        "unknown".to_owned()
    }
}

/// Renders the flat manifest object ([`codec::flat_object`]): string and
/// numeric/bool values only — the shape [`read_manifest`] reads back.
fn render_manifest(report: &Report, meta: &BundleMeta) -> String {
    let firing = report
        .alerts()
        .iter()
        .filter(|a| a.state == gryphon_sim::AlertState::Firing)
        .count();
    let (counters, histograms, series) = report
        .metrics
        .as_ref()
        .map(|m| (m.counters.len(), m.histograms.len(), m.series.len()))
        .unwrap_or((0, 0, 0));
    let timeline_series = report
        .telemetry
        .as_ref()
        .map(|t| t.series_names().len())
        .unwrap_or(0);
    let text = |key, v: &str| (key, v.to_owned(), true);
    let bare = |key, v: &dyn std::fmt::Display| (key, v.to_string(), false);
    let fields = [
        text("schema", SCHEMA),
        text("experiment", &report.id),
        text("version", env!("CARGO_PKG_VERSION")),
        text("git", &git_describe()),
        bare("quick", &meta.quick),
        bare("interval_us", &meta.interval_us),
        bare("seed_offset", &meta.seed_offset),
        bare("degrade", &meta.degrade),
        bare("counters", &counters),
        bare("histograms", &histograms),
        bare("series", &series),
        bare("timeline_series", &timeline_series),
        bare("alerts", &report.alerts().len()),
        bare("alerts_firing", &firing),
    ];
    codec::flat_object(&fields)
}

/// Parses a `manifest.json` into unquoted raw strings.
///
/// # Errors
///
/// Returns what was malformed, or that the schema tag is not [`SCHEMA`].
pub fn read_manifest(s: &str) -> Result<BTreeMap<String, String>, String> {
    let out = codec::parse_flat_object(s).map_err(|e| format!("manifest: {e}"))?;
    if out.get("schema").map(String::as_str) != Some(SCHEMA) {
        return Err(format!(
            "manifest: schema {:?} is not {SCHEMA}",
            out.get("schema")
        ));
    }
    Ok(out)
}

/// The flight-recorder subdirectory inside a bundle for `experiment`.
pub fn flight_dir(root: &Path, experiment: &str) -> PathBuf {
    root.join(experiment).join("flight")
}

/// Writes a complete bundle under `root/<report.id>/`, returning the
/// bundle directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bundle(root: &Path, report: &Report, meta: &BundleMeta) -> std::io::Result<PathBuf> {
    let dir = root.join(&report.id);
    std::fs::create_dir_all(dir.join("flight"))?;
    let write = |name: &str, contents: &str| -> std::io::Result<()> {
        let mut f = std::fs::File::create(dir.join(name))?;
        f.write_all(contents.as_bytes())
    };
    write("manifest.json", &render_manifest(report, meta))?;
    write("metrics.csv", &report.metrics_csv())?;
    write("metrics.json", &report.metrics_json())?;
    // A run without a sampler still writes every stream, empty.
    let unsampled = Timeline::default();
    let timeline = report.telemetry.as_ref().unwrap_or(&unsampled);
    write("timeline.ndjson", &timeline.to_ndjson())?;
    write("timeline.csv", &timeline.to_csv())?;
    write("alerts.ndjson", &timeline.alerts_ndjson())?;
    write("exemplars.ndjson", &timeline.exemplars_ndjson())?;
    write("intervals.ndjson", &timeline.intervals_ndjson())?;
    write("topk.ndjson", &timeline.topks_ndjson())?;
    write("snapshot.prom", report.prom.as_deref().unwrap_or(""))?;
    write("report.txt", &report.render())?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_sim::Metrics;

    fn sample_report() -> Report {
        let mut m = Metrics::default();
        m.count("shb.constream_delivered", 500.0);
        m.count("health.alert.catchup_backlog", 0.0);
        for v in [1_000.0, 2_000.0, 3_000.0] {
            m.observe("lineage.stage.deliver_us", v);
        }
        let mut t = Timeline::new(500_000);
        t.record(500_000, "telemetry.queue_depth", 4.0);
        t.record(1_000_000, "telemetry.queue_depth", 6.0);
        let mut r = Report::new("demo");
        r.attach_metrics(&m);
        r.attach_telemetry(t);
        r
    }

    #[test]
    fn bundle_writes_all_artifacts_and_manifest_parses() {
        let root = std::env::temp_dir().join(format!("gryphon-bundle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let report = sample_report();
        let meta = BundleMeta {
            quick: true,
            interval_us: 500_000,
            seed_offset: 7,
            degrade: false,
        };
        let dir = write_bundle(&root, &report, &meta).unwrap();
        assert_eq!(dir, root.join("demo"));
        for f in [
            "manifest.json",
            "metrics.csv",
            "metrics.json",
            "timeline.ndjson",
            "timeline.csv",
            "alerts.ndjson",
            "exemplars.ndjson",
            "intervals.ndjson",
            "topk.ndjson",
            "snapshot.prom",
            "report.txt",
        ] {
            assert!(dir.join(f).exists(), "missing {f}");
        }
        assert!(dir.join("flight").is_dir());
        let manifest =
            read_manifest(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
        assert_eq!(manifest["experiment"], "demo");
        assert_eq!(manifest["quick"], "true");
        assert_eq!(manifest["interval_us"], "500000");
        assert_eq!(manifest["seed_offset"], "7");
        assert_eq!(manifest["alerts"], "0");
        assert!(manifest.contains_key("git"));
        // The timeline written out re-parses to the identical samples.
        let nd = std::fs::read_to_string(dir.join("timeline.ndjson")).unwrap();
        let parsed = Timeline::from_ndjson(&nd, 500_000).unwrap();
        assert_eq!(
            parsed.series("telemetry.queue_depth"),
            &[(500_000, 4.0), (1_000_000, 6.0)]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_reader_rejects_wrong_schema() {
        assert!(read_manifest("{\n  \"schema\": \"other/9\"\n}\n").is_err());
        assert!(read_manifest("not json").is_err());
    }
}
