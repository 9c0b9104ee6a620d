//! Printable experiment reports.

use gryphon_sim::codec::csv_escape;
use gryphon_sim::telemetry::{sparkline, Timeline};
use gryphon_sim::{Metrics, MetricsSnapshot};

/// One table of an experiment report.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (usually the paper artefact it reproduces).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifies each cell).
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A complete experiment report: tables, notes and optional raw series.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The experiment id.
    pub id: String,
    /// Rendered tables.
    pub tables: Vec<Table>,
    /// Free-form commentary (paper-vs-measured discussion).
    pub notes: Vec<String>,
    /// Raw `(name, samples)` series for plotting (virtual seconds, value).
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// Snapshot of the run's metrics (attach with
    /// [`Report::attach_metrics`]); a bundle writes it as `metrics.csv`.
    pub metrics: Option<MetricsSnapshot>,
    /// Rendered trace lines (attach with [`Report::attach_trace`]).
    pub trace: Vec<String>,
    /// Time-resolved telemetry timeline (attach with
    /// [`Report::attach_telemetry`]); rendered as sparklines, and
    /// exported stream by stream into a run bundle.
    pub telemetry: Option<Timeline>,
}

impl Report {
    /// Creates an empty report for `id`.
    pub fn new(id: &str) -> Self {
        Report {
            id: id.to_owned(),
            ..Default::default()
        }
    }

    /// Adds a table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Adds a raw series (already reduced to plot points).
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push((name.into(), points));
        self
    }

    /// Snapshots a run's metrics into the report (counters, histogram
    /// percentiles, series summaries).
    pub fn attach_metrics(&mut self, metrics: &Metrics) -> &mut Self {
        self.metrics = Some(MetricsSnapshot::from_metrics(metrics));
        self
    }

    /// Attaches already-rendered trace lines.
    pub fn attach_trace(&mut self, lines: Vec<String>) -> &mut Self {
        self.trace = lines;
        self
    }

    /// Attaches a telemetry timeline (from `Sim::take_telemetry` or
    /// `NetResult::telemetry`).
    pub fn attach_telemetry(&mut self, timeline: Timeline) -> &mut Self {
        self.telemetry = Some(timeline);
        self
    }

    /// The health-alert transitions recorded on the attached timeline
    /// (empty when no timeline is attached or nothing fired).
    pub fn alerts(&self) -> &[gryphon_sim::AlertRecord] {
        self.telemetry
            .as_ref()
            .map(|t| t.alerts())
            .unwrap_or_default()
    }

    /// Renders everything as text.
    pub fn render(&self) -> String {
        let mut out = format!("# experiment: {}\n\n", self.id);
        // Loud and first: a saturated trace ring means the trace tail
        // below is missing records. (Watchdogs and the lineage ledger
        // observe on push, before ring eviction, so *their* numbers
        // remain complete — only the retained records are partial.)
        let dropped = self
            .metrics
            .as_ref()
            .and_then(|m| {
                m.counters
                    .iter()
                    .find(|(n, _)| n == gryphon_sim::names::TRACE_DROPPED)
            })
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        if dropped > 0.0 {
            out.push_str(&format!(
                "!!{0}!!\n!! WARNING: trace ring dropped {dropped:.0} records during this run.\n\
                 !! The trace tail below is incomplete — raise the trace capacity\n\
                 !! (Sim::set_trace_capacity) to retain the full stream.\n!!{0}!!\n\n",
                "=".repeat(68)
            ));
        }
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if !self.series.is_empty() {
            out.push_str("\nseries (first/last points):\n");
            for (name, pts) in &self.series {
                if let (Some(first), Some(last)) = (pts.first(), pts.last()) {
                    out.push_str(&format!(
                        "  {name}: {} points, t={:.1}s v={:.1} .. t={:.1}s v={:.1}\n",
                        pts.len(),
                        first.0,
                        first.1,
                        last.0,
                        last.1
                    ));
                }
            }
        }
        if let Some(m) = &self.metrics {
            out.push_str("\n## metrics\n");
            if !m.histograms.is_empty() {
                let mut t = Table::new(
                    "histograms",
                    &["name", "count", "min", "p50", "p95", "p99", "max"],
                );
                for h in &m.histograms {
                    t.row(&[
                        h.name.clone(),
                        h.count.to_string(),
                        format!("{:.1}", h.min),
                        format!("{:.1}", h.p50),
                        format!("{:.1}", h.p95),
                        format!("{:.1}", h.p99),
                        format!("{:.1}", h.max),
                    ]);
                }
                out.push_str(&t.render());
            }
            if !m.counters.is_empty() {
                let mut t = Table::new("counters", &["name", "value"]);
                for (name, v) in &m.counters {
                    t.row(&[name.clone(), format!("{v:.0}")]);
                }
                out.push_str(&t.render());
            }
        }
        // ALERTS: present whenever the health engine was armed (its
        // primed `health.alert.*` counters mark that) or anything
        // actually fired, so "zero alerts" is a visible statement, not
        // an absence.
        let alerts = self.alerts();
        let armed = self.metrics.as_ref().is_some_and(|m| {
            m.counters
                .iter()
                .any(|(n, _)| n.starts_with("health.alert."))
        });
        if armed || !alerts.is_empty() {
            out.push_str(&format!("\n## ALERTS ({} transitions)\n", alerts.len()));
            if alerts.is_empty() {
                out.push_str("  health engine armed; no alerts fired\n");
            }
            for a in alerts {
                out.push_str(&format!(
                    "  [{:>9.3}s] {:<7} {} on {}: {}\n",
                    a.t_us as f64 / 1e6,
                    a.state.as_str().to_uppercase(),
                    a.rule,
                    a.series,
                    a.detail
                ));
            }
        }
        if let Some(t) = &self.telemetry {
            if !t.is_empty() {
                out.push_str(&format!(
                    "\n## telemetry ({} series, {:.0} ms windows)\n",
                    t.series_names().len(),
                    t.interval_us() as f64 / 1_000.0
                ));
                let width = t.series_names().iter().map(|n| n.len()).max().unwrap_or(0);
                for name in t.series_names() {
                    let samples = t.series(name);
                    let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
                    let (min, max) = values
                        .iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                            (lo.min(v), hi.max(v))
                        });
                    out.push_str(&format!(
                        "  {name:<width$}  {}  min {:.1}  max {:.1}  last {:.1}\n",
                        sparkline(&values, 40),
                        min,
                        max,
                        values.last().copied().unwrap_or(0.0)
                    ));
                }
            }
        }
        if !self.trace.is_empty() {
            // Full dumps go through `xp --trace`; the report itself keeps
            // a readable tail.
            const SHOWN: usize = 20;
            out.push_str(&format!("\n## trace ({} records)\n", self.trace.len()));
            if self.trace.len() > SHOWN {
                out.push_str(&format!(
                    "... ({} earlier records elided)\n",
                    self.trace.len() - SHOWN
                ));
            }
            for line in self.trace.iter().rev().take(SHOWN).rev() {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Dumps all series as CSV (`series,t_seconds,value` lines), RFC 4180
    /// escaped, rows sorted by series name (sample order preserved within
    /// a series).
    pub fn series_csv(&self) -> String {
        let mut out = String::from("series,t_seconds,value\n");
        let mut sorted: Vec<&(String, Vec<(f64, f64)>)> = self.series.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, pts) in sorted {
            let name = csv_escape(name);
            for (t, v) in pts {
                out.push_str(&format!("{name},{t:.3},{v:.3}\n"));
            }
        }
        out
    }
}

/// Formats a float with thousands separators (rates in ev/s).
pub fn fmt_rate(v: f64) -> String {
    if v >= 1_000.0 {
        format!("{:.1}K", v / 1_000.0)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    fn report_renders_notes_and_series() {
        let mut r = Report::new("x");
        r.note("hello");
        r.series("s", vec![(0.0, 1.0), (1.0, 2.0)]);
        let text = r.render();
        assert!(text.contains("note: hello"));
        assert!(text.contains("2 points"));
        let csv = r.series_csv();
        assert!(csv.lines().count() == 3);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(19_800.0), "19.8K");
        assert_eq!(fmt_rate(750.0), "750");
    }

    #[test]
    fn csv_escapes_and_sorts() {
        let mut r = Report::new("x");
        r.series("z,last", vec![(0.0, 1.0)]);
        r.series("a\"first", vec![(0.0, 2.0)]);
        let csv = r.series_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,t_seconds,value");
        // Sorted: the quoted-name series comes first despite insertion order.
        assert_eq!(lines[1], "\"a\"\"first\",0.000,2.000");
        assert_eq!(lines[2], "\"z,last\",0.000,1.000");
    }

    #[test]
    fn metrics_section_renders() {
        let mut m = Metrics::default();
        m.count("phb.log_bytes", 1024.0);
        for v in [10.0, 20.0, 30.0] {
            m.observe("shb.switchover_latency_us", v);
        }
        m.record(1_000, "shb.doubt_width", 5.0);
        let mut r = Report::new("exp");
        r.attach_metrics(&m);

        let text = r.render();
        assert!(text.contains("## metrics"));
        assert!(text.contains("phb.log_bytes"));
        assert!(text.contains("shb.switchover_latency_us"));
    }

    #[test]
    fn dropped_trace_records_raise_a_banner() {
        let mut m = Metrics::default();
        m.count(gryphon_sim::names::TRACE_DROPPED, 17.0);
        let mut r = Report::new("drops");
        r.attach_metrics(&m);
        let text = r.render();
        assert!(text.contains("WARNING: trace ring dropped 17 records"));
        // And no banner when nothing was dropped.
        let mut clean = Report::new("clean");
        clean.attach_metrics(&Metrics::default());
        assert!(!clean.render().contains("WARNING: trace ring dropped"));
    }

    #[test]
    fn telemetry_section_renders_sparklines() {
        let mut t = Timeline::new(500_000);
        for (i, v) in [0.0, 2.0, 9.0, 3.0, 1.0].iter().enumerate() {
            t.record((i as u64 + 1) * 500_000, "telemetry.queue_depth", *v);
        }
        let mut r = Report::new("tl");
        r.attach_telemetry(t);
        let text = r.render();
        assert!(text.contains("## telemetry (1 series, 500 ms windows)"));
        assert!(text.contains("telemetry.queue_depth"));
        assert!(text.contains("max 9.0"));
        assert!(text.contains('█'), "sparkline glyphs present: {text}");
    }

    #[test]
    fn alerts_section_renders_firing_and_armed_quiet() {
        use gryphon_sim::{AlertRecord, AlertState};
        // A fired alert renders in the ALERTS section.
        let mut t = Timeline::new(500_000);
        t.record(500_000, "telemetry.queue_depth", 1.0);
        t.push_alert(AlertRecord {
            t_us: 500_000,
            rule: "catchup_backlog".into(),
            series: "telemetry.catchup_backlog_ticks".into(),
            value: 1234.0,
            threshold: 500.0,
            state: AlertState::Firing,
            detail: "rose 1234 over 4 windows (min 500)".into(),
        });
        let mut r = Report::new("a");
        r.attach_telemetry(t);
        let text = r.render();
        assert!(text.contains("## ALERTS (1 transitions)"), "{text}");
        assert!(text.contains("FIRING"), "{text}");
        assert!(text.contains("catchup_backlog"), "{text}");
        assert_eq!(r.alerts().len(), 1);

        // Armed-but-quiet: primed counters alone produce the section.
        let mut m = Metrics::default();
        m.count("health.alert.catchup_backlog", 0.0);
        let mut quiet = Report::new("q");
        quiet.attach_metrics(&m);
        let text = quiet.render();
        assert!(text.contains("## ALERTS (0 transitions)"), "{text}");
        assert!(text.contains("no alerts fired"), "{text}");

        // Engine off: no section at all.
        let off = Report::new("off");
        assert!(!off.render().contains("## ALERTS"));
        assert!(off.alerts().is_empty());
    }

    #[test]
    fn trace_lines_render() {
        let mut r = Report::new("t");
        r.attach_trace(vec!["[0.001s] shb1 catchup-started p=1".into()]);
        let text = r.render();
        assert!(text.contains("## trace (1 records)"));
        assert!(text.contains("catchup-started"));
    }
}
