//! Chrome/Perfetto trace-event export for run bundles (DESIGN.md §9).
//!
//! `xp doctor export-trace BUNDLE -o trace.json` turns a run's forensics
//! streams into the [trace event format] both `chrome://tracing` and
//! [Perfetto] open directly:
//!
//! * each contention-profiler busy interval becomes a complete (`X`)
//!   slice on its worker's thread track (`tid` = track id, named via
//!   `M` metadata) — `busy`, `dispatch`, `queue`, `commit` and `fsync`
//!   slices visually separate CPU time from queueing from device time;
//! * each tail exemplar becomes an async (`b`/`e`) span per resolved
//!   lineage stage (`log` → `ib_forward` → `shb_ingest` → `deliver`),
//!   all sharing one id per event lineage so the whole end-to-end path
//!   nests on a single async track;
//! * each health-alert transition becomes a global instant (`i`) event.
//!
//! Everything is plain-text JSON assembled line-by-line (no JSON
//! dependency, same discipline as the ndjson codecs), one event per
//! line so the CI validator can check the stream with `awk`.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use gryphon_sim::codec::json_escape as esc;
use gryphon_sim::forensics::{BusyInterval, Exemplar};
use gryphon_sim::AlertRecord;

/// The single process id all tracks live under.
const PID: u32 = 1;

/// Renders the full trace-event JSON array from a bundle's forensics
/// streams. Timestamps are already µs — the native trace-event unit —
/// so values pass through unscaled.
pub fn chrome_trace_json(
    intervals: &[BusyInterval],
    exemplars: &[Exemplar],
    alerts: &[AlertRecord],
) -> String {
    let mut ev: Vec<String> = Vec::new();
    ev.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\
         \"args\":{{\"name\":\"gryphon\"}}}}"
    ));
    // One named thread track per worker seen in the interval stream.
    let mut tracks: Vec<u32> = intervals.iter().map(|iv| iv.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in &tracks {
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{t},\
             \"args\":{{\"name\":\"worker {t}\"}}}}"
        ));
    }
    for iv in intervals {
        ev.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"forensics\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{PID},\"tid\":{}}}",
            esc(iv.kind),
            iv.start_us,
            iv.dur_us.max(1),
            iv.track
        ));
    }
    for ex in exemplars {
        push_exemplar_span(&mut ev, ex);
    }
    for a in alerts {
        ev.push(format!(
            "{{\"name\":\"alert:{}\",\"cat\":\"health\",\"ph\":\"i\",\"ts\":{},\
             \"pid\":{PID},\"tid\":0,\"s\":\"g\",\
             \"args\":{{\"series\":\"{}\",\"state\":\"{}\",\"detail\":\"{}\"}}}}",
            esc(&a.rule),
            a.t_us,
            esc(&a.series),
            a.state.as_str(),
            esc(&a.detail)
        ));
    }
    let mut out = String::from("[\n");
    out.push_str(&ev.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// Emits one async `b`/`e` pair per resolved lineage stage of `ex`, all
/// under a shared per-lineage id so the stages nest on one async track.
/// A stage is emitted only when both of its endpoints resolved; gaps
/// (evicted anchors) shrink the span rather than inventing times.
fn push_exemplar_span(ev: &mut Vec<String>, ex: &Exemplar) {
    let id = format!("p{}t{}", ex.pubend, ex.ts);
    let mut prev = ex.birth_us;
    let stages = [
        ("log", ex.log_us),
        ("ib_forward", ex.forward_us),
        ("shb_ingest", ex.ingest_us),
        ("deliver", Some(ex.t_us)),
    ];
    for (name, anchor) in stages {
        let Some(end) = anchor else {
            continue;
        };
        if let Some(start) = prev {
            let end = end.max(start);
            for (ph, ts) in [("b", start), ("e", end)] {
                ev.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"lineage\",\"ph\":\"{ph}\",\"ts\":{ts},\
                     \"pid\":{PID},\"tid\":0,\"id\":\"{id}\",\
                     \"args\":{{\"series\":\"{}\",\"value_us\":{}}}}}",
                    esc(&ex.series),
                    ex.value
                ));
            }
        }
        prev = Some(end.max(prev.unwrap_or(0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gryphon_sim::forensics::{KIND_BUSY, KIND_COMMIT};
    use gryphon_sim::{AlertState, Exemplar};

    fn sample_exemplar() -> Exemplar {
        Exemplar {
            t_us: 9_000,
            series: "lineage.stage.deliver_us".into(),
            value: 7_700.0,
            pubend: 3,
            ts: 17,
            birth_us: Some(1_000),
            log_us: Some(1_300),
            forward_us: None, // evicted anchor: stage skipped, not faked
            ingest_us: Some(2_500),
        }
    }

    #[test]
    fn export_has_metadata_slices_spans_and_instants() {
        let intervals = vec![
            BusyInterval {
                track: 0,
                kind: KIND_BUSY,
                start_us: 100,
                dur_us: 50,
            },
            BusyInterval {
                track: 2,
                kind: KIND_COMMIT,
                start_us: 400,
                dur_us: 0, // clamped to 1 µs so viewers render it
            },
        ];
        let alerts = vec![AlertRecord {
            t_us: 5_000,
            rule: "deliver_slo".into(),
            series: "lineage.stage.deliver_us.q99".into(),
            state: AlertState::Firing,
            value: 7_700.0,
            threshold: 5_000.0,
            detail: "q99 7700 µs".into(),
        }];
        let json = chrome_trace_json(&intervals, &[sample_exemplar()], &alerts);
        assert!(
            json.starts_with("[\n") && json.ends_with("\n]\n"),
            "array framing"
        );
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"worker 2\""));
        assert!(json.contains("\"ph\":\"X\",\"ts\":100,\"dur\":50,\"pid\":1,\"tid\":0"));
        assert!(
            json.contains("\"ph\":\"X\",\"ts\":400,\"dur\":1"),
            "zero dur clamped"
        );
        assert!(json.contains("\"name\":\"alert:deliver_slo\""));
        assert!(json.contains("\"s\":\"g\""));
        // Async begins and ends balance, and the missing ib_forward
        // anchor drops that stage while keeping the rest of the chain.
        let begins = json.matches("\"ph\":\"b\"").count();
        let ends = json.matches("\"ph\":\"e\"").count();
        assert_eq!(begins, ends);
        assert_eq!(begins, 3, "log, shb_ingest, deliver");
        assert!(!json.contains("\"name\":\"ib_forward\""));
        assert!(json.contains("\"id\":\"p3t17\""));
        // Every event row carries pid and tid (the CI validator's
        // contract), and only known phase letters appear.
        for line in json.lines() {
            if !line.starts_with('{') {
                continue;
            }
            assert!(line.contains("\"pid\":"), "no pid: {line}");
            assert!(line.contains("\"tid\":"), "no tid: {line}");
            let ph = line
                .split("\"ph\":\"")
                .nth(1)
                .and_then(|s| s.chars().next())
                .unwrap();
            assert!("XbeiM".contains(ph), "unknown phase {ph}");
        }
    }

    #[test]
    fn empty_streams_export_metadata_only() {
        let json = chrome_trace_json(&[], &[], &[]);
        assert!(json.contains("process_name"));
        assert!(!json.contains("\"ph\":\"X\""));
        assert!(json.trim_end().ends_with(']'));
    }
}
