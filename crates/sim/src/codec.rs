//! The one record codec: every one-line JSON record this workspace
//! writes or reads — the five ndjson streams of a run bundle, the
//! criterion lines `perf_gate` compares, the flat bundle manifest — goes
//! through the functions here, driven by a per-type field table
//! ([`Record::FIELDS`]).
//!
//! The format is the subset of JSON the writers have always produced:
//! objects with a fixed field order and no insignificant whitespace,
//! unsigned integers, floats (`null` for non-finite, read back as NaN),
//! strings escaped by [`json_escape`], optional trailing integer fields
//! omitted when absent, and one level of nested record arrays. The reader
//! accepts exactly that and names the first field that does not fit, so a
//! bundle re-parses byte-for-byte and garbage fails loudly. The workspace
//! is offline and carries no JSON dependency. The CSV files escape their
//! fields with [`csv_escape`].

use crate::forensics::{intern_kind, BusyInterval, Exemplar};
use crate::health::{AlertRecord, AlertState};
use crate::sketch::{intern_dim, TopKEntry, TopKSnapshot};
use crate::telemetry::Sample;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for inclusion in a JSON string literal: `"` and `\` are
/// backslash-escaped, control characters become `\u00XX`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number; JSON has no NaN or infinity, so
/// non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escapes one CSV field per RFC 4180: a field containing a comma, a
/// quote or a line break is quoted, with interior quotes doubled.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

fn take_u64(s: &mut &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let v = s[..end].parse().ok()?;
    *s = &s[end..];
    Some(v)
}

/// A JSON number, or the `null` that [`json_num`] writes (read as NaN).
fn take_f64(s: &mut &str) -> Option<f64> {
    if let Some(rest) = s.strip_prefix("null") {
        *s = rest;
        return Some(f64::NAN);
    }
    let end = s
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    let v = s[..end].parse().ok()?;
    *s = &s[end..];
    Some(v)
}

/// A string literal including both quotes; only the escapes
/// [`json_escape`] emits are understood.
fn take_string(s: &mut &str) -> Option<String> {
    let body = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *s = &body[i + 1..];
                return Some(out);
            }
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// One field of a record type: its JSON key, how to read it out of a
/// record and how to store a parsed value back.
pub enum Field<R: 'static> {
    /// An unsigned integer.
    U64(&'static str, fn(&R) -> u64, fn(&mut R, u64)),
    /// An unsigned integer that is omitted from the line when `None`.
    OptU64(&'static str, fn(&R) -> Option<u64>, fn(&mut R, u64)),
    /// A float; non-finite values travel as `null` and come back NaN.
    F64(&'static str, fn(&R) -> f64, fn(&mut R, f64)),
    /// A string. The setter returns `false` to reject text outside a
    /// closed vocabulary (an alert's `state`).
    Str(&'static str, fn(&R) -> &str, fn(&mut R, String) -> bool),
    /// A nested array of records: see [`put_list`] and [`take_list`].
    List(
        &'static str,
        fn(&R, &mut String),
        fn(&mut R, &mut &str) -> Result<(), String>,
    ),
}

impl<R> Field<R> {
    fn name(&self) -> &'static str {
        match self {
            Field::U64(n, ..)
            | Field::OptU64(n, ..)
            | Field::F64(n, ..)
            | Field::Str(n, ..)
            | Field::List(n, ..) => n,
        }
    }
}

/// A type with a one-line JSON form, described by its field table.
pub trait Record: Default + 'static {
    /// The stream the type travels in, for error messages (`"alerts"`).
    const STREAM: &'static str;
    /// The fields, in line order.
    const FIELDS: &'static [Field<Self>];
}

/// Appends `rec` as one JSON object (no newline).
pub fn encode<R: Record>(rec: &R, out: &mut String) {
    out.push('{');
    let mut first = true;
    for field in R::FIELDS {
        if matches!(field, Field::OptU64(_, get, _) if get(rec).is_none()) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":", field.name());
        match field {
            Field::U64(_, get, _) => {
                let _ = write!(out, "{}", get(rec));
            }
            Field::OptU64(_, get, _) => {
                let _ = write!(out, "{}", get(rec).unwrap_or_default());
            }
            Field::F64(_, get, _) => out.push_str(&json_num(get(rec))),
            Field::Str(_, get, _) => {
                let _ = write!(out, "\"{}\"", json_escape(get(rec)));
            }
            Field::List(_, put, _) => put(rec, out),
        }
    }
    out.push('}');
}

/// Parses one object off the front of `s`, leaving the rest.
///
/// # Errors
///
/// Names the first field that is missing, out of order or malformed.
pub fn decode<R: Record>(s: &mut &str) -> Result<R, String> {
    let mut rec = R::default();
    *s = s.strip_prefix('{').ok_or("missing {")?;
    let mut first = true;
    for field in R::FIELDS {
        let name = field.name();
        let after_key = (|| {
            let at = if first { *s } else { s.strip_prefix(',')? };
            at.strip_prefix('"')?
                .strip_prefix(name)?
                .strip_prefix("\":")
        })();
        let Some(rest) = after_key else {
            if matches!(field, Field::OptU64(..)) {
                continue;
            }
            return Err(format!("missing {name}"));
        };
        *s = rest;
        first = false;
        let bad = || format!("bad {name}");
        match field {
            Field::U64(_, _, set) | Field::OptU64(_, _, set) => {
                set(&mut rec, take_u64(s).ok_or_else(bad)?)
            }
            Field::F64(_, _, set) => set(&mut rec, take_f64(s).ok_or_else(bad)?),
            Field::Str(_, _, set) => {
                let text = take_string(s).ok_or_else(|| format!("unterminated {name}"))?;
                if !set(&mut rec, text) {
                    return Err(format!("unknown {name}"));
                }
            }
            Field::List(_, _, take) => take(&mut rec, s)?,
        }
    }
    *s = s.strip_prefix('}').ok_or("trailing content")?;
    Ok(rec)
}

/// Appends `items` as a JSON array of objects (the `put` half of a
/// [`Field::List`]).
pub fn put_list<R: Record>(items: &[R], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode(item, out);
    }
    out.push(']');
}

/// Parses a JSON array of objects off the front of `s` (the `take` half
/// of a [`Field::List`]).
///
/// # Errors
///
/// As [`decode`], or when the array is not closed.
pub fn take_list<R: Record>(s: &mut &str) -> Result<Vec<R>, String> {
    *s = s.strip_prefix('[').ok_or("missing [")?;
    let mut out = Vec::new();
    while s.starts_with('{') {
        out.push(decode(s)?);
        if let Some(rest) = s.strip_prefix(',') {
            *s = rest;
        }
    }
    *s = s.strip_prefix(']').ok_or("unterminated list")?;
    Ok(out)
}

/// Renders `records` one object per line.
pub fn to_ndjson<'a, R: Record>(records: impl IntoIterator<Item = &'a R>) -> String {
    let mut out = String::new();
    for rec in records {
        encode(rec, &mut out);
        out.push('\n');
    }
    out
}

/// Parses [`to_ndjson`] output (blank lines are skipped).
///
/// # Errors
///
/// Names the stream, the line and what was wrong with it.
pub fn from_ndjson<R: Record>(text: &str) -> Result<Vec<R>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        let rec = decode(&mut rest).and_then(|rec| {
            if rest.is_empty() {
                Ok(rec)
            } else {
                Err("trailing content".to_owned())
            }
        });
        out.push(
            rec.map_err(|what| format!("{} ndjson line {}: {what}: {line}", R::STREAM, ln + 1))?,
        );
    }
    Ok(out)
}

/// Renders the flat, human-readable object of a bundle manifest: one
/// `"key": value` pair per line. `quoted` values are escaped strings,
/// the others (numbers, booleans) are written bare.
pub fn flat_object(pairs: &[(&str, String, bool)]) -> String {
    let lines: Vec<String> = pairs
        .iter()
        .map(|(key, value, quoted)| {
            if *quoted {
                format!("  \"{key}\": \"{}\"", json_escape(value))
            } else {
                format!("  \"{key}\": {value}")
            }
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Parses [`flat_object`] output into unquoted raw strings.
///
/// # Errors
///
/// Names the first line that is not a `"key": value` pair.
pub fn parse_flat_object(s: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for line in s.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let mut rest = line;
        let key = take_string(&mut rest).ok_or_else(|| format!("expected key line, got {line}"))?;
        let mut value = rest
            .strip_prefix(": ")
            .ok_or_else(|| format!("malformed pair {line}"))?;
        let raw = value;
        let text = match take_string(&mut value) {
            Some(text) if value.is_empty() => text,
            _ => raw.to_owned(),
        };
        out.insert(key, text);
    }
    Ok(out)
}

// The five streams of a run bundle. Each table lists a line's fields in
// the order they are written; nothing else knows the formats.

impl Record for Sample {
    const STREAM: &'static str = "timeline";
    const FIELDS: &'static [Field<Self>] = &[
        Field::Str(
            "series",
            |r| &r.series,
            |r, v| {
                r.series = v;
                true
            },
        ),
        Field::U64("t_us", |r| r.t_us, |r, v| r.t_us = v),
        Field::F64("value", |r| r.value, |r, v| r.value = v),
    ];
}

impl Record for AlertRecord {
    const STREAM: &'static str = "alerts";
    const FIELDS: &'static [Field<Self>] = &[
        Field::U64("t_us", |r| r.t_us, |r, v| r.t_us = v),
        Field::Str(
            "rule",
            |r| &r.rule,
            |r, v| {
                r.rule = v;
                true
            },
        ),
        Field::Str(
            "series",
            |r| &r.series,
            |r, v| {
                r.series = v;
                true
            },
        ),
        Field::F64("value", |r| r.value, |r, v| r.value = v),
        Field::F64("threshold", |r| r.threshold, |r, v| r.threshold = v),
        Field::Str(
            "state",
            |r| r.state.as_str(),
            |r, v| AlertState::parse(&v).map(|s| r.state = s).is_some(),
        ),
        Field::Str(
            "detail",
            |r| &r.detail,
            |r, v| {
                r.detail = v;
                true
            },
        ),
    ];
}

impl Record for Exemplar {
    const STREAM: &'static str = "exemplars";
    const FIELDS: &'static [Field<Self>] = &[
        Field::U64("t_us", |r| r.t_us, |r, v| r.t_us = v),
        Field::Str(
            "series",
            |r| &r.series,
            |r, v| {
                r.series = v;
                true
            },
        ),
        Field::F64("value", |r| r.value, |r, v| r.value = v),
        Field::U64("pubend", |r| r.pubend.into(), |r, v| r.pubend = v as u32),
        Field::U64("ts", |r| r.ts, |r, v| r.ts = v),
        Field::OptU64("birth_us", |r| r.birth_us, |r, v| r.birth_us = Some(v)),
        Field::OptU64("log_us", |r| r.log_us, |r, v| r.log_us = Some(v)),
        Field::OptU64(
            "forward_us",
            |r| r.forward_us,
            |r, v| r.forward_us = Some(v),
        ),
        Field::OptU64("ingest_us", |r| r.ingest_us, |r, v| r.ingest_us = Some(v)),
    ];
}

impl Record for BusyInterval {
    const STREAM: &'static str = "intervals";
    const FIELDS: &'static [Field<Self>] = &[
        Field::U64("track", |r| r.track.into(), |r, v| r.track = v as u32),
        // Unknown kinds collapse to "other" rather than failing.
        Field::Str(
            "kind",
            |r| r.kind,
            |r, v| {
                r.kind = intern_kind(&v);
                true
            },
        ),
        Field::U64("start_us", |r| r.start_us, |r, v| r.start_us = v),
        Field::U64("dur_us", |r| r.dur_us, |r, v| r.dur_us = v),
    ];
}

impl Record for TopKSnapshot {
    const STREAM: &'static str = "topk";
    const FIELDS: &'static [Field<Self>] = &[
        Field::U64("t_us", |r| r.t_us, |r, v| r.t_us = v),
        // Unknown dimensions collapse to "other", like interval kinds.
        Field::Str(
            "dim",
            |r| r.dim,
            |r, v| {
                r.dim = intern_dim(&v);
                true
            },
        ),
        Field::U64("total", |r| r.total, |r, v| r.total = v),
        // Ranked order: count descending, entity ascending on ties.
        Field::List(
            "entries",
            |r, out| put_list(&r.entries, out),
            |r, s| take_list(s).map(|entries| r.entries = entries),
        ),
    ];
}

impl Record for TopKEntry {
    const STREAM: &'static str = "topk";
    const FIELDS: &'static [Field<Self>] = &[
        Field::U64("entity", |r| r.entity, |r, v| r.entity = v),
        Field::U64("count", |r| r.count, |r, v| r.count = v),
        Field::U64("err", |r| r.err, |r, v| r.err = v),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_object_round_trips_and_rejects_garbage() {
        let text = flat_object(&[
            ("schema", "demo/1".to_owned(), true),
            ("quick", "true".to_owned(), false),
            ("note", "a \"quoted\" word".to_owned(), true),
        ]);
        assert_eq!(
            text,
            "{\n  \"schema\": \"demo/1\",\n  \"quick\": true,\n  \
             \"note\": \"a \\\"quoted\\\" word\"\n}\n"
        );
        let parsed = parse_flat_object(&text).unwrap();
        assert_eq!(parsed["schema"], "demo/1");
        assert_eq!(parsed["quick"], "true");
        assert_eq!(parsed["note"], "a \"quoted\" word");
        assert!(parse_flat_object("not json").is_err());
        assert!(parse_flat_object("{\n  \"key\" 1\n}\n").is_err());
    }
    /// One line of one stream: the record, and the exact bytes it must
    /// encode to.
    fn case<R: Record + PartialEq + std::fmt::Debug>(rec: R, line: &str) {
        let text = to_ndjson([&rec]);
        assert_eq!(text, format!("{line}\n"), "{} encoding", R::STREAM);
        let back = from_ndjson::<R>(&text).unwrap();
        assert_eq!(to_ndjson(&back), text, "{} re-export", R::STREAM);
        // NaN != NaN, so compare through Debug, which prints it.
        assert_eq!(format!("{back:?}"), format!("[{rec:?}]"));
        // What every reader rejects: another type's line, content after
        // the closing brace, a cut-off line.
        for garbage in [
            "{\"bogus\":1}".to_owned(),
            format!("{line}x"),
            format!("{line},"),
            line[..line.len() - 1].to_owned(),
        ] {
            let err = from_ndjson::<R>(&garbage).unwrap_err();
            assert!(
                err.starts_with(&format!("{} ndjson line 1: ", R::STREAM)),
                "{err}"
            );
        }
        assert_eq!(from_ndjson::<R>("\n  \n").unwrap().len(), 0);
    }

    /// The five bundle streams through the one codec: exact bytes out,
    /// the same record back, the same bytes on re-export.
    #[test]
    fn every_stream_round_trips_byte_for_byte() {
        use crate::forensics::KIND_COMMIT;
        use crate::sketch::DIM_SUB_LAG;
        // Escapes (quote, backslash, control characters as \u00XX) and
        // a negative value.
        case(
            Sample {
                series: "weird \"name\", with\\ tab\tand bell\u{7}".into(),
                t_us: 500,
                value: -0.75,
            },
            "{\"series\":\"weird \\\"name\\\", with\\\\ tab\\u0009and bell\\u0007\",\
             \"t_us\":500,\"value\":-0.75}",
        );
        // Non-finite values collapse to null and come back NaN.
        case(
            Sample {
                series: "a".into(),
                t_us: 250,
                value: f64::NAN,
            },
            "{\"series\":\"a\",\"t_us\":250,\"value\":null}",
        );
        case(
            AlertRecord {
                t_us: 1_000,
                rule: "queue_depth".into(),
                series: "telemetry.queue_depth".into(),
                value: 2e6,
                threshold: f64::NAN,
                state: AlertState::Cleared,
                detail: "back \"within\" bounds".into(),
            },
            "{\"t_us\":1000,\"rule\":\"queue_depth\",\"series\":\"telemetry.queue_depth\",\
             \"value\":2000000,\"threshold\":null,\"state\":\"cleared\",\
             \"detail\":\"back \\\"within\\\" bounds\"}",
        );
        // Absent anchors are omitted, present ones keep their order.
        case(
            Exemplar {
                t_us: 900,
                series: "lineage.stage.deliver_us".into(),
                value: 1_250.5,
                pubend: 3,
                ts: 41,
                birth_us: Some(100),
                log_us: Some(400),
                forward_us: None,
                ingest_us: Some(700),
            },
            "{\"t_us\":900,\"series\":\"lineage.stage.deliver_us\",\"value\":1250.5,\
             \"pubend\":3,\"ts\":41,\"birth_us\":100,\"log_us\":400,\"ingest_us\":700}",
        );
        case(
            Exemplar {
                t_us: 1,
                series: "s".into(),
                ..Exemplar::default()
            },
            "{\"t_us\":1,\"series\":\"s\",\"value\":0,\"pubend\":0,\"ts\":0}",
        );
        case(
            BusyInterval {
                track: 2,
                kind: KIND_COMMIT,
                start_us: 650,
                dur_us: 250,
            },
            "{\"track\":2,\"kind\":\"commit\",\"start_us\":650,\"dur_us\":250}",
        );
        case(
            TopKSnapshot {
                t_us: 500,
                dim: DIM_SUB_LAG,
                total: 5_010,
                entries: vec![
                    TopKEntry {
                        entity: 42,
                        count: 5_000,
                        err: 0,
                    },
                    TopKEntry {
                        entity: 7,
                        count: 10,
                        err: 2,
                    },
                ],
            },
            "{\"t_us\":500,\"dim\":\"slowest_subs_by_lag\",\"total\":5010,\"entries\":[\
             {\"entity\":42,\"count\":5000,\"err\":0},{\"entity\":7,\"count\":10,\"err\":2}]}",
        );
        case(
            TopKSnapshot {
                t_us: 500,
                dim: DIM_SUB_LAG,
                ..TopKSnapshot::default()
            },
            "{\"t_us\":500,\"dim\":\"slowest_subs_by_lag\",\"total\":0,\"entries\":[]}",
        );
    }

    /// The reader's stated leniencies and refusals, one per line.
    #[test]
    fn reader_collapses_unknown_vocabulary_and_names_what_it_rejects() {
        let odd = from_ndjson::<BusyInterval>(
            "{\"track\":1,\"kind\":\"weird\",\"start_us\":1,\"dur_us\":2}\n",
        )
        .unwrap();
        assert_eq!(odd[0].kind, "other");
        let odd = from_ndjson::<TopKSnapshot>(
            "{\"t_us\":1,\"dim\":\"weird\",\"total\":1,\
             \"entries\":[{\"entity\":1,\"count\":1,\"err\":0}]}\n",
        )
        .unwrap();
        assert_eq!(odd[0].dim, "other");
        let alert = |state: &str| {
            format!(
                "{{\"t_us\":1,\"rule\":\"r\",\"series\":\"s\",\"value\":1,\"threshold\":0,\
                 \"state\":\"{state}\",\"detail\":\"\"}}"
            )
        };
        assert!(from_ndjson::<AlertRecord>(&alert("firing")).is_ok());
        let err = from_ndjson::<AlertRecord>(&alert("smouldering")).unwrap_err();
        assert!(err.contains("unknown state"), "{err}");
        for (line, what) in [
            ("{\"series\":\"a\",\"value\":1,\"t_us\":1}", "missing t_us"),
            ("{\"series\":\"a\",\"t_us\":x,\"value\":1}", "bad t_us"),
            ("{\"series\":\"a\",\"t_us\":1,\"value\":}", "bad value"),
            ("{\"series\":\"a,\"t_us\":1}", "missing t_us"),
            (
                "{\"series\":\"a\\q\",\"t_us\":1,\"value\":1}",
                "unterminated series",
            ),
            (
                "{\"series\":\"a\",\"t_us\":1,\"value\":1,\"extra\":2}",
                "trailing content",
            ),
            ("{\"series\":\"a\", \"t_us\":1,\"value\":1}", "missing t_us"),
        ] {
            let err = from_ndjson::<Sample>(line).unwrap_err();
            assert!(err.contains(what), "{line}: {err}");
        }
        let err =
            from_ndjson::<Sample>("{\"series\":\"a\",\"t_us\":1,\"value\":1}\nnope").unwrap_err();
        assert!(err.starts_with("timeline ndjson line 2: "), "{err}");
    }
}
