//! Time-resolved telemetry: windowed sampling of gauges and counter
//! rates into a deterministic in-memory timeline (DESIGN.md §9).
//!
//! End-of-run snapshots (metrics, lineage, the `metrics.csv` rows) cannot
//! show the paper's *dynamics* — doubt-horizon width, catchup backlog
//! and queue depth all spike around failures and drain afterwards. The
//! [`Sampler`] closes that gap: on a fixed interval (virtual time under
//! [`Sim`](crate::Sim), wall time under `gryphon-net`) it snapshots
//! every registered gauge and converts every counter into a per-window
//! rate, appending to a [`Timeline`] that exports as ndjson or an ASCII
//! sparkline block.
//!
//! Sampling never feeds back into the run: the simulator fires samples
//! between scheduler events without enqueueing anything, so traces and
//! deliveries stay bit-identical with the sampler on or off (the
//! `golden_determinism` suite asserts this).
//!
//! # Shard suffixes and aggregates
//!
//! Gauge publishers that exist per entity append a shard suffix to the
//! registered base name: `.w<i>` per worker, `.n<i>` per node, `.p<i>`
//! per pubend (possibly chained, e.g.
//! `telemetry.doubt_width_ticks.n3.p1`). The sampler records each
//! suffixed series verbatim *and* derives the unsuffixed base series as
//! the sum over shards, so `telemetry.catchup_backlog_ticks` is always
//! present as the run-wide backlog no matter how many SHBs publish it.

use std::collections::BTreeMap;

use crate::codec;
use crate::forensics::{BusyInterval, Exemplar};
use crate::health::AlertRecord;
use crate::metrics::{Histogram, Metrics};
use crate::ring::Ring;
use crate::sketch::TopKSnapshot;

/// Bound on resolved tail exemplars a timeline retains (oldest evicted
/// first; see [`Timeline::push_exemplar`]).
pub const TIMELINE_EXEMPLAR_CAP: usize = 4_096;

/// Bound on busy intervals a timeline retains (oldest evicted first; see
/// [`Timeline::push_interval`]).
pub const TIMELINE_INTERVAL_CAP: usize = 131_072;

/// Bound on top-K snapshots a timeline retains (oldest evicted first;
/// see [`Timeline::push_topk`]).
pub const TIMELINE_TOPK_CAP: usize = 8_192;

/// One point of a sample series: a line of `timeline.ndjson`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Sample {
    pub(crate) series: String,
    pub(crate) t_us: u64,
    pub(crate) value: f64,
}

/// A deterministic in-memory time series store: one sample vector per
/// series name, ordered by sample time, plus the structured health
/// alerts raised while the timeline was collected (kept separate from
/// the sample series so sample exports stay pure), plus the bounded
/// forensics streams (tail exemplars, busy intervals, top-K snapshots) —
/// also separate, so `to_ndjson` stays sample-only.
#[derive(Debug, Clone)]
pub struct Timeline {
    interval_us: u64,
    series: BTreeMap<String, Vec<(u64, f64)>>,
    alerts: Vec<AlertRecord>,
    exemplars: Ring<Exemplar>,
    intervals: Ring<BusyInterval>,
    topks: Ring<TopKSnapshot>,
}

impl Default for Timeline {
    fn default() -> Timeline {
        Timeline::new(0)
    }
}

impl Timeline {
    /// An empty timeline tagged with its sampling interval.
    pub fn new(interval_us: u64) -> Timeline {
        Timeline {
            interval_us,
            series: BTreeMap::new(),
            alerts: Vec::new(),
            exemplars: Ring::new(TIMELINE_EXEMPLAR_CAP),
            intervals: Ring::new(TIMELINE_INTERVAL_CAP),
            topks: Ring::new(TIMELINE_TOPK_CAP),
        }
    }

    /// The sampling interval this timeline was collected at.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Appends a `(t_us, value)` sample to `name`.
    pub fn record(&mut self, t_us: u64, name: &str, value: f64) {
        self.series
            .entry(name.to_owned())
            .or_default()
            .push((t_us, value));
    }

    /// All series names (sorted).
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// The samples of series `name` (empty if never recorded).
    pub fn series(&self, name: &str) -> &[(u64, f64)] {
        self.series.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Appends a structured health-alert transition. Alerts live next
    /// to — not inside — the sample series: `to_ndjson` stays
    /// sample-only and alerts export via
    /// [`alerts_ndjson`](Timeline::alerts_ndjson).
    pub fn push_alert(&mut self, alert: AlertRecord) {
        self.alerts.push(alert);
    }

    /// The health-alert transitions recorded so far, in time order.
    pub fn alerts(&self) -> &[AlertRecord] {
        &self.alerts
    }

    /// Appends a resolved tail exemplar; returns the number evicted past
    /// [`TIMELINE_EXEMPLAR_CAP`] (0 or 1) for `forensics.exemplar_dropped`.
    pub fn push_exemplar(&mut self, ex: Exemplar) -> u64 {
        self.exemplars.push(ex);
        self.exemplars.take_dropped()
    }

    /// The resolved tail exemplars, oldest first.
    pub fn exemplars(&self) -> impl ExactSizeIterator<Item = &Exemplar> {
        self.exemplars.iter()
    }

    /// Appends a busy interval; returns the number evicted past
    /// [`TIMELINE_INTERVAL_CAP`] (0 or 1) for `forensics.interval_dropped`.
    pub fn push_interval(&mut self, iv: BusyInterval) -> u64 {
        self.intervals.push(iv);
        self.intervals.take_dropped()
    }

    /// The recorded busy intervals, oldest first.
    pub fn intervals(&self) -> impl ExactSizeIterator<Item = &BusyInterval> {
        self.intervals.iter()
    }

    /// Appends one window's top-K snapshot; returns the number evicted
    /// past [`TIMELINE_TOPK_CAP`] (0 or 1) for `forensics.topk_dropped`.
    pub fn push_topk(&mut self, snap: TopKSnapshot) -> u64 {
        self.topks.push(snap);
        self.topks.take_dropped()
    }

    /// The recorded top-K snapshots, oldest first.
    pub fn topks(&self) -> impl ExactSizeIterator<Item = &TopKSnapshot> {
        self.topks.iter()
    }

    /// Total sample count across all series.
    pub fn len(&self) -> usize {
        self.series.values().map(|v| v.len()).sum()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds `other` into `self`, re-sorting each series by sample time.
    ///
    /// The sort is stable, so when shards carry equal timestamps the
    /// merged order is the merge-call order — merging per-worker
    /// timelines in worker-index order therefore yields one canonical
    /// result regardless of thread interleaving.
    pub fn merge(&mut self, other: &Timeline) {
        if self.interval_us == 0 {
            self.interval_us = other.interval_us;
        }
        for (name, samples) in &other.series {
            let s = self.series.entry(name.clone()).or_default();
            s.extend_from_slice(samples);
            s.sort_by_key(|&(t, _)| t);
        }
        self.alerts.extend(other.alerts.iter().cloned());
        self.alerts.sort_by_key(|a| a.t_us);
        self.exemplars
            .merge_by(other.exemplars.iter().cloned(), |a, b| {
                a.t_us.cmp(&b.t_us).then_with(|| a.series.cmp(&b.series))
            });
        self.intervals
            .merge_by(other.intervals.iter().copied(), |a, b| {
                (a.start_us, a.track).cmp(&(b.start_us, b.track))
            });
        self.topks.merge_by(other.topks.iter().cloned(), |a, b| {
            (a.t_us, a.dim).cmp(&(b.t_us, b.dim))
        });
    }

    /// Renders every sample as one JSON object per line, sorted by
    /// series name then time: `{"series":"…","t_us":N,"value":V}`.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (name, samples) in &self.series {
            let mut rec = Sample {
                series: name.clone(),
                ..Sample::default()
            };
            for &(t_us, value) in samples {
                (rec.t_us, rec.value) = (t_us, value);
                codec::encode(&rec, &mut out);
                out.push('\n');
            }
        }
        out
    }

    /// Parses a timeline back from [`to_ndjson`](Timeline::to_ndjson)
    /// output — the doctor's bundle-reader path. Rust's float `Display`
    /// is shortest-round-trip, so a parse of an export reproduces the
    /// original samples bit-for-bit (`null` values come back as NaN,
    /// matching what `to_ndjson` collapsed them from).
    ///
    /// `interval_us` is not stored in the ndjson stream; callers supply
    /// it from the bundle manifest.
    pub fn from_ndjson(s: &str, interval_us: u64) -> Result<Timeline, String> {
        let mut t = Timeline::new(interval_us);
        for sample in codec::from_ndjson::<Sample>(s)? {
            t.record(sample.t_us, &sample.series, sample.value);
        }
        Ok(t)
    }

    /// The alert log, one JSON object per line in time order (the
    /// bundle's `alerts.ndjson`).
    pub fn alerts_ndjson(&self) -> String {
        codec::to_ndjson(&self.alerts)
    }

    /// The exemplar log in retained order (`exemplars.ndjson`).
    pub fn exemplars_ndjson(&self) -> String {
        codec::to_ndjson(self.exemplars.iter())
    }

    /// The busy-interval log in retained order (`intervals.ndjson`).
    pub fn intervals_ndjson(&self) -> String {
        codec::to_ndjson(self.intervals.iter())
    }

    /// The top-K snapshot log in retained order (`topk.ndjson`).
    pub fn topks_ndjson(&self) -> String {
        codec::to_ndjson(self.topks.iter())
    }
}

/// Renders `values` as a fixed-palette ASCII sparkline, resampled by
/// bucket mean to at most `width` glyphs. Flat series render as a line
/// of mid-height blocks rather than dividing by a zero range.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    // Resample to ≤ width columns: mean of each equal span.
    let cols = width.min(values.len());
    let mut sampled = Vec::with_capacity(cols);
    for c in 0..cols {
        let lo = c * values.len() / cols;
        let hi = ((c + 1) * values.len() / cols).max(lo + 1);
        let span = &values[lo..hi];
        sampled.push(span.iter().sum::<f64>() / span.len() as f64);
    }
    let min = sampled.iter().copied().fold(f64::INFINITY, f64::min);
    let max = sampled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    sampled
        .iter()
        .map(|&v| {
            if !(max - min).is_normal() {
                GLYPHS[3]
            } else {
                let frac = ((v - min) / (max - min)).clamp(0.0, 1.0);
                GLYPHS[((frac * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Strips trailing shard segments (`.w<i>`, `.n<i>`, `.p<i>`, chained)
/// from a gauge name; `None` when the name carries no shard suffix.
///
/// ```
/// use gryphon_sim::telemetry::strip_shard_suffix;
/// assert_eq!(
///     strip_shard_suffix("telemetry.doubt_width_ticks.n3.p1"),
///     Some("telemetry.doubt_width_ticks")
/// );
/// assert_eq!(strip_shard_suffix("telemetry.queue_depth"), None);
/// ```
pub fn strip_shard_suffix(name: &str) -> Option<&str> {
    let mut base = name;
    while let Some((head, tail)) = base.rsplit_once('.') {
        let mut chars = tail.chars();
        let is_shard = matches!(chars.next(), Some('w' | 'n' | 'p'))
            && chars.clone().next().is_some()
            && chars.all(|c| c.is_ascii_digit());
        if !is_shard || head.is_empty() {
            break;
        }
        base = head;
    }
    (base.len() < name.len()).then_some(base)
}

/// The registered base name a timeline series derives from: strips a
/// `.rate` suffix (counter-rate series) or a `.q<digits>` suffix
/// (windowed histogram quantile series, e.g.
/// `lineage.stage.deliver_us.q99`), then any shard segments.
pub fn series_base_name(series: &str) -> &str {
    let stem = series.strip_suffix(".rate").unwrap_or(series);
    let stem = match stem.rsplit_once('.') {
        Some((head, tail))
            if tail.len() > 1
                && tail.starts_with('q')
                && tail[1..].chars().all(|c| c.is_ascii_digit()) =>
        {
            head
        }
        _ => stem,
    };
    strip_shard_suffix(stem).unwrap_or(stem)
}

/// Windowed sampler: every `interval_us` it snapshots all gauges and
/// turns counter deltas into per-second rates, appending to a
/// [`Timeline`]. The caller owns the clock — the simulator fires due
/// samples between scheduler events; the threaded runtime fires them
/// from a wall-clock thread.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval_us: u64,
    next_at_us: u64,
    last_t_us: u64,
    last_counters: BTreeMap<String, f64>,
    last_histograms: BTreeMap<String, Histogram>,
    timeline: Timeline,
}

impl Sampler {
    /// A sampler firing every `interval_us` (clamped to ≥ 1).
    pub fn new(interval_us: u64) -> Sampler {
        let interval_us = interval_us.max(1);
        Sampler {
            interval_us,
            next_at_us: interval_us,
            last_t_us: 0,
            last_counters: BTreeMap::new(),
            last_histograms: BTreeMap::new(),
            timeline: Timeline::new(interval_us),
        }
    }

    /// Time of the next due sample.
    pub fn next_at_us(&self) -> u64 {
        self.next_at_us
    }

    /// Takes one sample at `t_us` from `metrics`: every gauge becomes a
    /// point on its own series (plus the shard-stripped aggregate sum),
    /// every counter becomes a point on `<name>.rate` holding its
    /// per-second rate over the elapsed window, and every histogram that
    /// saw samples this window contributes `<name>.q50/.q95/.q99`
    /// points from the window-only distribution (cumulative minus the
    /// previous snapshot — see [`Histogram::delta_since`]). The `q`
    /// spelling keeps quantile suffixes disjoint from `.p<i>` pubend
    /// shard suffixes.
    pub fn sample(&mut self, t_us: u64, metrics: &Metrics) {
        let mut aggregates: BTreeMap<&str, f64> = BTreeMap::new();
        for name in metrics.gauge_names() {
            let v = metrics.gauge(name).unwrap_or(0.0);
            self.timeline.record(t_us, name, v);
            if let Some(base) = strip_shard_suffix(name) {
                *aggregates.entry(base).or_insert(0.0) += v;
            }
        }
        let rendered: Vec<(String, f64)> = aggregates
            .into_iter()
            .map(|(base, v)| (base.to_owned(), v))
            .collect();
        for (base, v) in rendered {
            self.timeline.record(t_us, &base, v);
        }
        let dt_s = t_us.saturating_sub(self.last_t_us) as f64 / 1e6;
        for name in metrics.counter_names() {
            let cur = metrics.counter(name);
            let prev = self.last_counters.get(name).copied().unwrap_or(0.0);
            let rate = if dt_s > 0.0 { (cur - prev) / dt_s } else { 0.0 };
            self.timeline.record(t_us, &format!("{name}.rate"), rate);
            self.last_counters.insert(name.to_owned(), cur);
        }
        for name in metrics.histogram_names() {
            let Some(hist) = metrics.histogram(name) else {
                continue;
            };
            let window = match self.last_histograms.get(name) {
                Some(prev) => hist.delta_since(prev),
                None => hist.clone(),
            };
            if window.count() > 0 {
                for (suffix, q) in [("q50", 0.5), ("q95", 0.95), ("q99", 0.99)] {
                    if let Some(v) = window.percentile(q) {
                        self.timeline.record(t_us, &format!("{name}.{suffix}"), v);
                    }
                }
            }
            self.last_histograms.insert(name.to_owned(), hist.clone());
        }
        self.last_t_us = t_us;
        self.next_at_us = t_us.saturating_add(self.interval_us);
    }

    /// The timeline collected so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Mutable access to the timeline, used by the health engine to
    /// attach alert records to the run it judged.
    pub fn timeline_mut(&mut self) -> &mut Timeline {
        &mut self.timeline
    }

    /// Consumes the sampler, yielding its timeline.
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;

    #[test]
    fn sampler_snapshots_gauges_and_counter_rates() {
        let mut m = Metrics::default();
        let mut s = Sampler::new(1_000_000);
        m.set_gauge("telemetry.queue_depth", 4.0);
        m.count("delivered", 100.0);
        s.sample(1_000_000, &m);
        m.set_gauge("telemetry.queue_depth", 9.0);
        m.count("delivered", 50.0);
        s.sample(2_000_000, &m);

        let t = s.timeline();
        assert_eq!(
            t.series("telemetry.queue_depth"),
            &[(1_000_000, 4.0), (2_000_000, 9.0)]
        );
        // First window rate covers t=0..1s (100 events), second 1..2s.
        assert_eq!(
            t.series("delivered.rate"),
            &[(1_000_000, 100.0), (2_000_000, 50.0)]
        );
    }

    #[test]
    fn sharded_gauges_aggregate_to_base_name() {
        let mut m = Metrics::default();
        m.set_gauge("telemetry.queue_depth.w0", 3.0);
        m.set_gauge("telemetry.queue_depth.w1", 5.0);
        m.set_gauge("telemetry.doubt_width_ticks.n3.p1", 7.0);
        let mut s = Sampler::new(500);
        s.sample(500, &m);
        let t = s.timeline();
        assert_eq!(t.series("telemetry.queue_depth"), &[(500, 8.0)]);
        assert_eq!(t.series("telemetry.queue_depth.w1"), &[(500, 5.0)]);
        assert_eq!(t.series("telemetry.doubt_width_ticks"), &[(500, 7.0)]);
    }

    #[test]
    fn shard_suffix_stripping() {
        assert_eq!(strip_shard_suffix("a.b.w12"), Some("a.b"));
        assert_eq!(strip_shard_suffix("a.n3.p4"), Some("a"));
        assert_eq!(strip_shard_suffix("a.b"), None);
        assert_eq!(strip_shard_suffix("a.w"), None); // no digits
        assert_eq!(strip_shard_suffix("a.q4"), None); // unknown kind
        assert_eq!(series_base_name("shb.delivered.rate"), "shb.delivered");
        assert_eq!(
            series_base_name("telemetry.catchup_backlog_ticks.n5"),
            names::TELEMETRY_CATCHUP_BACKLOG_TICKS
        );
        // Quantile suffixes strip like .rate does, and stay disjoint
        // from `.p<i>` pubend shard suffixes.
        assert_eq!(
            series_base_name("lineage.stage.deliver_us.q99"),
            names::LINEAGE_STAGE_DELIVER_US
        );
        assert_eq!(series_base_name("a.q"), "a.q"); // no digits: not a quantile
        assert_eq!(series_base_name("a.p99"), "a"); // pubend shard, not quantile
    }

    #[test]
    fn exports_are_deterministic_and_parseable() {
        let mut t = Timeline::new(250);
        t.record(250, "b", 1.5);
        t.record(500, "b", 2.5);
        t.record(250, "a", f64::NAN);
        let nd = t.to_ndjson();
        assert_eq!(
            nd,
            "{\"series\":\"a\",\"t_us\":250,\"value\":null}\n\
             {\"series\":\"b\",\"t_us\":250,\"value\":1.5}\n\
             {\"series\":\"b\",\"t_us\":500,\"value\":2.5}\n"
        );
    }

    #[test]
    fn timeline_merge_is_worker_index_deterministic() {
        let mut w0 = Timeline::new(100);
        w0.record(100, "x", 1.0);
        w0.record(200, "x", 2.0);
        let mut w1 = Timeline::new(100);
        w1.record(100, "x", 10.0);
        let mut merged = Timeline::new(0);
        merged.merge(&w0);
        merged.merge(&w1);
        // Stable sort: equal timestamps keep merge-call (worker-index)
        // order.
        assert_eq!(merged.series("x"), &[(100, 1.0), (100, 10.0), (200, 2.0)]);
        assert_eq!(merged.interval_us(), 100);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[], 10), "");
        let flat = sparkline(&[3.0, 3.0, 3.0], 10);
        assert_eq!(flat.chars().count(), 3);
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(ramp, "▁▂▃▄▅▆▇█");
        // Resampling caps the width.
        let wide: Vec<f64> = (0..1_000).map(|i| i as f64).collect();
        assert_eq!(sparkline(&wide, 60).chars().count(), 60);
    }

    /// The bundle-format pin: a timeline populated by the sampler and
    /// exported to ndjson re-parses — the doctor's reader path — into
    /// the identical sample store, byte-for-byte on re-export. (The line
    /// format itself is pinned by the codec's table-driven test.)
    #[test]
    fn sampled_timeline_round_trips_through_ndjson() {
        let mut m = Metrics::default();
        m.set_gauge("telemetry.queue_depth.w0", 3.0);
        m.set_gauge("telemetry.queue_depth.w1", 5.0);
        m.set_gauge("telemetry.doubt_width_ticks.n3.p1", 7.25);
        m.count("shb.delivered", 123.0);
        m.observe("lineage.stage.deliver_us", 1_234.5);
        let mut s = Sampler::new(500_000);
        s.sample(500_000, &m);
        m.count("shb.delivered", 77.0);
        m.set_gauge("telemetry.queue_depth.w0", 0.125);
        s.sample(1_000_000, &m);
        let original = s.into_timeline();
        assert!(!original.is_empty());
        assert!(!original.series("telemetry.queue_depth").is_empty());
        assert!(!original.series("shb.delivered.rate").is_empty());

        let nd = original.to_ndjson();
        let parsed = Timeline::from_ndjson(&nd, original.interval_us()).unwrap();
        assert_eq!(parsed.series_names(), original.series_names());
        for name in original.series_names() {
            assert_eq!(parsed.series(name), original.series(name), "series {name}");
        }
        assert_eq!(parsed.to_ndjson(), nd);
    }

    #[test]
    fn sampler_emits_windowed_histogram_quantiles() {
        let mut m = Metrics::default();
        for v in [100.0, 200.0, 300.0] {
            m.observe("lat_us", v);
        }
        let mut s = Sampler::new(1_000_000);
        s.sample(1_000_000, &m);
        // Second window: much slower samples; the windowed q50 must
        // reflect only them, not the cumulative distribution.
        for v in [10_000.0, 20_000.0, 30_000.0] {
            m.observe("lat_us", v);
        }
        s.sample(2_000_000, &m);
        // Third window: no new samples → no new quantile points.
        s.sample(3_000_000, &m);
        let t = s.timeline();
        let q50 = t.series("lat_us.q50");
        assert_eq!(q50.len(), 2, "quiet windows must not emit points");
        assert!(q50[0].1 < 1_000.0, "first window q50 {}", q50[0].1);
        assert!(q50[1].1 > 5_000.0, "second window q50 {}", q50[1].1);
        assert_eq!(t.series("lat_us.q95").len(), 2);
        assert_eq!(t.series("lat_us.q99").len(), 2);
    }

    /// The four record streams live beside the sample series: sample
    /// exports stay sample-only, each stream is bounded by its cap with
    /// evictions reported, and `merge` carries all of them across in
    /// time order.
    #[test]
    fn streams_live_beside_samples_stay_bounded_and_merge() {
        use crate::forensics::{KIND_COMMIT, KIND_DISPATCH};
        use crate::health::AlertState;
        use crate::sketch::DIM_SUB_LAG;
        let mut t = Timeline::new(500);
        t.record(500, "g", 1.0);
        for (t_us, state) in [(1_000, AlertState::Cleared), (500, AlertState::Firing)] {
            t.push_alert(AlertRecord {
                t_us,
                rule: "queue_depth".into(),
                series: "telemetry.queue_depth".into(),
                state,
                ..AlertRecord::default()
            });
        }
        assert_eq!(
            t.push_exemplar(Exemplar {
                t_us: 900,
                series: "lineage.stage.deliver_us".into(),
                ..Exemplar::default()
            }),
            0
        );
        let interval = |kind, start_us| BusyInterval {
            track: 0,
            kind,
            start_us,
            dur_us: 1,
        };
        t.push_interval(interval(KIND_DISPATCH, 700));
        t.push_interval(interval(KIND_COMMIT, 650));
        let topk = |t_us| TopKSnapshot {
            t_us,
            dim: DIM_SUB_LAG,
            total: 1,
            entries: vec![],
        };
        t.push_topk(topk(500));
        assert_eq!(t.to_ndjson().lines().count(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.alerts_ndjson().lines().count(), 2);
        assert_eq!(t.exemplars_ndjson().lines().count(), 1);
        assert_eq!(t.intervals_ndjson().lines().count(), 2);
        assert_eq!(t.topks_ndjson().lines().count(), 1);

        let mut merged = Timeline::default();
        merged.merge(&t);
        assert_eq!(merged.interval_us(), 500);
        assert_eq!(merged.exemplars().len(), 1);
        assert_eq!(merged.topks().len(), 1);
        assert_eq!(merged.alerts()[0].state, AlertState::Firing, "time order");
        assert_eq!(
            merged.intervals().next().unwrap().kind,
            KIND_COMMIT,
            "sorted by start_us"
        );

        let mut evicted = 0;
        for i in 0..(TIMELINE_TOPK_CAP as u64 + 4) {
            evicted += t.push_topk(topk(1_000 + i));
        }
        assert_eq!(t.topks().len(), TIMELINE_TOPK_CAP);
        assert_eq!(evicted, 5);
        assert_eq!(t.topks().next().unwrap().t_us, 1_004);
    }
}
