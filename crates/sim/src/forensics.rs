//! Tail-latency forensics (DESIGN.md §9): bounded exemplar reservoirs
//! that tie histogram tail samples back to concrete lineage spans, and
//! bounded busy-interval rings behind the Perfetto trace export.
//!
//! End-of-run percentiles say *how slow* the tail was; they cannot say
//! *which event* was slow or *where its time went*. The forensics layer
//! closes that gap without perturbing the run:
//!
//! * [`ExemplarReservoir`] — every lineage-stage histogram observation
//!   is offered to a small reservoir. Samples at or above a cached tail
//!   quantile (default q99) survive; when the reservoir is full the
//!   smallest value is displaced so the window's worst offenders always
//!   win. The runtime drains the reservoir each sampler window,
//!   resolves every surviving [`TailSample`] against the live lineage
//!   span, and appends the resulting [`Exemplar`] to the timeline.
//! * [`BusyInterval`] — one record of the contention profiler (dispatch
//!   CPU time, modeled work, commit/fsync slices, queue waits), kept in a
//!   bounded ring (`ring::Ring`): oldest entries are evicted first, so
//!   the ring always holds the most recent history.
//!
//! Both structures are strictly bounded and count what they shed
//! (`forensics.exemplar_dropped` / `forensics.interval_dropped`), and
//! both are pure observers: arming them changes no queue order, no RNG
//! draw, and no scheduling decision, so `golden_determinism` stays
//! bit-identical with forensics on or off.

use crate::lineage::Span;
use crate::metrics::Metrics;
use gryphon_types::LineageKey;

/// Observations a cached tail threshold serves before it is recomputed
/// from the live histogram — a percentile scan walks every bucket, too
/// costly to run per hot-path sample.
const THRESHOLD_REFRESH: u64 = 64;

/// Histogram quantile a sample must reach to qualify as a tail exemplar
/// (computed over the cumulative distribution, refreshed every
/// [`THRESHOLD_REFRESH`] observations per series).
const TAIL_QUANTILE: f64 = 0.99;

/// Minimum cumulative histogram count before a series produces
/// exemplars at all — early on, every sample is "the tail".
const MIN_SAMPLES: u64 = 64;

/// Reservoir bound between sampler windows; beyond it the smallest value
/// is displaced (counted as dropped).
const RESERVOIR: usize = 32;

/// Busy-interval ring bound (oldest evicted, counted as dropped).
pub(crate) const INTERVAL_CAPACITY: usize = 65_536;

/// One histogram observation that landed in the tail, before span
/// resolution. `Copy` and allocation-free on purpose: offering a sample
/// on the hot path must not touch the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSample {
    /// Observation time (virtual µs under the simulator, wall µs since
    /// net epoch under the threaded runtime) — the stage's *end*.
    pub t_us: u64,
    /// The histogram the sample landed in (a `names::LINEAGE_STAGE_*`).
    pub series: &'static str,
    /// The observed value (µs).
    pub value: f64,
    /// The event whose stage this was.
    pub key: LineageKey,
}

/// Per-series cached tail threshold (see [`THRESHOLD_REFRESH`]).
#[derive(Debug, Clone, PartialEq)]
struct CachedThreshold {
    series: &'static str,
    /// Observations since the threshold was last computed.
    stale: u64,
    threshold: f64,
}

/// Bounded keep-the-worst reservoir of tail samples. One lives in each
/// [`Lineage`](crate::Lineage) once armed; the runtimes drain it every
/// sampler window.
#[derive(Debug, Clone, PartialEq)]
pub struct ExemplarReservoir {
    tail_quantile: f64,
    min_samples: u64,
    cap: usize,
    samples: Vec<TailSample>,
    thresholds: Vec<CachedThreshold>,
    dropped: u64,
}

impl ExemplarReservoir {
    /// An empty reservoir of [`RESERVOIR`] samples. Capacity is
    /// preallocated so offers never allocate.
    pub(crate) fn new() -> ExemplarReservoir {
        ExemplarReservoir::with_capacity(RESERVOIR)
    }

    fn with_capacity(cap: usize) -> ExemplarReservoir {
        ExemplarReservoir {
            tail_quantile: TAIL_QUANTILE,
            min_samples: MIN_SAMPLES,
            cap,
            samples: Vec::with_capacity(cap),
            thresholds: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    /// Offers one histogram observation. Call *after* the matching
    /// `metrics.observe(series, value)` so the cumulative distribution
    /// includes the sample; the cached q-threshold decides whether it
    /// qualifies as a tail exemplar.
    pub fn offer(
        &mut self,
        t_us: u64,
        series: &'static str,
        value: f64,
        key: LineageKey,
        metrics: &Metrics,
    ) {
        let slot = match self.thresholds.iter().position(|c| c.series == series) {
            Some(i) => &mut self.thresholds[i],
            None => {
                self.thresholds.push(CachedThreshold {
                    series,
                    stale: THRESHOLD_REFRESH,
                    threshold: f64::INFINITY,
                });
                self.thresholds.last_mut().expect("just pushed")
            }
        };
        slot.stale += 1;
        if slot.stale > THRESHOLD_REFRESH {
            slot.stale = 0;
            slot.threshold = match metrics.histogram(series) {
                Some(h) if h.count() >= self.min_samples => {
                    h.percentile(self.tail_quantile).unwrap_or(f64::INFINITY)
                }
                _ => f64::INFINITY,
            };
        }
        // Strictly above: with discrete latency distributions the
        // quantile often *equals* the mode, and admitting equality
        // would classify the bulk of samples as "tail".
        if value <= slot.threshold {
            return;
        }
        self.push(TailSample {
            t_us,
            series,
            value,
            key,
        });
    }

    /// Admits a qualified sample, displacing the smallest value when
    /// full (first minimum wins on ties — deterministic). The shed
    /// sample, displaced or rejected, counts as dropped either way.
    fn push(&mut self, s: TailSample) {
        if self.samples.len() < self.cap {
            self.samples.push(s);
            return;
        }
        let mut min = 0;
        for (i, cur) in self.samples.iter().enumerate() {
            if cur.value < self.samples[min].value {
                min = i;
            }
        }
        if s.value > self.samples[min].value {
            self.samples[min] = s;
        }
        self.dropped += 1;
    }

    /// Moves another reservoir's samples and drop count into this one
    /// (worker shards into the window's owner, in worker-index order),
    /// leaving `other` empty.
    pub fn absorb(&mut self, other: &mut ExemplarReservoir) {
        for s in std::mem::take(&mut other.samples) {
            self.push(s);
        }
        self.dropped += other.take_dropped();
    }

    /// The samples currently held, in arrival order.
    pub fn samples(&self) -> &[TailSample] {
        &self.samples
    }

    /// Takes all held samples in canonical `(t_us, series, value)`
    /// order, leaving the reservoir empty (capacity retained).
    pub fn drain_sorted(&mut self) -> Vec<TailSample> {
        let mut out = self.samples.clone();
        self.samples.clear();
        out.sort_by(|a, b| {
            a.t_us
                .cmp(&b.t_us)
                .then(a.series.cmp(b.series))
                .then(a.value.total_cmp(&b.value))
        });
        out
    }

    /// Takes (and resets) the count of samples shed under pressure.
    pub fn take_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.dropped)
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A tail sample resolved against its lineage span: self-contained (no
/// live span needed to read it back from a bundle), one per line in
/// `exemplars.ndjson`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exemplar {
    /// Stage-completion time of the captured observation.
    pub t_us: u64,
    /// The histogram the sample landed in.
    pub series: String,
    /// The observed value (µs).
    pub value: f64,
    /// [`LineageKey`] pubend component.
    pub pubend: u32,
    /// [`LineageKey`] tick component.
    pub ts: u64,
    /// Span anchors copied at resolution time (absent when the span was
    /// already evicted or the anchor never fired).
    pub birth_us: Option<u64>,
    /// Durable PHB log anchor.
    pub log_us: Option<u64>,
    /// First IB forward anchor.
    pub forward_us: Option<u64>,
    /// Earliest SHB ingest anchor across nodes.
    pub ingest_us: Option<u64>,
}

impl Exemplar {
    /// Resolves a drained [`TailSample`] against the (possibly already
    /// evicted) lineage span.
    pub fn resolve(s: &TailSample, span: Option<&Span>) -> Exemplar {
        Exemplar {
            t_us: s.t_us,
            series: s.series.to_owned(),
            value: s.value,
            pubend: s.key.pubend.0,
            ts: s.key.ts.0,
            birth_us: span.and_then(Span::birth_us),
            log_us: span.and_then(Span::log_us),
            forward_us: span.and_then(Span::forward_us),
            ingest_us: span.and_then(Span::earliest_ingest_us),
        }
    }

    /// The event this exemplar names.
    pub fn key(&self) -> LineageKey {
        LineageKey::new(
            gryphon_types::PubendId(self.pubend),
            gryphon_types::Timestamp(self.ts),
        )
    }

    /// Two-line human rendering for `doctor inspect`: the claim, then
    /// the stage-by-stage walk (`+N` = µs since the previous anchor).
    pub fn render(&self) -> String {
        let mut stages = String::new();
        let mut prev: Option<u64> = None;
        for (label, anchor) in [
            ("timestamped", self.birth_us),
            ("logged", self.log_us),
            ("forwarded", self.forward_us),
            ("ingested", self.ingest_us),
            ("observed", Some(self.t_us)),
        ] {
            let Some(at) = anchor else {
                continue;
            };
            if !stages.is_empty() {
                stages.push_str(" · ");
            }
            match prev {
                Some(p) => stages.push_str(&format!("{label} +{}", at.saturating_sub(p))),
                None => stages.push_str(&format!("{label} @{at}")),
            }
            prev = Some(at);
        }
        format!(
            "exemplar p{}/t{} {} = {} µs\n    {stages}",
            self.pubend, self.ts, self.series, self.value
        )
    }
}

/// Interval kind: CPU time inside a dispatch (wall-clocked).
pub const KIND_DISPATCH: &str = "dispatch";
/// Interval kind: modeled work charged via `NodeCtx::work` (simulator).
pub const KIND_BUSY: &str = "busy";
/// Interval kind: a PHB commit round trip (batch close → durable).
pub const KIND_COMMIT: &str = "commit";
/// Interval kind: time a message waited in a worker's channel.
pub const KIND_QUEUE: &str = "queue";

/// Interns a parsed interval kind back to its `&'static str` (unknown
/// kinds collapse to `"other"` rather than failing the parse).
pub fn intern_kind(s: &str) -> &'static str {
    match s {
        "dispatch" => KIND_DISPATCH,
        "busy" => KIND_BUSY,
        "commit" => KIND_COMMIT,
        "queue" => KIND_QUEUE,
        _ => "other",
    }
}

/// One busy/wait interval on a track (simulator: node id; threaded
/// runtime: worker index). `Copy` — recording must not allocate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyInterval {
    /// Track the slice belongs to (rendered as a Perfetto thread).
    pub track: u32,
    /// One of the `KIND_*` constants (or `"other"` after a parse).
    pub kind: &'static str,
    /// Interval start (same clock as [`TailSample::t_us`]).
    pub start_us: u64,
    /// Interval length.
    pub dur_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceRecord};
    use gryphon_types::{PubendId, Timestamp};

    fn key(ts: u64) -> LineageKey {
        LineageKey::new(PubendId(0), Timestamp(ts))
    }

    const SERIES: &str = "lineage.stage.deliver_us";

    /// Seeds a histogram whose q99 splits `slow` from the bulk.
    fn seeded_metrics() -> Metrics {
        let mut m = Metrics::default();
        for _ in 0..200 {
            m.observe(SERIES, 100.0);
        }
        m.observe(SERIES, 50_000.0);
        m
    }

    #[test]
    fn reservoir_admits_only_the_tail() {
        let m = seeded_metrics();
        let mut r = ExemplarReservoir::new();
        for i in 0..100 {
            r.offer(i, SERIES, 100.0, key(i), &m);
        }
        assert!(r.is_empty(), "bulk samples below q99 must not qualify");
        r.offer(500, SERIES, 60_000.0, key(500), &m);
        assert_eq!(r.len(), 1);
        let drained = r.drain_sorted();
        assert_eq!(drained[0].value, 60_000.0);
        assert_eq!(drained[0].key, key(500));
        assert!(r.is_empty(), "drain empties the reservoir");
    }

    #[test]
    fn reservoir_respects_min_samples_warmup() {
        let mut m = Metrics::default();
        // Fewer than min_samples observations: nothing qualifies, even
        // a huge value.
        for _ in 0..10 {
            m.observe(SERIES, 100.0);
        }
        let mut r = ExemplarReservoir::new();
        r.offer(1, SERIES, 1e9, key(1), &m);
        assert!(r.is_empty(), "cold histogram produces no exemplars");
    }

    /// The bounded-memory pin: a full reservoir displaces its smallest
    /// value (keep-the-worst), never grows past `cap`, and counts every
    /// shed sample.
    #[test]
    fn reservoir_evicts_under_pressure_and_counts_drops() {
        let m = seeded_metrics();
        let mut r = ExemplarReservoir::with_capacity(4);
        // 10 qualifying samples with increasing values into a 4-slot
        // reservoir: the 4 largest survive, 6 are shed.
        for i in 0..10u64 {
            r.offer(i, SERIES, 50_000.0 + i as f64, key(i), &m);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.take_dropped(), 6);
        let worst: Vec<f64> = r.drain_sorted().iter().map(|s| s.value).collect();
        assert_eq!(worst, vec![50_006.0, 50_007.0, 50_008.0, 50_009.0]);
        // A smaller newcomer into a full reservoir is itself shed.
        for i in 0..4u64 {
            r.offer(i, SERIES, 60_000.0, key(i), &m);
        }
        r.offer(99, SERIES, 55_000.0, key(99), &m);
        assert_eq!(r.len(), 4);
        assert_eq!(r.take_dropped(), 1);
        assert!(r.drain_sorted().iter().all(|s| s.value == 60_000.0));
    }

    #[test]
    fn reservoir_absorb_merges_keeping_worst() {
        let m = seeded_metrics();
        let mut a = ExemplarReservoir::with_capacity(2);
        let mut b = ExemplarReservoir::with_capacity(2);
        a.offer(1, SERIES, 60_000.0, key(1), &m);
        b.offer(2, SERIES, 70_000.0, key(2), &m);
        b.offer(3, SERIES, 80_000.0, key(3), &m);
        a.absorb(&mut b);
        assert!(b.is_empty(), "absorb moves the samples");
        assert_eq!(a.len(), 2);
        assert_eq!(a.take_dropped(), 1, "merge sheds the smallest");
        let vals: Vec<f64> = a.drain_sorted().iter().map(|s| s.value).collect();
        assert_eq!(vals, vec![70_000.0, 80_000.0]);
    }

    #[test]
    fn exemplar_resolves_span_anchors_and_renders_stages() {
        let (p, ts) = (PubendId(0), Timestamp(41));
        let mut lineage = crate::Lineage::default();
        let mut m = Metrics::default();
        for (t_us, node, event) in [
            (1_000, 1, TraceEvent::PubendTimestamped { pubend: p, ts }),
            (
                1_300,
                1,
                TraceEvent::EventLogged {
                    pubend: p,
                    ts,
                    bytes: 8,
                },
            ),
            (2_400, 4, TraceEvent::ShbIngested { pubend: p, ts }),
            (1_900, 3, TraceEvent::ShbIngested { pubend: p, ts }),
        ] {
            let node = gryphon_types::NodeId(node);
            lineage.observe(&TraceRecord { t_us, node, event }, &mut m);
        }
        let span = lineage.span(key(41)).cloned().unwrap();
        let s = TailSample {
            t_us: 3_000,
            series: "lineage.stage.deliver_us",
            value: 2_000.0,
            key: key(41),
        };
        let ex = Exemplar::resolve(&s, Some(&span));
        assert_eq!(ex.birth_us, Some(1_000));
        assert_eq!(ex.log_us, Some(1_300));
        assert_eq!(ex.forward_us, None);
        assert_eq!(ex.ingest_us, Some(1_900), "earliest ingest wins");
        assert_eq!(ex.key(), key(41));
        let text = ex.render();
        assert!(text.contains("p0/t41"), "{text}");
        assert!(text.contains("timestamped @1000"), "{text}");
        assert!(text.contains("logged +300"), "{text}");
        assert!(text.contains("ingested +600"), "{text}");
        assert!(text.contains("observed +1100"), "{text}");
        // An evicted span still yields a (bare) exemplar.
        let bare = Exemplar::resolve(&s, None);
        assert_eq!(bare.birth_us, None);
        assert!(bare.render().contains("observed @3000"));
    }

    #[test]
    fn kind_interning_round_trips() {
        for k in [KIND_DISPATCH, KIND_BUSY, KIND_COMMIT, KIND_QUEUE] {
            assert_eq!(intern_kind(k), k);
        }
        assert_eq!(intern_kind("mystery"), "other");
    }
}
