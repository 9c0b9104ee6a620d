//! The observer stack's one owner, [`Observers`] (DESIGN.md §9).

use crate::forensics::{BusyInterval, Exemplar, ExemplarReservoir, INTERVAL_CAPACITY};
use crate::health::{default_rules, AlertState, HealthEngine};
use crate::lineage::{Lineage, Span};
use crate::metrics::{names, Metrics};
use crate::ring::Ring;
use crate::runtime::CONTROL_NODE;
use crate::sketch::{self, PopulationSketch, DIM_SUB_BYTES};
use crate::telemetry::{Sampler, Timeline};
use crate::trace::{DeliveryPath, TraceEvent, TraceRecord, TRACE_ENABLED};
use gryphon_types::{LineageKey, NodeId, PubendId, SubscriberId, Timestamp};
use std::collections::BTreeMap;

/// The observer stack's one owner.
///
/// A runtime that hosts [`Node`](crate::Node)s embeds an [`Observers`]
/// and hands it out through [`NodeCtx::observers`](crate::NodeCtx::observers);
/// the trait's provided methods route the observation half of the
/// context to it. The owner holds the metrics registry, the trace ring,
/// the lineage assembler with the correctness oracle (the exactly-once
/// ledger and the protocol watchdogs) and its tail reservoir, the
/// busy-interval ring, the population sketch and — once
/// [`Observers::arm_windows`] opens them — the telemetry sampler and the
/// health engine, and has three entry points:
///
/// * **observe** — `record`, `count`, `observe`, `gauge`, `trace`,
///   `delivered`, `interval`, `attribute`: what a node callback reports;
/// * **absorb** — fold worker shards into this owner, in worker-index
///   order;
/// * **close_window** — the only code that turns what the observers
///   collected into timeline records, gauges, alerts and drop counters.
///
/// The simulator embeds one and closes a window per due sample. The
/// threaded runtime embeds one per worker plus one on its sampler thread,
/// which absorbs the workers' and closes the same window. The runtimes
/// differ in *when* a window closes and in which runtime gauges they set
/// beforehand, never in what closing does — nor in how the windows are
/// armed: [`Observers::arm_windows`] is the one recipe.
#[derive(Debug)]
pub struct Observers {
    metrics: Metrics,
    /// Sum of the metrics of the shards absorbed since the last close
    /// (stays empty in an owner that absorbs nothing).
    absorbed: Metrics,
    ring: Ring<TraceRecord>,
    lineage: Lineage,
    /// Contention-profiler ring (`None` = disarmed).
    intervals: Option<Ring<BusyInterval>>,
    /// Population sketch (`None` = disarmed).
    sketch: Option<PopulationSketch>,
    /// Spans copied from absorbed shards for the tail samples of the
    /// open window; an owner's own ledger answers for the rest.
    window_spans: BTreeMap<LineageKey, Span>,
    /// The telemetry sampler and the health engine that judges each
    /// window it closes (`None` = no windows open).
    windows: Option<(Sampler, HealthEngine)>,
}

impl Observers {
    /// A stack that retains the last `trace_capacity` trace records
    /// (`0` retains none; the oracle still judges every record).
    /// Forensics and the sketch start disarmed.
    pub fn new(trace_capacity: usize) -> Observers {
        Observers {
            metrics: Metrics::default(),
            absorbed: Metrics::default(),
            ring: Ring::new(trace_capacity),
            lineage: Lineage::default(),
            intervals: None,
            sketch: None,
            window_spans: BTreeMap::new(),
            windows: None,
        }
    }

    /// Arms the windowed observers: tail forensics (the exemplar
    /// reservoir on the lineage stage histograms and the bounded
    /// busy-interval ring) and the population sketch (per-entity top-K
    /// attribution plus the subscriber lag spectrum). All of it drains
    /// into the timeline when a window closes.
    pub fn arm(&mut self) {
        self.lineage.arm_exemplars(ExemplarReservoir::new());
        self.intervals = Some(Ring::new(INTERVAL_CAPACITY));
        self.sketch = Some(PopulationSketch::new());
    }

    /// Opens the windows: [`Observers::arm`], then the health engine over
    /// the [default rules](crate::default_rules) — each rule's
    /// `health.alert.<rule>` counter registered at zero in this registry,
    /// so exports show the armed rule set even when nothing fires — and a
    /// sampler closing a window every `interval_us`. Worker shards, whose
    /// windows an absorbing owner closes, take plain `arm()`.
    pub fn arm_windows(&mut self, interval_us: u64) {
        self.arm();
        let health = HealthEngine::new(default_rules());
        health.prime(&mut self.metrics);
        self.windows = Some((Sampler::new(interval_us), health));
    }

    /// When the next window is due (`None` while no windows are open).
    pub fn next_window_at(&self) -> Option<u64> {
        self.windows.as_ref().map(|(s, _)| s.next_at_us())
    }

    /// The timeline the closed windows wrote (`None` while no windows
    /// are open).
    pub fn timeline(&self) -> Option<&Timeline> {
        self.windows.as_ref().map(|(s, _)| s.timeline())
    }

    /// Ends the windows and takes their timeline out.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.windows.take().map(|(s, _)| s.into_timeline())
    }

    /// Shrinks the armed busy-interval ring to `capacity`, so a test can
    /// drive it into eviction.
    #[cfg(test)]
    pub(crate) fn set_interval_capacity(&mut self, capacity: usize) {
        self.intervals = Some(Ring::new(capacity));
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics access, for a harness recording ground truth
    /// beside what the nodes report.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The lineage assembler and the correctness oracle.
    pub fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    /// Mutable ledger access (audit mode).
    pub fn lineage_mut(&mut self) -> &mut Lineage {
        &mut self.lineage
    }

    /// The population sketch, while armed.
    pub fn sketch(&self) -> Option<&PopulationSketch> {
        self.sketch.as_ref()
    }

    /// The retained trace records, oldest first.
    pub fn trace_records(&self) -> impl DoubleEndedIterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Resizes the trace ring; records evicted by a shrink are counted
    /// like any other eviction.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.ring.set_capacity(capacity);
        self.count_trace_drops();
    }

    fn count_trace_drops(&mut self) {
        let evicted = self.ring.take_dropped();
        if evicted > 0 {
            self.metrics.count(names::TRACE_DROPPED, evicted as f64);
        }
    }

    /// Appends a sample to a metrics series.
    pub fn record(&mut self, t_us: u64, series: &str, value: f64) {
        self.metrics.record(t_us, series, value);
    }

    /// Bumps a counter.
    pub fn count(&mut self, counter: &str, delta: f64) {
        self.metrics.count(counter, delta);
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }

    /// Sets a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.metrics.set_gauge(name, value);
    }

    /// Feeds one trace record through the oracle — every record,
    /// whatever the ring retains — then into the ring. Returns a copy of
    /// the record if it tripped a check, for the runtime to act on
    /// ([`Lineage::last_violation`] names the check); nothing here
    /// panics. Without the `trace` feature the whole trace stream is
    /// compiled out and this does nothing.
    pub fn trace(&mut self, rec: TraceRecord) -> Option<TraceRecord> {
        if !TRACE_ENABLED {
            return None;
        }
        let trips = |l: &Lineage| l.violations() + l.watchdog_violations();
        let before = trips(&self.lineage);
        self.lineage.observe(&rec, &mut self.metrics);
        let tripped = (trips(&self.lineage) > before).then(|| rec.clone());
        self.retain(rec);
        tripped
    }

    /// Observes one delivered event: `(pubend, ts)` delivered by SHB
    /// `node` at `t_us` over `path` to each of `subs`, in order. The
    /// lineage work that concerns the event — span, stage histograms,
    /// orphan count, exemplar offer — runs once; the ledger
    /// checks every subscriber, as for a `Delivered` record. The
    /// ring, when it retains records, gets the `Delivered` record of
    /// each subscriber, so a retained trace reads as if each had been
    /// traced alone. A subscriber whose delivery trips the ledger is
    /// handed to `tripped` with its record, right after the ledger
    /// checked it and the ring took it and before the next subscriber
    /// is checked — where [`Observers::trace`] would have returned it.
    /// (No watchdog reads a `Delivered` record.) Without the `trace`
    /// feature this does nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn delivered(
        &mut self,
        t_us: u64,
        node: NodeId,
        pubend: PubendId,
        ts: Timestamp,
        path: DeliveryPath,
        subs: &[SubscriberId],
        mut tripped: impl FnMut(&mut Observers, TraceRecord),
    ) {
        if !TRACE_ENABLED {
            return;
        }
        let n = subs.len() as u64;
        self.lineage
            .delivered_event(t_us, node, pubend, ts, path, n, &mut self.metrics);
        let retain = self.ring.capacity() > 0;
        for &sub in subs {
            let before = self.lineage.violations();
            self.lineage
                .ledger_delivered(pubend, ts, sub, &mut self.metrics);
            let trip = self.lineage.violations() > before;
            if !retain && !trip {
                continue;
            }
            let rec = TraceRecord {
                t_us,
                node,
                event: TraceEvent::Delivered {
                    pubend,
                    ts,
                    sub,
                    path,
                },
            };
            if trip {
                self.retain(rec.clone());
                tripped(self, rec);
            } else {
                self.retain(rec);
            }
        }
    }

    fn retain(&mut self, rec: TraceRecord) {
        // A ring of capacity zero is retention switched off, not a ring
        // that drops everything: nothing to count.
        if self.ring.capacity() > 0 {
            self.ring.push(rec);
            self.count_trace_drops();
        }
    }

    /// Records a busy interval (no-op while forensics is disarmed, and
    /// for empty intervals).
    pub fn interval(&mut self, iv: BusyInterval) {
        if iv.dur_us == 0 {
            return;
        }
        if let Some(ring) = self.intervals.as_mut() {
            ring.push(iv);
        }
    }

    /// Attributes `weight` to `entity` on a sketch dimension (no-op while
    /// the sketch is disarmed).
    pub fn attribute(&mut self, dim: &'static str, entity: u64, weight: u64) {
        if let Some(sketch) = self.sketch.as_mut() {
            sketch.attribute(dim, entity, weight);
        }
    }

    /// Folds `shards` worker shards into this owner, in worker-index
    /// order, taking each shard's lock (through `lock`) for one short
    /// visit at a time. Metrics are summed (the rule of
    /// [`Metrics::merge`]: they stay with the shard, whose reservoir
    /// thresholds read them). What a shard collected since the last
    /// window — sketch, busy intervals, tail samples — is moved out of
    /// it. A second visit copies, from each shard's ledger, only the
    /// spans those tail samples name: an event's stages run on several
    /// workers, and the ledgers themselves are too large to merge per
    /// window.
    pub fn absorb<G>(&mut self, shards: usize, lock: impl Fn(usize) -> G)
    where
        G: std::ops::DerefMut<Target = Observers>,
    {
        for i in 0..shards {
            let mut guard = lock(i);
            let shard = &mut *guard;
            self.absorbed.merge(&shard.metrics);
            if let (Some(mine), Some(theirs)) = (self.sketch.as_mut(), shard.sketch.as_mut()) {
                mine.absorb(theirs);
                theirs.clear();
            }
            if let (Some(mine), Some(theirs)) = (self.intervals.as_mut(), shard.intervals.as_mut())
            {
                mine.absorb(theirs);
            }
            if let (Some(mine), Some(theirs)) =
                (self.lineage.exemplars_mut(), shard.lineage.exemplars_mut())
            {
                mine.absorb(theirs);
            }
        }
        let keys: Vec<LineageKey> = match self.lineage.exemplars_mut() {
            Some(r) => r.samples().iter().map(|s| s.key).collect(),
            None => Vec::new(),
        };
        if keys.is_empty() {
            return;
        }
        for i in 0..shards {
            let shard = lock(i);
            for &key in &keys {
                if let Some(span) = shard.lineage.span(key) {
                    self.window_spans
                        .entry(key)
                        .or_default()
                        .merge(span.clone());
                }
            }
        }
    }

    /// Closes the sampler window ending at `at_us` (a no-op while no
    /// windows are open). One fixed order:
    ///
    /// 1. drain the sketch and publish its `sketch.*` gauges, so this
    ///    window's sample reflects this window's sweep;
    /// 2. take the sample;
    /// 3. let the health engine judge the timeline so far; name the
    ///    culprit entity in each transition, count firings, mirror the
    ///    transition into the trace stream (stamped `now_us`, the
    ///    runtime's clock) and append it to the timeline;
    /// 4. append the top-K snapshots;
    /// 5. drain the tail reservoir, resolving each sample against its
    ///    lineage span, and append the exemplars;
    /// 6. drain the busy-interval ring and append the intervals.
    ///
    /// Whatever a bounded stage shed is counted into its
    /// `forensics.*_dropped` counter — after the sample, so a window's
    /// drops show in the next window's rates.
    pub fn close_window(&mut self, now_us: u64, at_us: u64) {
        let Some((mut sampler, mut health)) = self.windows.take() else {
            return;
        };
        let (snaps, stats) = match self.sketch.as_mut() {
            Some(sk) => sk.drain(at_us),
            None => (Vec::new(), None),
        };
        if let Some(stats) = stats {
            self.gauge(names::SKETCH_LAG_POPULATION, stats.population as f64);
            self.gauge(names::SKETCH_LAG_P50_US, stats.p50_us as f64);
            self.gauge(names::SKETCH_LAG_P99_US, stats.p99_us as f64);
            self.gauge(names::SKETCH_LAG_MAX_US, stats.max_us as f64);
            self.gauge(names::SKETCH_LAG_SKEW, stats.skew());
        }
        if let Some(bytes) = snaps.iter().find(|s| s.dim == DIM_SUB_BYTES) {
            self.gauge(names::SKETCH_DOMINANCE_SHARE, bytes.alarm_share());
        }

        let absorbed = std::mem::take(&mut self.absorbed);
        if absorbed.is_empty() {
            sampler.sample(at_us, &self.metrics);
        } else {
            let mut all = absorbed;
            all.merge(&self.metrics);
            sampler.sample(at_us, &all);
        }

        for mut alert in health.evaluate(at_us, sampler.timeline()) {
            sketch::name_culprit(&mut alert.detail, &alert.series, &snaps);
            let firing = alert.state == AlertState::Firing;
            if firing {
                self.count(&format!("health.alert.{}", alert.rule), 1.0);
            }
            self.trace(TraceRecord {
                t_us: now_us,
                node: CONTROL_NODE,
                event: TraceEvent::HealthAlert {
                    rule: alert.rule.clone(),
                    series: alert.series.clone(),
                    firing,
                },
            });
            sampler.timeline_mut().push_alert(alert);
        }

        let mut dropped = 0;
        for snap in snaps {
            dropped += sampler.timeline_mut().push_topk(snap);
        }
        self.count_dropped(names::FORENSICS_TOPK_DROPPED, dropped);

        let (tail, mut dropped) = match self.lineage.exemplars_mut() {
            Some(reservoir) => (reservoir.drain_sorted(), reservoir.take_dropped()),
            None => (Vec::new(), 0),
        };
        for s in tail {
            let span = self
                .window_spans
                .get(&s.key)
                .or_else(|| self.lineage.span(s.key));
            dropped += sampler
                .timeline_mut()
                .push_exemplar(Exemplar::resolve(&s, span));
        }
        self.count_dropped(names::FORENSICS_EXEMPLAR_DROPPED, dropped);
        self.window_spans.clear();

        if let Some(ring) = self.intervals.as_mut() {
            let mut dropped = ring.take_dropped();
            for iv in ring.drain() {
                dropped += sampler.timeline_mut().push_interval(iv);
            }
            self.count_dropped(names::FORENSICS_INTERVAL_DROPPED, dropped);
        }
        self.windows = Some((sampler, health));
    }

    fn count_dropped(&mut self, counter: &str, dropped: u64) {
        if dropped > 0 {
            self.metrics.count(counter, dropped as f64);
        }
    }
}
