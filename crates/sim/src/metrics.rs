//! Time-series, counter and histogram recording for experiments.

use crate::codec::csv_escape;
use std::collections::BTreeMap;

/// The documented metric-name registry.
///
/// Every name the broker state machines and the runtime emit lives here
/// so experiments and tests reference constants instead of retyping
/// strings. The registry is the source of truth for what a name means;
/// `DESIGN.md` §Observability mirrors this table.
pub mod names {
    /// Counter: bytes appended to the PHB event log (stable-storage
    /// write volume, §2).
    pub const PHB_LOG_BYTES: &str = "phb.log_bytes";
    /// Counter: events durably logged at the PHB.
    pub const PHB_LOG_EVENTS: &str = "phb.log_events";
    /// Counter: ticks delivered to subscribers via the consolidated
    /// stream (§4.1).
    pub const SHB_CONSTREAM_DELIVERED: &str = "shb.constream_delivered";
    /// Counter: ticks delivered via per-subscriber catchup streams (§4.1).
    pub const SHB_CATCHUP_DELIVERED: &str = "shb.catchup_delivered";
    /// Histogram: catchup duration from `CatchupStarted` to `Switchover`
    /// in virtual µs (§4.1).
    pub const SHB_SWITCHOVER_LATENCY_US: &str = "shb.switchover_latency_us";
    /// Histogram: filtered-event-store records visited per backpointer
    /// batch read (§4.2).
    pub const PFS_BATCH_READ_RECORDS: &str = "pfs.batch_read_records";
    /// Histogram: matched `Q` ticks returned per PFS batch read.
    pub const PFS_BATCH_READ_QTICKS: &str = "pfs.batch_read_qticks";
    /// Histogram: distinct downstream requests merged per upstream nack
    /// (curiosity consolidation fan-in, §4.3).
    pub const CURIOSITY_NACK_FANIN: &str = "curiosity.nack_fanin";
    /// Counter: nacks sent upstream after consolidation.
    pub const CURIOSITY_NACKS_SENT: &str = "curiosity.nacks_sent";
    /// Counter: release-protocol advances of `released(p)` (§3.4).
    pub const RELEASE_ADVANCES: &str = "release.advances";
    /// Counter: ticks converted to `L` (lost) by log chops (§3.4).
    pub const RELEASE_L_CONVERSIONS: &str = "release.l_conversions";
    /// Counter: gap-free-constream watchdog violations.
    pub const WATCHDOG_CONSTREAM_GAP: &str = "watchdog.constream_gap";
    /// Counter: monotone-doubt-horizon watchdog violations.
    pub const WATCHDOG_DOUBT_REGRESSION: &str = "watchdog.doubt_regress";
    /// Counter: only-once-logging watchdog violations.
    pub const WATCHDOG_DUPLICATE_LOG: &str = "watchdog.double_log";
    /// Counter: trace records evicted from the ring buffer. Non-zero
    /// means trace/lineage analysis over the ring is incomplete (the
    /// lineage assembler itself observes the stream pre-eviction and is
    /// unaffected).
    pub const TRACE_DROPPED: &str = "trace.dropped_records";
    /// Histogram: virtual µs from pubend timestamping to durable PHB log.
    pub const LINEAGE_STAGE_LOG_US: &str = "lineage.stage.log_us";
    /// Histogram: virtual µs from PHB log to the IB forwarding the event
    /// downstream.
    pub const LINEAGE_STAGE_IB_FORWARD_US: &str = "lineage.stage.ib_forward_us";
    /// Histogram: virtual µs from IB forward (or PHB log on a combined
    /// broker) to SHB ingest.
    pub const LINEAGE_STAGE_SHB_INGEST_US: &str = "lineage.stage.shb_ingest_us";
    /// Histogram: virtual µs an event spent resident at the SHB before a
    /// **catchup-path** delivery (ingest → deliver).
    pub const LINEAGE_STAGE_CATCHUP_US: &str = "lineage.stage.catchup_us";
    /// Histogram: virtual µs an event spent resident at the SHB before a
    /// **constream-path** delivery (ingest → deliver).
    pub const LINEAGE_STAGE_CONSTREAM_US: &str = "lineage.stage.constream_us";
    /// Histogram: end-to-end virtual µs from pubend timestamping to
    /// subscriber delivery.
    pub const LINEAGE_STAGE_DELIVER_US: &str = "lineage.stage.deliver_us";
    /// Counter: ledger violations — an event delivered twice to the same
    /// subscriber within one connection session.
    pub const LINEAGE_LEDGER_DUPLICATE: &str = "lineage.ledger.duplicate";
    /// Counter: ledger violations — a delivery at or below the session's
    /// resume checkpoint (duplicate across a reconnect).
    pub const LINEAGE_LEDGER_RECONNECT_DUPLICATE: &str = "lineage.ledger.reconnect_duplicate";
    /// Counter: ledger violations — a gap message covering ticks beyond
    /// the release/L-conversion boundary (data declared lost that the
    /// system never released).
    pub const LINEAGE_LEDGER_GAP_BEYOND_RELEASE: &str = "lineage.ledger.gap_beyond_release";
    /// Counter: lineage spans evicted to bound assembler memory (their
    /// late stage events then count as orphans).
    pub const LINEAGE_SPANS_EVICTED: &str = "lineage.spans_evicted";
    /// Counter: stage observations whose predecessor anchor was unknown
    /// (evicted span, recovery-path re-emission, or an anchor recorded
    /// by another worker's ledger). A delivered event with no birth
    /// anchor counts once per subscriber it reached.
    pub const LINEAGE_STAGE_ORPHANS: &str = "lineage.stage_orphans";
    /// Counter: flight-recorder post-mortem dumps written.
    pub const LINEAGE_FLIGHT_DUMPS: &str = "lineage.flight_dumps";
    /// Counter: messages a broker received but has no handler for
    /// (e.g. server-bound messages misdelivered to a broker).
    pub const BROKER_UNEXPECTED_MSG: &str = "broker.unexpected_msg";
    // One counter per broker timer kind (`gryphon::timer::Kind::name`),
    // counted once per firing in the epoch that armed it; stale timers
    // from before a restart are not counted.
    /// Counter: broker timer firings — the broker's group-commit window closed.
    pub const BROKER_TIMER_PHB_COMMIT: &str = "broker.timer.phb_commit";
    /// Counter: broker timer firings — idle hosted pubends emitted silence.
    pub const BROKER_TIMER_PHB_SILENCE: &str = "broker.timer.phb_silence";
    /// Counter: broker timer firings — release aggregation and log chopping ran.
    pub const BROKER_TIMER_RELEASE: &str = "broker.timer.release";
    /// Counter: broker timer firings — the SHB persisted its meta table.
    pub const BROKER_TIMER_META_PERSIST: &str = "broker.timer.meta_persist";
    /// Counter: broker timer firings — the PFS group commit ran.
    pub const BROKER_TIMER_PFS_SYNC: &str = "broker.timer.pfs_sync";
    /// Counter: broker timer firings — timed-out curiosity was re-nacked.
    pub const BROKER_TIMER_RETRY_NACKS: &str = "broker.timer.retry_nacks";
    /// Counter: broker timer firings — idle subscribers were sent silence.
    pub const BROKER_TIMER_CLIENT_SILENCE: &str = "broker.timer.client_silence";
    /// Counter: broker timer firings — knowledge caches were trimmed.
    pub const BROKER_TIMER_CACHE_TRIM: &str = "broker.timer.cache_trim";
    /// Counter: broker timer firings — a modeled PFS batch read completed.
    pub const BROKER_TIMER_CATCHUP_READ: &str = "broker.timer.catchup_read";
    /// Counter: broker timer firings — a checkpoint-commit worker finished.
    pub const BROKER_TIMER_CT_COMMIT: &str = "broker.timer.ct_commit";
    /// Counter: broker timer firings — an event-log write became durable.
    pub const BROKER_TIMER_PHB_COMMIT_DONE: &str = "broker.timer.phb_commit_done";
    /// Histogram: knowledge parts per fresh knowledge message sent to a
    /// child (silence consolidation, §3.2: adjacent downgrades coalesce).
    pub const IB_KNOWLEDGE_BATCH_PARTS: &str = "ib.knowledge_batch_parts";
    /// Counter: fresh (not nack-response) knowledge messages sent to
    /// children. Knowledge is batched once, by the PHB's commit window,
    /// and every broker forwards it in the wakeup that brings it.
    pub const IB_KNOWLEDGE_BATCHES: &str = "ib.knowledge_batches";
    /// Counter: subscription filters parsed from children's interest
    /// messages. Interest travels as deltas and is applied in place, so
    /// each filter is parsed once per hop it crosses; a periodic refresh
    /// of an already-applied version parses nothing.
    pub const IB_INTEREST_FILTERS_PARSED: &str = "ib.interest_filters_parsed";
    /// Gauge: runtime queue depth. In the simulator this is the
    /// scheduler's outstanding-event count at each sample; in the
    /// threaded runtime each worker publishes its bounded-channel
    /// occupancy under a `.w<i>` shard suffix and the sampler derives
    /// the unsuffixed aggregate (see DESIGN.md §9).
    pub const TELEMETRY_QUEUE_DEPTH: &str = "telemetry.queue_depth";
    /// Gauge: fraction of wall time a threaded-runtime worker spent
    /// processing messages/timers over the last sample window
    /// (`.w<i>` shard suffix; aggregate is the mean-free *sum*, so
    /// divide by worker count for a mean).
    pub const TELEMETRY_WORKER_UTILIZATION: &str = "telemetry.worker_utilization";
    /// Histogram: wall-clock µs a threaded-runtime worker spent inside
    /// one `on_message` dispatch (message service time). Only recorded
    /// while the telemetry sampler is enabled.
    pub const TELEMETRY_SERVICE_TIME_US: &str = "telemetry.service_time_us";
    /// Gauge: doubt-horizon width in ticks per hosted constream
    /// (`frontier − processed_to`), published under `.n<node>.p<pubend>`
    /// shard suffixes; the sampler derives the unsuffixed sum.
    pub const TELEMETRY_DOUBT_WIDTH_TICKS: &str = "telemetry.doubt_width_ticks";
    /// Gauge: outstanding catchup backlog in ticks summed over an SHB's
    /// active per-subscriber catchup streams (`constream cursor −
    /// delivered_to` per stream), published under a `.n<node>` shard
    /// suffix; spikes after a crash/reconnect and drains to zero.
    pub const TELEMETRY_CATCHUP_BACKLOG_TICKS: &str = "telemetry.catchup_backlog_ticks";
    /// Gauge: active per-subscriber catchup streams at an SHB
    /// (`.n<node>` shard suffix).
    pub const TELEMETRY_CATCHUP_STREAMS: &str = "telemetry.catchup_streams";
    /// Gauge: approximate heap bytes of an SHB's `SubscriberTable` slab
    /// (all per-subscriber state: specs, filters, release cursors,
    /// live connections), published under a
    /// `.n<node>` shard suffix; shard-local slabs add on merge.
    pub const TELEMETRY_SHB_SLAB_BYTES: &str = "telemetry.shb.slab_bytes";
    /// Gauge: `SubscriberTable::approx_bytes()` divided by the number of
    /// *idle* (registered but disconnected) durable subscribers at an
    /// SHB — the paper-scale memory figure a million-subscriber broker
    /// is sized by (`.n<node>` shard suffix; DESIGN.md §15). Guarded by
    /// `xp doctor diff` so memory-per-subscriber regressions fail the
    /// gate.
    pub const TELEMETRY_SHB_BYTES_PER_IDLE_SUB: &str = "telemetry.shb.bytes_per_idle_sub";
    /// Counter family: firing transitions of health-engine rules
    /// (DESIGN.md §9). Each rule `<r>` bumps `health.alert.<r>`; the
    /// constants below register the default rule set so exporters and
    /// the registry test see the family even when it never fires.
    pub const HEALTH_ALERT_CATCHUP_BACKLOG: &str = "health.alert.catchup_backlog";
    /// Counter: firing transitions of the `queue_depth` gauge-ceiling rule.
    pub const HEALTH_ALERT_QUEUE_DEPTH: &str = "health.alert.queue_depth";
    /// Counter: firing transitions of the gap-free-constream rate rule.
    pub const HEALTH_ALERT_WATCHDOG_CONSTREAM_GAP: &str = "health.alert.watchdog_constream_gap";
    /// Counter: firing transitions of the monotone-doubt-horizon rate rule.
    pub const HEALTH_ALERT_WATCHDOG_DOUBT_REGRESS: &str = "health.alert.watchdog_doubt_regress";
    /// Counter: firing transitions of the only-once-logging rate rule.
    pub const HEALTH_ALERT_WATCHDOG_DOUBLE_LOG: &str = "health.alert.watchdog_double_log";
    /// Counter: firing transitions of the exactly-once-ledger rate rule.
    pub const HEALTH_ALERT_LEDGER_DUPLICATE: &str = "health.alert.ledger_duplicate";
    /// Counter: firing transitions of the delivery-latency SLO burn rule.
    pub const HEALTH_ALERT_DELIVER_SLO: &str = "health.alert.deliver_slo";
    /// Histogram: records appended by one commit through the storage
    /// `CommitPipeline` (PHB event batches, JMS checkpoint
    /// transactions).
    pub const STORAGE_COMMIT_BATCH_RECORDS: &str = "storage.commit.batch_records";
    /// Histogram: commits made durable by the device flush that covered
    /// this commit. Every commit pays its own flush, so it reads 1.
    pub const STORAGE_COMMIT_GROUP_SIZE: &str = "storage.commit.group_size";
    /// Histogram: wall-clock µs a threaded-runtime message waited in a
    /// worker's bounded channel between enqueue and dispatch. Only
    /// recorded while the telemetry sampler is armed; together with
    /// `telemetry.service_time_us` it splits worker latency into
    /// queueing vs CPU time (DESIGN.md §9).
    pub const NET_QUEUE_WAIT_US: &str = "net.queue_wait_us";
    /// Counter: messages lost in transit between nodes. In the simulator
    /// a lossy link dropped a knowledge or curiosity message; in the
    /// threaded runtime a node-to-node send found the destination
    /// worker's channel full.
    pub const NET_DROPPED: &str = "net.dropped";
    /// Counter: tail exemplars rejected because the per-window reservoir
    /// was full — the forensics layer bounds memory by dropping (and
    /// counting) instead of growing.
    pub const FORENSICS_EXEMPLAR_DROPPED: &str = "forensics.exemplar_dropped";
    /// Counter: busy-interval records evicted from the bounded interval
    /// ring (oldest first); the retained ring is the run's tail.
    pub const FORENSICS_INTERVAL_DROPPED: &str = "forensics.interval_dropped";
    /// Counter: top-K snapshots evicted from the bounded timeline
    /// stream (oldest first), same shed-and-count policy as the
    /// exemplar/interval streams.
    pub const FORENSICS_TOPK_DROPPED: &str = "forensics.topk_dropped";
    /// Gauge: subscribers covered by the last slab sweep feeding the
    /// lag spectrum (DESIGN.md §9).
    pub const SKETCH_LAG_POPULATION: &str = "sketch.sub_lag.population";
    /// Gauge: median per-subscriber delivery lag from the last swept
    /// window's lag spectrum (bucket upper bound, µs).
    pub const SKETCH_LAG_P50_US: &str = "sketch.sub_lag.p50_us";
    /// Gauge: 99th-percentile per-subscriber delivery lag from the last
    /// swept window's lag spectrum (bucket upper bound, µs).
    pub const SKETCH_LAG_P99_US: &str = "sketch.sub_lag.p99_us";
    /// Gauge: worst per-subscriber delivery lag in the last swept
    /// window (exact, µs).
    pub const SKETCH_LAG_MAX_US: &str = "sketch.sub_lag.max_us";
    /// Gauge: lag-spectrum skew, `p99 ÷ max(p50, 1)` — ≈1 for a uniform
    /// population, large when a minority of subscribers falls far
    /// behind the median. Judged by the `lag_skew` health rule.
    pub const SKETCH_LAG_SKEW: &str = "sketch.sub_lag.skew";
    /// Gauge: share of the window's delivered bytes attributed to the
    /// single hottest subscriber (0..1). Judged by the
    /// `entity_dominance` health rule.
    pub const SKETCH_DOMINANCE_SHARE: &str = "sketch.dominance_share";
    /// Counter: firing transitions of the lag-spectrum skew rule.
    pub const HEALTH_ALERT_LAG_SKEW: &str = "health.alert.lag_skew";
    /// Counter: firing transitions of the single-entity dominance rule.
    pub const HEALTH_ALERT_ENTITY_DOMINANCE: &str = "health.alert.entity_dominance";

    /// Every registered metric name. Tests use this to verify the
    /// registry is complete (no constant missing from the list, no
    /// duplicates) and that telemetry series trace back to a registered
    /// base name after stripping shard (`.n3`/`.p0`/`.w1`) and `.rate`
    /// suffixes.
    pub const fn all() -> &'static [&'static str] {
        &[
            PHB_LOG_BYTES,
            PHB_LOG_EVENTS,
            SHB_CONSTREAM_DELIVERED,
            SHB_CATCHUP_DELIVERED,
            SHB_SWITCHOVER_LATENCY_US,
            PFS_BATCH_READ_RECORDS,
            PFS_BATCH_READ_QTICKS,
            CURIOSITY_NACK_FANIN,
            CURIOSITY_NACKS_SENT,
            RELEASE_ADVANCES,
            RELEASE_L_CONVERSIONS,
            WATCHDOG_CONSTREAM_GAP,
            WATCHDOG_DOUBT_REGRESSION,
            WATCHDOG_DUPLICATE_LOG,
            TRACE_DROPPED,
            LINEAGE_STAGE_LOG_US,
            LINEAGE_STAGE_IB_FORWARD_US,
            LINEAGE_STAGE_SHB_INGEST_US,
            LINEAGE_STAGE_CATCHUP_US,
            LINEAGE_STAGE_CONSTREAM_US,
            LINEAGE_STAGE_DELIVER_US,
            LINEAGE_LEDGER_DUPLICATE,
            LINEAGE_LEDGER_RECONNECT_DUPLICATE,
            LINEAGE_LEDGER_GAP_BEYOND_RELEASE,
            LINEAGE_SPANS_EVICTED,
            LINEAGE_STAGE_ORPHANS,
            LINEAGE_FLIGHT_DUMPS,
            BROKER_UNEXPECTED_MSG,
            BROKER_TIMER_PHB_COMMIT,
            BROKER_TIMER_PHB_SILENCE,
            BROKER_TIMER_RELEASE,
            BROKER_TIMER_META_PERSIST,
            BROKER_TIMER_PFS_SYNC,
            BROKER_TIMER_RETRY_NACKS,
            BROKER_TIMER_CLIENT_SILENCE,
            BROKER_TIMER_CACHE_TRIM,
            BROKER_TIMER_CATCHUP_READ,
            BROKER_TIMER_CT_COMMIT,
            BROKER_TIMER_PHB_COMMIT_DONE,
            IB_KNOWLEDGE_BATCH_PARTS,
            IB_KNOWLEDGE_BATCHES,
            IB_INTEREST_FILTERS_PARSED,
            TELEMETRY_QUEUE_DEPTH,
            TELEMETRY_WORKER_UTILIZATION,
            TELEMETRY_SERVICE_TIME_US,
            TELEMETRY_DOUBT_WIDTH_TICKS,
            TELEMETRY_CATCHUP_BACKLOG_TICKS,
            TELEMETRY_CATCHUP_STREAMS,
            TELEMETRY_SHB_SLAB_BYTES,
            TELEMETRY_SHB_BYTES_PER_IDLE_SUB,
            HEALTH_ALERT_CATCHUP_BACKLOG,
            HEALTH_ALERT_QUEUE_DEPTH,
            HEALTH_ALERT_WATCHDOG_CONSTREAM_GAP,
            HEALTH_ALERT_WATCHDOG_DOUBT_REGRESS,
            HEALTH_ALERT_WATCHDOG_DOUBLE_LOG,
            HEALTH_ALERT_LEDGER_DUPLICATE,
            HEALTH_ALERT_DELIVER_SLO,
            STORAGE_COMMIT_BATCH_RECORDS,
            STORAGE_COMMIT_GROUP_SIZE,
            NET_QUEUE_WAIT_US,
            NET_DROPPED,
            FORENSICS_EXEMPLAR_DROPPED,
            FORENSICS_INTERVAL_DROPPED,
            FORENSICS_TOPK_DROPPED,
            SKETCH_LAG_POPULATION,
            SKETCH_LAG_P50_US,
            SKETCH_LAG_P99_US,
            SKETCH_LAG_MAX_US,
            SKETCH_LAG_SKEW,
            SKETCH_DOMINANCE_SHARE,
            HEALTH_ALERT_LAG_SKEW,
            HEALTH_ALERT_ENTITY_DOMINANCE,
        ]
    }
}

/// Exponential histogram bucketing: each bucket boundary is a
/// quarter-power of two (`2^(i/4)`), giving ≤ ~19% relative error per
/// bucket over the full `f64` positive range with ~250 buckets.
const BUCKET_FACTOR_LOG2: f64 = 0.25;
/// Index offset so sub-1.0 values land in non-negative buckets.
const BUCKET_OFFSET: usize = 128;
/// Total bucket count (values above the top boundary clamp into the
/// last bucket).
const BUCKET_COUNT: usize = 384;

fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let idx = (v.log2() / BUCKET_FACTOR_LOG2).ceil() as i64 + BUCKET_OFFSET as i64;
    idx.clamp(0, BUCKET_COUNT as i64 - 1) as usize
}

/// Upper boundary of bucket `i` (inclusive).
fn bucket_upper(i: usize) -> f64 {
    ((i as f64 - BUCKET_OFFSET as f64) * BUCKET_FACTOR_LOG2).exp2()
}

/// Fixed-bucket exponential histogram for latency/size distributions.
///
/// Buckets are quarter-powers of two, so any reported percentile is
/// within ~19% of the true sample value; exact `min`/`max`/`sum`/`count`
/// are kept on the side and percentile results are clamped to
/// `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Records one sample. Negative samples are clamped to 0.
    pub fn observe(&mut self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records `n` samples of the same value `v` at once: count and
    /// buckets equal `n` single observes, and so does the sum for whole
    /// numbers below 2^53 (every stage latency is whole µs).
    pub fn observe_n(&mut self, v: f64, n: u64) {
        let v = if v.is_finite() { v.max(0.0) } else { return };
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)] += n;
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), `None` when empty.
    ///
    /// Walks the cumulative bucket counts to the target rank and
    /// interpolates linearly within the covering bucket, then clamps to
    /// the exact observed `[min, max]` so the tails are never
    /// extrapolated beyond real samples.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let prev = cum as f64;
            cum += n;
            if (cum as f64) >= target {
                let lower = if i == 0 { 0.0 } else { bucket_upper(i - 1) };
                let upper = bucket_upper(i);
                let frac = if n == 0 {
                    0.0
                } else {
                    (target - prev) / n as f64
                };
                let est = lower + (upper - lower) * frac.clamp(0.0, 1.0);
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The window histogram between a past snapshot `prev` of this same
    /// histogram and now: bucket-wise subtraction, so percentiles of the
    /// result describe only the samples observed *since* `prev`. The
    /// telemetry sampler uses this to turn cumulative stage histograms
    /// into per-window quantile series.
    ///
    /// Exact `min`/`max` cannot be recovered for the window alone, so
    /// they are re-estimated from the first/last non-empty delta bucket
    /// bounds, clamped into the cumulative `[min, max]` — the same ~19%
    /// bucket error as any other quantile read.
    pub fn delta_since(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::default();
        let mut first = None;
        let mut last = None;
        for (i, (&cur, &old)) in self.buckets.iter().zip(&prev.buckets).enumerate() {
            let d = cur.saturating_sub(old);
            out.buckets[i] = d;
            if d > 0 {
                first.get_or_insert(i);
                last = Some(i);
            }
        }
        out.count = self.count.saturating_sub(prev.count);
        out.sum = (self.sum - prev.sum).max(0.0);
        if out.count > 0 {
            let lo = match first {
                Some(0) | None => 0.0,
                Some(i) => bucket_upper(i - 1),
            };
            let hi = last.map(bucket_upper).unwrap_or(0.0);
            out.min = lo.max(self.min);
            out.max = hi.min(self.max).max(out.min);
        }
        out
    }

    /// Folds `other` into `self` (bucket-wise addition; exact side
    /// statistics combine losslessly). Used to aggregate per-worker
    /// histograms from the threaded runtime into one run-wide view.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Metrics sink shared by all nodes in a run.
///
/// Series are `(virtual time µs, value)` samples; counters are plain
/// accumulators. The harness reduces series into the rates/percentiles
/// the paper's figures plot.
///
/// # Examples
///
/// ```
/// use gryphon_sim::Metrics;
/// let mut m = Metrics::default();
/// m.record(1_000, "rate", 5.0);
/// m.record(2_000, "rate", 7.0);
/// m.count("delivered", 2.0);
/// assert_eq!(m.series("rate").len(), 2);
/// assert_eq!(m.counter("delivered"), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    series: BTreeMap<String, Vec<(u64, f64)>>,
    counters: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, f64>,
}

/// Applies `f` to the entry for `name`, created on first sight. Looks up
/// by `&str` first: a name that already exists — every observation but a
/// metric's first — costs one lookup and no allocation.
fn upsert<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

impl Metrics {
    /// True when nothing of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.gauges.is_empty()
    }

    /// Appends a `(t_us, value)` sample to `name`.
    pub fn record(&mut self, t_us: u64, name: &str, value: f64) {
        upsert(&mut self.series, name, |s| s.push((t_us, value)));
    }

    /// Adds `delta` to counter `name`.
    pub fn count(&mut self, name: &str, delta: f64) {
        upsert(&mut self.counters, name, |c| *c += delta);
    }

    /// The samples of series `name` (empty slice if never recorded).
    pub fn series(&self, name: &str) -> &[(u64, f64)] {
        self.series.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Counter value (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        upsert(&mut self.histograms, name, |h| h.observe(value));
    }

    /// Records `n` samples of `value` into histogram `name` in one
    /// lookup (see [`Histogram::observe_n`]).
    pub(crate) fn observe_n(&mut self, name: &str, value: f64, n: u64) {
        upsert(&mut self.histograms, name, |h| h.observe_n(value, n));
    }

    /// The `q`-quantile of histogram `name` (`None` when absent/empty).
    ///
    /// ```
    /// use gryphon_sim::Metrics;
    /// let mut m = Metrics::default();
    /// for v in [1.0, 2.0, 3.0, 100.0] {
    ///     m.observe("lat", v);
    /// }
    /// assert!(m.percentile("lat", 0.99).unwrap() <= 100.0);
    /// assert!(m.percentile("lat", 0.5).unwrap() >= 1.0);
    /// ```
    pub fn percentile(&self, name: &str, q: f64) -> Option<f64> {
        self.histograms.get(name)?.percentile(q)
    }

    /// The histogram `name` (`None` if never observed).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Sets gauge `name` to its current `value` (last write wins within
    /// one `Metrics`). Gauges are instantaneous levels — queue depth,
    /// backlog width — snapshotted by the telemetry sampler, unlike
    /// series which append every write.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        upsert(&mut self.gauges, name, |g| *g = value);
    }

    /// Current value of gauge `name` (`None` if never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauge names (sorted), symmetric with
    /// [`counter_names`](Self::counter_names) and
    /// [`histogram_names`](Self::histogram_names).
    pub fn gauge_names(&self) -> Vec<&str> {
        self.gauges.keys().map(|s| s.as_str()).collect()
    }

    /// All histogram names (sorted).
    pub fn histogram_names(&self) -> Vec<&str> {
        self.histograms.keys().map(|s| s.as_str()).collect()
    }

    /// All series names (sorted).
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// All counter names (sorted).
    pub fn counter_names(&self) -> Vec<&str> {
        self.counters.keys().map(|s| s.as_str()).collect()
    }

    /// Mean of all samples of `name` (`None` when empty).
    pub fn mean(&self, name: &str) -> Option<f64> {
        let s = self.series(name);
        if s.is_empty() {
            return None;
        }
        Some(s.iter().map(|&(_, v)| v).sum::<f64>() / s.len() as f64)
    }

    /// Folds `other` into `self`: counters add, histograms merge,
    /// series samples append (then re-sort by time so windowed
    /// reductions stay correct), and gauges **add**. The threaded
    /// runtime keeps one `Metrics` per worker shard and merges them —
    /// always in worker-index order — into the run-wide view, both on
    /// shutdown and for every mid-run snapshot.
    ///
    /// Gauge addition is the union-preserving choice: shards publish
    /// disjoint per-entity names (`telemetry.queue_depth.w0`,
    /// `telemetry.doubt_width_ticks.n3.p1`, …), so the merged value of
    /// each name equals the single shard that owns it, and unsuffixed
    /// aggregates computed by the sampler stay sums over entities.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, samples) in &other.series {
            let s = self.series.entry(name.clone()).or_default();
            s.extend_from_slice(samples);
            s.sort_by_key(|&(t, _)| t);
        }
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0.0) += delta;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0.0) += v;
        }
    }
}

/// Summary of one histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct HistogramSummary {
    /// Metric name (see [`names`]).
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Exact smallest sample.
    pub min: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th percentile estimate.
    pub p95: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// Exact largest sample.
    pub max: f64,
}

/// A [`Metrics`] snapshot reduced to stable, sorted summaries: what a
/// report renders and what [`to_csv`](MetricsSnapshot::to_csv) writes
/// as a bundle's `metrics.csv`. Gauges are left out; the telemetry
/// sampler records each as a timeline series.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<(String, f64)>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// All series reduced to `(name, samples, mean)`, sorted by name.
    pub series: Vec<(String, usize, f64)>,
}

impl MetricsSnapshot {
    /// The `metrics.csv` header row.
    pub const CSV_HEADER: &'static str = "kind,name,count,value,min,p50,p95,p99,max";

    /// Snapshots `metrics` into sorted summaries.
    pub fn from_metrics(metrics: &Metrics) -> Self {
        let counters = metrics
            .counter_names()
            .into_iter()
            .map(|n| (n.to_owned(), metrics.counter(n)))
            .collect();
        let histograms = metrics
            .histogram_names()
            .into_iter()
            .filter_map(|n| {
                let h = metrics.histogram(n)?;
                Some(HistogramSummary {
                    name: n.to_owned(),
                    count: h.count(),
                    min: h.min()?,
                    p50: h.percentile(0.50)?,
                    p95: h.percentile(0.95)?,
                    p99: h.percentile(0.99)?,
                    max: h.max()?,
                })
            })
            .collect();
        let series = metrics
            .series_names()
            .into_iter()
            .map(|n| {
                let s = metrics.series(n);
                (n.to_owned(), s.len(), metrics.mean(n).unwrap_or(0.0))
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
            series,
        }
    }

    /// Renders the snapshot as CSV: the [`CSV_HEADER`](Self::CSV_HEADER)
    /// row, then one row per metric (unused cells empty), counters then
    /// histograms then series, each sorted by name.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{}\n", Self::CSV_HEADER);
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{},,{v:.3},,,,,\n", csv_escape(name)));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "histogram,{},{},,{:.3},{:.3},{:.3},{:.3},{:.3}\n",
                csv_escape(&h.name),
                h.count,
                h.min,
                h.p50,
                h.p95,
                h.p99,
                h.max
            ));
        }
        for (name, n, mean) in &self.series {
            out.push_str(&format!("series,{},{n},{mean:.3},,,,,\n", csv_escape(name)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_csv_rows_go_by_kind_then_name() {
        let mut m = Metrics::default();
        m.count("phb.log_bytes", 1024.0);
        m.count("a,\"quoted\"", 1.0);
        for v in [10.0, 20.0, 30.0] {
            m.observe("shb.switchover_latency_us", v);
        }
        m.record(1_000, "shb.doubt_width", 5.0);
        m.set_gauge("telemetry.queue_depth", 3.0);
        assert_eq!(
            MetricsSnapshot::from_metrics(&m).to_csv(),
            "kind,name,count,value,min,p50,p95,p99,max\n\
             counter,\"a,\"\"quoted\"\"\",,1.000,,,,,\n\
             counter,phb.log_bytes,,1024.000,,,,,\n\
             histogram,shb.switchover_latency_us,3,,10.000,20.827,30.000,30.000,30.000\n\
             series,shb.doubt_width,1,5.000,,,,,\n"
        );
        assert_eq!(
            MetricsSnapshot::default().to_csv(),
            format!("{}\n", MetricsSnapshot::CSV_HEADER)
        );
    }

    #[test]
    fn mean_averages_series_samples() {
        let mut m = Metrics::default();
        for (i, v) in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().enumerate() {
            m.record(i as u64, "d", *v);
        }
        assert_eq!(m.mean("d"), Some(5.0));
        assert_eq!(m.mean("missing"), None);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.count("c", 1.0);
        m.count("c", 2.5);
        assert_eq!(m.counter("c"), 3.5);
        assert_eq!(m.counter("other"), 0.0);
    }

    #[test]
    fn names_listed_sorted() {
        let mut m = Metrics::default();
        m.record(0, "b", 0.0);
        m.record(0, "a", 0.0);
        m.count("z", 1.0);
        m.observe("h", 1.0);
        m.set_gauge("g2", 1.0);
        m.set_gauge("g1", 2.0);
        assert_eq!(m.series_names(), vec!["a", "b"]);
        assert_eq!(m.counter_names(), vec!["z"]);
        assert_eq!(m.histogram_names(), vec!["h"]);
        assert_eq!(m.gauge_names(), vec!["g1", "g2"]);
    }

    #[test]
    fn gauges_last_write_wins_and_merge_adds() {
        let mut m = Metrics::default();
        assert_eq!(m.gauge("depth"), None);
        m.set_gauge("depth", 3.0);
        m.set_gauge("depth", 7.0);
        assert_eq!(m.gauge("depth"), Some(7.0));

        // Shards own disjoint names; merge is additive, so each merged
        // name keeps its owning shard's value and overlapping names sum.
        let mut w0 = Metrics::default();
        w0.set_gauge("q.w0", 4.0);
        w0.set_gauge("shared", 1.0);
        let mut w1 = Metrics::default();
        w1.set_gauge("q.w1", 9.0);
        w1.set_gauge("shared", 2.0);
        let mut merged = Metrics::default();
        merged.merge(&w0);
        merged.merge(&w1);
        assert_eq!(merged.gauge("q.w0"), Some(4.0));
        assert_eq!(merged.gauge("q.w1"), Some(9.0));
        assert_eq!(merged.gauge("shared"), Some(3.0));
    }

    /// Registry completeness: `names::all()` lists every constant
    /// exactly once, and the telemetry family is present so samplers and
    /// exporters can trust the registry.
    #[test]
    fn name_registry_complete_and_unique() {
        let all = names::all();
        assert!(
            all.len() >= 40,
            "registry unexpectedly small: {}",
            all.len()
        );
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(seen.insert(*name), "duplicate registered name {name}");
        }
        for telemetry in [
            names::TELEMETRY_QUEUE_DEPTH,
            names::TELEMETRY_WORKER_UTILIZATION,
            names::TELEMETRY_SERVICE_TIME_US,
            names::TELEMETRY_DOUBT_WIDTH_TICKS,
            names::TELEMETRY_CATCHUP_BACKLOG_TICKS,
            names::TELEMETRY_CATCHUP_STREAMS,
            names::TELEMETRY_SHB_SLAB_BYTES,
            names::TELEMETRY_SHB_BYTES_PER_IDLE_SUB,
        ] {
            assert!(seen.contains(telemetry), "{telemetry} not registered");
            assert!(telemetry.starts_with("telemetry."));
        }
        // The tail-forensics family (PR 9) must be registered so the
        // doctor-coverage test in gryphon-harness can see it.
        for forensics in [
            names::NET_QUEUE_WAIT_US,
            names::FORENSICS_EXEMPLAR_DROPPED,
            names::FORENSICS_INTERVAL_DROPPED,
        ] {
            assert!(seen.contains(forensics), "{forensics} not registered");
        }
        // The population-observability family must be registered so
        // the doctor-coverage test can see it.
        for sketch in [
            names::FORENSICS_TOPK_DROPPED,
            names::SKETCH_LAG_POPULATION,
            names::SKETCH_LAG_P50_US,
            names::SKETCH_LAG_P99_US,
            names::SKETCH_LAG_MAX_US,
            names::SKETCH_LAG_SKEW,
            names::SKETCH_DOMINANCE_SHARE,
            names::HEALTH_ALERT_LAG_SKEW,
            names::HEALTH_ALERT_ENTITY_DOMINANCE,
        ] {
            assert!(seen.contains(sketch), "{sketch} not registered");
        }
        // The interest-propagation cost counter backs the
        // parse-once-per-hop registration test in gryphon core.
        assert!(seen.contains(names::IB_INTEREST_FILTERS_PARSED));
        assert!(
            names::SKETCH_LAG_SKEW.starts_with("sketch.")
                && names::SKETCH_DOMINANCE_SHARE.starts_with("sketch."),
            "sketch gauges live under the sketch. family"
        );
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.min(), None);

        let mut h = Histogram::default();
        h.observe(42.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(42.0));
        assert_eq!(h.max(), Some(42.0));
        // One sample: every quantile clamps to it exactly.
        assert_eq!(h.percentile(0.0), Some(42.0));
        assert_eq!(h.percentile(0.5), Some(42.0));
        assert_eq!(h.percentile(1.0), Some(42.0));
    }

    #[test]
    fn histogram_percentiles_bounded_error() {
        let mut h = Histogram::default();
        for i in 1..=1_000u32 {
            h.observe(i as f64);
        }
        assert_eq!(h.count(), 1_000);
        assert!((h.mean().unwrap() - 500.5).abs() < 1e-9);
        for (q, exact) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.percentile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.20, "p{q}: est {est} vs exact {exact} (rel {rel})");
        }
        assert_eq!(h.percentile(1.0), Some(1_000.0));
    }

    #[test]
    fn histogram_handles_zero_negative_and_huge() {
        let mut h = Histogram::default();
        h.observe(0.0);
        h.observe(-5.0); // clamped to 0
        h.observe(1e18);
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(1e18));
        let p = h.percentile(0.5).unwrap();
        assert!((0.0..=1e18).contains(&p));
    }

    #[test]
    fn merge_combines_counters_series_histograms() {
        let mut a = Metrics::default();
        a.count("c", 1.0);
        a.record(5, "s", 1.0);
        a.observe("h", 10.0);
        let mut b = Metrics::default();
        b.count("c", 2.0);
        b.count("only_b", 4.0);
        b.record(2, "s", 2.0);
        b.observe("h", 30.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3.0);
        assert_eq!(a.counter("only_b"), 4.0);
        // Series samples interleave in time order after the merge.
        assert_eq!(a.series("s"), &[(2, 2.0), (5, 1.0)]);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(10.0));
        assert_eq!(h.max(), Some(30.0));
        assert_eq!(h.sum(), 40.0);
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut h = Histogram::default();
        h.observe(7.0);
        let before = (h.count(), h.min(), h.max());
        h.merge(&Histogram::default());
        assert_eq!((h.count(), h.min(), h.max()), before);
        let mut empty = Histogram::default();
        empty.merge(&h);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.percentile(0.5), Some(7.0));
    }

    /// Merging shard-local histograms must be indistinguishable from one
    /// histogram observing the combined stream: identical count, sum,
    /// min/max and bucketed percentiles (merge is bucket-wise addition,
    /// so the bucketed distributions are *equal*, not just close). This
    /// is the property the threaded runtime's stop()-time merge relies
    /// on.
    #[test]
    fn histogram_shard_merge_agrees_with_combined_stream() {
        // Deterministic pseudo-random-ish sample spread over 6 decades.
        let samples: Vec<f64> = (0..1_000u64)
            .map(|i| ((i * 2_654_435_761) % 1_000_000) as f64 / 7.0 + 0.01)
            .collect();
        let mut combined = Histogram::default();
        let mut shards = [
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        ];
        for (i, &v) in samples.iter().enumerate() {
            combined.observe(v);
            shards[i % shards.len()].observe(v);
        }
        let mut merged = Histogram::default();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.count(), combined.count());
        // Sums are f64 accumulations in different orders, so they agree
        // to rounding error but not bit-for-bit.
        let rel = (merged.sum() - combined.sum()).abs() / combined.sum();
        assert!(rel < 1e-12, "sum diverged: rel err {rel:e}");
        assert_eq!(merged.min(), combined.min());
        assert_eq!(merged.max(), combined.max());
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            assert_eq!(
                merged.percentile(q),
                combined.percentile(q),
                "bucketed p{q} must be bit-identical after merge"
            );
        }
    }

    /// Merge edge cases around emptiness: empty∪empty stays empty,
    /// single∪empty keeps the single sample exact, and a merge never
    /// invents min/max outside the observed samples.
    #[test]
    fn histogram_merge_empty_and_single_edge_cases() {
        let mut e = Histogram::default();
        e.merge(&Histogram::default());
        assert_eq!(e.count(), 0);
        assert_eq!(e.percentile(0.5), None);
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);

        let mut single = Histogram::default();
        single.observe(3.5);
        single.merge(&Histogram::default());
        assert_eq!(single.count(), 1);
        assert_eq!(single.percentile(0.0), Some(3.5));
        assert_eq!(single.percentile(1.0), Some(3.5));

        let mut other = Histogram::default();
        other.observe(8.0);
        single.merge(&other);
        assert_eq!(single.count(), 2);
        assert_eq!(single.min(), Some(3.5));
        assert_eq!(single.max(), Some(8.0));
        let p50 = single.percentile(0.5).unwrap();
        assert!((3.5..=8.0).contains(&p50));
    }

    /// `delta_since` isolates the samples observed between two
    /// snapshots: the window count/sum are exact, the window quantiles
    /// carry the usual bucket error, and min/max stay inside both the
    /// delta buckets and the cumulative bounds.
    #[test]
    fn histogram_delta_since_isolates_window() {
        let mut h = Histogram::default();
        for v in [10.0, 20.0, 30.0] {
            h.observe(v);
        }
        let snap = h.clone();
        for v in [1_000.0, 2_000.0, 4_000.0, 8_000.0] {
            h.observe(v);
        }
        let w = h.delta_since(&snap);
        assert_eq!(w.count(), 4);
        assert!((w.sum() - 15_000.0).abs() < 1e-9);
        // The window contains only the second batch; its quantiles must
        // land in that batch's range (±bucket error), far above the
        // first batch.
        let p50 = w.percentile(0.5).unwrap();
        assert!(
            (800.0..=2_500.0).contains(&p50),
            "window p50 {p50} should reflect only the new samples"
        );
        assert!(w.min().unwrap() >= 100.0, "old samples leaked into window");
        assert!(w.max().unwrap() <= h.max().unwrap());

        // No new samples: empty window.
        let empty = h.delta_since(&h.clone());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.percentile(0.5), None);
    }

    #[test]
    fn histogram_delta_since_from_empty_equals_self() {
        let mut h = Histogram::default();
        for v in [5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let w = h.delta_since(&Histogram::default());
        assert_eq!(w.count(), h.count());
        assert_eq!(w.sum(), h.sum());
        for q in [0.0, 0.5, 0.99, 1.0] {
            let a = w.percentile(q).unwrap();
            let b = h.percentile(q).unwrap();
            let rel = (a - b).abs() / b.max(1e-12);
            assert!(rel < 0.25, "p{q}: window {a} vs cumulative {b}");
        }
    }

    #[test]
    fn metrics_percentile_roundtrip() {
        let mut m = Metrics::default();
        assert_eq!(m.percentile("lat", 0.5), None);
        for v in [10.0, 20.0, 30.0, 40.0] {
            m.observe("lat", v);
        }
        let p50 = m.percentile("lat", 0.5).unwrap();
        assert!((10.0..=40.0).contains(&p50));
        assert_eq!(m.histogram("lat").unwrap().count(), 4);
    }
}
