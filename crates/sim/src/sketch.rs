//! Population observability (DESIGN.md §9): Space-Saving top-K
//! heavy-hitter sketches and the bucketed subscriber lag spectrum.
//!
//! Aggregate telemetry (histograms, timelines, exemplars) says *how*
//! the system behaved; at 10^6 durable subscribers it cannot say *who*
//! — which subscriber is slow, which pubend is hot, who is driving the
//! nack storm. This module answers those questions in bounded memory:
//!
//! * [`SpaceSaving`] — the Metwally/Agrawal/El Abbadi heavy-hitter
//!   sketch: at most K counters, any entity whose true weight exceeds
//!   the smallest tracked count is guaranteed to be present, and every
//!   reported count overestimates truth by at most the entry's recorded
//!   `err`. All ties break on entity id, so identical offer sequences
//!   produce identical sketches on every platform.
//! * [`LagSpectrum`] — a fixed array of power-of-two buckets holding
//!   the distribution of per-subscriber delivery lag, refilled by an
//!   O(live slab) sweep each sampler window. Quantiles are read at
//!   bucket resolution (within 2× of exact), which is plenty to detect
//!   p99-vs-p50 skew.
//! * [`PopulationSketch`] — one sketch per attribution dimension
//!   (slowest subscribers by lag, hottest subscribers by bytes, hottest
//!   pubends, top nackers) plus the spectrum, fed through the
//!   [`NodeCtx::attribute`](crate::runtime::NodeCtx::attribute) hook
//!   and drained into [`TopKSnapshot`]s once per sampler window.
//!
//! Like the forensics layer, everything here is a pure observer:
//! arming a sketch changes no queue order, no RNG draw and no
//! scheduling decision, so `golden_determinism` stays bit-identical
//! with the sketch armed or disarmed.

/// Attribution dimension: per-subscriber delivery lag (µs), refilled by
/// the slab sweep each window — top-K = slowest subscribers.
pub const DIM_SUB_LAG: &str = "slowest_subs_by_lag";
/// Attribution dimension: bytes delivered per subscriber this window.
pub const DIM_SUB_BYTES: &str = "hottest_subs_by_bytes";
/// Attribution dimension: bytes delivered per pubend this window.
pub const DIM_PUBEND_BYTES: &str = "hottest_pubends";
/// Attribution dimension: catchup holes (nacks) per subscriber.
pub const DIM_SUB_NACKS: &str = "top_nackers";

/// All dimensions in canonical drain order.
pub const DIMENSIONS: [&str; 4] = [DIM_SUB_LAG, DIM_SUB_BYTES, DIM_PUBEND_BYTES, DIM_SUB_NACKS];

/// Interns a parsed dimension back to its `&'static str` (unknown
/// dimensions collapse to `"other"` rather than failing the parse).
pub fn intern_dim(s: &str) -> &'static str {
    match s {
        "slowest_subs_by_lag" => DIM_SUB_LAG,
        "hottest_subs_by_bytes" => DIM_SUB_BYTES,
        "hottest_pubends" => DIM_PUBEND_BYTES,
        "top_nackers" => DIM_SUB_NACKS,
        _ => "other",
    }
}

/// Counters per dimension (the K in top-K). Memory is O(K) per dimension
/// regardless of population size.
const K: usize = 8;

/// One tracked entity in a [`SpaceSaving`] sketch (and one element of a
/// [`TopKSnapshot`]). `count` overestimates the entity's true offered
/// weight by at most `err`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKEntry {
    /// The attributed entity (subscriber id or pubend id).
    pub entity: u64,
    /// Estimated weight (true weight ≤ `count` ≤ true weight + `err`).
    pub count: u64,
    /// Maximum overestimation inherited from displaced entries.
    pub err: u64,
}

/// Space-Saving heavy-hitter sketch over `u64` entity ids.
///
/// Holds at most K `(entity, count, err)` entries. A new entity beyond
/// capacity displaces the minimum-count entry, inheriting its count as
/// both floor and error bound — the classic guarantee follows: every
/// entity whose true weight exceeds `min_count` is tracked, and
/// `count - err ≤ true ≤ count`. Eviction ties break on the *largest*
/// entity id (small ids are sticky); reporting ties break on the
/// *smallest* (stable ranked output). K is small (single digits to low
/// tens), so linear scans beat any pointer structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving {
    cap: usize,
    entries: Vec<TopKEntry>,
    total: u64,
}

impl SpaceSaving {
    /// An empty sketch tracking at most `k` entities. Capacity is
    /// preallocated so offers never allocate.
    pub fn new(k: usize) -> SpaceSaving {
        let cap = k.max(1);
        SpaceSaving {
            cap,
            entries: Vec::with_capacity(cap),
            total: 0,
        }
    }

    /// Adds `weight` to `entity`'s estimated count.
    pub fn offer(&mut self, entity: u64, weight: u64) {
        self.total += weight;
        if let Some(e) = self.entries.iter_mut().find(|e| e.entity == entity) {
            e.count += weight;
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.push(TopKEntry {
                entity,
                count: weight,
                err: 0,
            });
            return;
        }
        let mut min = 0;
        for (i, e) in self.entries.iter().enumerate() {
            let m = &self.entries[min];
            if e.count < m.count || (e.count == m.count && e.entity > m.entity) {
                min = i;
            }
        }
        let floor = self.entries[min].count;
        self.entries[min] = TopKEntry {
            entity,
            count: floor + weight,
            err: floor,
        };
    }

    /// Folds another sketch into this one (worker shards into the
    /// window's owner, in worker-index order). Entries arrive in canonical ranked order
    /// so the merge is deterministic; shared entities sum counts and
    /// error bounds, new entities displace minima as a plain offer
    /// would, additionally inheriting the incoming error bound.
    pub fn absorb(&mut self, other: &SpaceSaving) {
        for e in other.top() {
            if let Some(mine) = self.entries.iter_mut().find(|m| m.entity == e.entity) {
                mine.count += e.count;
                mine.err += e.err;
            } else {
                self.offer(e.entity, e.count);
                if let Some(mine) = self.entries.iter_mut().find(|m| m.entity == e.entity) {
                    mine.err += e.err;
                }
                self.total -= e.count; // offer() added it; fix below
            }
        }
        self.total += other.total;
    }

    /// The tracked entities ranked by estimated count descending,
    /// entity id ascending on ties.
    pub fn top(&self) -> Vec<TopKEntry> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.entity.cmp(&b.entity)));
        out
    }

    /// Total weight offered (exact — used for dominance shares).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest tracked count: any entity with true weight above this
    /// is guaranteed to be present.
    pub fn min_count(&self) -> u64 {
        if self.entries.len() < self.cap {
            return 0;
        }
        self.entries.iter().map(|e| e.count).min().unwrap_or(0)
    }

    /// Entities currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been offered since the last clear.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resets counts for the next window (capacity retained).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total = 0;
    }

    /// Heap bytes owned by the sketch — O(K), independent of how many
    /// distinct entities were offered.
    pub fn approx_heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<TopKEntry>()
    }
}

/// Number of power-of-two lag buckets: bucket 0 holds lag 0, bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i)` µs; 64 buckets cover the full `u64`
/// range.
const SPECTRUM_BUCKETS: usize = 65;

/// Bucketed distribution of per-subscriber delivery lag, refilled by
/// the slab sweep each sampler window. Fixed-size, allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LagSpectrum {
    buckets: [u64; SPECTRUM_BUCKETS],
    count: u64,
    max_us: u64,
}

impl Default for LagSpectrum {
    fn default() -> LagSpectrum {
        LagSpectrum {
            buckets: [0; SPECTRUM_BUCKETS],
            count: 0,
            max_us: 0,
        }
    }
}

impl LagSpectrum {
    /// An empty spectrum.
    pub fn new() -> LagSpectrum {
        LagSpectrum::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Records one subscriber's current lag.
    pub fn record(&mut self, lag_us: u64) {
        self.buckets[Self::bucket_of(lag_us)] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(lag_us);
    }

    /// The quantile `q ∈ [0, 1]` at bucket resolution: the upper bound
    /// of the first bucket whose cumulative population reaches
    /// `ceil(q · count)` (so the true quantile is within 2× below the
    /// returned value). Returns `None` on an empty spectrum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                });
            }
        }
        Some(self.max_us)
    }

    /// Subscribers recorded this window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest lag recorded this window (exact, not bucketed).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// True when nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds another spectrum into this one (worker-shard merge).
    pub fn absorb(&mut self, other: &LagSpectrum) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Resets the spectrum for the next window.
    pub fn clear(&mut self) {
        self.buckets = [0; SPECTRUM_BUCKETS];
        self.count = 0;
        self.max_us = 0;
    }
}

/// Summary statistics of one window's [`LagSpectrum`], published as
/// `sketch.*` gauges so the health rules (lag-skew, dominance) can
/// judge them like any other series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumStats {
    /// Subscribers swept this window.
    pub population: u64,
    /// Median subscriber lag (bucket upper bound, µs).
    pub p50_us: u64,
    /// 99th-percentile subscriber lag (bucket upper bound, µs).
    pub p99_us: u64,
    /// Worst subscriber lag (exact, µs).
    pub max_us: u64,
}

impl SpectrumStats {
    /// p99 ÷ max(p50, 1): ≈1 when the population is uniform, large
    /// when a minority of subscribers lags far behind the median.
    pub fn skew(&self) -> f64 {
        self.p99_us as f64 / (self.p50_us.max(1)) as f64
    }
}

/// One window's ranked top-K for one dimension — one line in
/// `topk.ndjson`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopKSnapshot {
    /// Window end (sampler timestamp).
    pub t_us: u64,
    /// One of the `DIM_*` constants (or `"other"` after a parse).
    pub dim: &'static str,
    /// Total weight offered to the dimension this window (exact).
    pub total: u64,
    /// Ranked entries (count descending, entity ascending on ties).
    pub entries: Vec<TopKEntry>,
}

impl TopKSnapshot {
    /// Share of the window's total weight held by the top entity
    /// (0 when the window was empty).
    pub fn dominance_share(&self) -> f64 {
        match (self.entries.first(), self.total) {
            (Some(top), total) if total > 0 => top.count as f64 / total as f64,
            _ => 0.0,
        }
    }

    /// [`dominance_share`](Self::dominance_share) gated for alerting:
    /// returns 0 unless the window saw at least
    /// [`MIN_DOMINANCE_POPULATION`] distinct entities. With one or two
    /// subscribers the top entity trivially holds most of the weight,
    /// so the `entity_dominance` rule would fire on every small
    /// topology (e.g. the single-subscriber latency experiment);
    /// starvation is only meaningful against a real population.
    pub fn alarm_share(&self) -> f64 {
        if self.entries.len() >= MIN_DOMINANCE_POPULATION {
            self.dominance_share()
        } else {
            0.0
        }
    }
}

/// Minimum distinct entities in a window before
/// [`TopKSnapshot::alarm_share`] reports a non-zero dominance share.
pub const MIN_DOMINANCE_POPULATION: usize = 4;

/// Appends the leading entity of the attribution dimension behind
/// `series` to an alert detail line, so a firing `lag_skew` or
/// `entity_dominance` alert *names* the subscriber driving it instead
/// of only reporting the gauge level. No-op when the series is not
/// sketch-driven or the dimension produced no window.
pub fn name_culprit(detail: &mut String, series: &str, snaps: &[TopKSnapshot]) {
    let dim = if series.starts_with("sketch.sub_lag.") {
        DIM_SUB_LAG
    } else if series == crate::metrics::names::SKETCH_DOMINANCE_SHARE {
        DIM_SUB_BYTES
    } else {
        return;
    };
    let Some(snap) = snaps.iter().find(|s| s.dim == dim) else {
        return;
    };
    // A zero-weight leader (everyone caught up / nothing delivered)
    // names nobody — common on the cleared transition.
    let Some(top) = snap.entries.first().filter(|e| e.count > 0) else {
        return;
    };
    use std::fmt::Write;
    let _ = write!(
        detail,
        "; top {dim} entity {} (weight {} of {})",
        top.entity, top.count, snap.total
    );
}

/// The armed per-runtime sketch state: one [`SpaceSaving`] per
/// attribution dimension plus the lag spectrum. Fed through
/// [`NodeCtx::attribute`](crate::runtime::NodeCtx::attribute); drained
/// once per sampler window, on both runtimes (on the threaded one after
/// the worker shards were absorbed in worker-index order).
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSketch {
    lag: SpaceSaving,
    bytes: SpaceSaving,
    pubends: SpaceSaving,
    nacks: SpaceSaving,
    spectrum: LagSpectrum,
}

impl PopulationSketch {
    /// An empty armed sketch of [`K`] counters per dimension.
    pub(crate) fn new() -> PopulationSketch {
        PopulationSketch::with_k(K)
    }

    fn with_k(k: usize) -> PopulationSketch {
        PopulationSketch {
            lag: SpaceSaving::new(k),
            bytes: SpaceSaving::new(k),
            pubends: SpaceSaving::new(k),
            nacks: SpaceSaving::new(k),
            spectrum: LagSpectrum::new(),
        }
    }

    /// Routes one attribution to its dimension. [`DIM_SUB_LAG`] feeds
    /// both the slowest-subscriber sketch and the lag spectrum; unknown
    /// dimensions are ignored (forward compatibility, same policy as
    /// unknown interval kinds).
    pub fn attribute(&mut self, dim: &str, entity: u64, weight: u64) {
        match intern_dim(dim) {
            d if d == DIM_SUB_LAG => {
                self.lag.offer(entity, weight);
                self.spectrum.record(weight);
            }
            d if d == DIM_SUB_BYTES => self.bytes.offer(entity, weight),
            d if d == DIM_PUBEND_BYTES => self.pubends.offer(entity, weight),
            d if d == DIM_SUB_NACKS => self.nacks.offer(entity, weight),
            _ => {}
        }
    }

    /// Folds another runtime shard's sketch into this one.
    pub fn absorb(&mut self, other: &PopulationSketch) {
        self.lag.absorb(&other.lag);
        self.bytes.absorb(&other.bytes);
        self.pubends.absorb(&other.pubends);
        self.nacks.absorb(&other.nacks);
        self.spectrum.absorb(&other.spectrum);
    }

    /// Forgets everything attributed so far (capacity retained) — what
    /// is left of a shard once the window's owner has absorbed it.
    pub fn clear(&mut self) {
        for sk in [
            &mut self.lag,
            &mut self.bytes,
            &mut self.pubends,
            &mut self.nacks,
        ] {
            sk.clear();
        }
        self.spectrum.clear();
    }

    /// True when nothing was attributed this window (drain emits no
    /// snapshots — quiet windows cost no timeline entries, mirroring
    /// the sampler's quiet-histogram policy).
    pub fn is_empty(&self) -> bool {
        self.lag.is_empty()
            && self.bytes.is_empty()
            && self.pubends.is_empty()
            && self.nacks.is_empty()
            && self.spectrum.is_empty()
    }

    /// Closes the window: returns one ranked [`TopKSnapshot`] per
    /// non-empty dimension (canonical [`DIMENSIONS`] order) plus the
    /// spectrum summary, then resets all state for the next window.
    pub fn drain(&mut self, t_us: u64) -> (Vec<TopKSnapshot>, Option<SpectrumStats>) {
        let mut snaps = Vec::new();
        for (dim, sk) in [
            (DIM_SUB_LAG, &mut self.lag),
            (DIM_SUB_BYTES, &mut self.bytes),
            (DIM_PUBEND_BYTES, &mut self.pubends),
            (DIM_SUB_NACKS, &mut self.nacks),
        ] {
            if sk.is_empty() {
                continue;
            }
            snaps.push(TopKSnapshot {
                t_us,
                dim,
                total: sk.total(),
                entries: sk.top(),
            });
            sk.clear();
        }
        let stats = if self.spectrum.is_empty() {
            None
        } else {
            let s = SpectrumStats {
                population: self.spectrum.count(),
                p50_us: self.spectrum.quantile(0.50).unwrap_or(0),
                p99_us: self.spectrum.quantile(0.99).unwrap_or(0),
                max_us: self.spectrum.max_us(),
            };
            self.spectrum.clear();
            Some(s)
        };
        (snaps, stats)
    }

    /// Heap bytes owned by all four sketches — O(K), the bound the
    /// mega-subs acceptance test pins against a 10^6 population.
    pub fn approx_heap_bytes(&self) -> usize {
        self.lag.approx_heap_bytes()
            + self.bytes.approx_heap_bytes()
            + self.pubends.approx_heap_bytes()
            + self.nacks.approx_heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_saving_tracks_exact_counts_under_capacity() {
        let mut s = SpaceSaving::new(4);
        s.offer(1, 10);
        s.offer(2, 5);
        s.offer(1, 3);
        let top = s.top();
        assert_eq!(top.len(), 2);
        assert_eq!(
            top[0],
            TopKEntry {
                entity: 1,
                count: 13,
                err: 0
            }
        );
        assert_eq!(
            top[1],
            TopKEntry {
                entity: 2,
                count: 5,
                err: 0
            }
        );
        assert_eq!(s.total(), 18);
        assert_eq!(s.min_count(), 0, "under capacity nothing was displaced");
    }

    #[test]
    fn space_saving_displaces_minimum_and_bounds_error() {
        let mut s = SpaceSaving::new(2);
        s.offer(1, 100);
        s.offer(2, 1);
        s.offer(3, 50); // displaces entity 2 (count 1)
        let top = s.top();
        assert_eq!(top[0].entity, 1);
        assert_eq!(
            top[1],
            TopKEntry {
                entity: 3,
                count: 51,
                err: 1
            }
        );
        // True weight of 3 is 50: count (51) overestimates by ≤ err (1).
        assert!(top[1].count - top[1].err <= 50 && 50 <= top[1].count);
        assert_eq!(s.total(), 151, "total is exact even after displacement");
    }

    #[test]
    fn space_saving_ties_break_on_entity_id() {
        // Eviction tie: equal counts — the largest entity id goes.
        let mut s = SpaceSaving::new(2);
        s.offer(7, 5);
        s.offer(3, 5);
        s.offer(9, 1); // min-count tie between 7 and 3 → 7 evicted
        assert!(s.top().iter().any(|e| e.entity == 3));
        assert!(!s.top().iter().any(|e| e.entity == 7));
        // Report tie: equal counts rank by ascending entity id.
        let mut r = SpaceSaving::new(4);
        r.offer(9, 5);
        r.offer(2, 5);
        let ids: Vec<u64> = r.top().iter().map(|e| e.entity).collect();
        assert_eq!(ids, vec![2, 9]);
    }

    #[test]
    fn space_saving_absorb_sums_shared_and_keeps_totals() {
        let mut a = SpaceSaving::new(3);
        let mut b = SpaceSaving::new(3);
        a.offer(1, 10);
        a.offer(2, 4);
        b.offer(1, 5);
        b.offer(3, 7);
        a.absorb(&b);
        assert_eq!(a.total(), 26);
        let top = a.top();
        assert_eq!(
            top[0],
            TopKEntry {
                entity: 1,
                count: 15,
                err: 0
            }
        );
        assert!(top.iter().any(|e| e.entity == 3 && e.count == 7));
    }

    #[test]
    fn space_saving_memory_is_o_of_k() {
        let mut s = SpaceSaving::new(8);
        for i in 0..100_000u64 {
            s.offer(i, 1 + i % 7);
        }
        assert_eq!(s.len(), 8);
        assert!(
            s.approx_heap_bytes() <= 8 * std::mem::size_of::<TopKEntry>(),
            "capacity must not grow with distinct entities"
        );
    }

    #[test]
    fn spectrum_quantiles_at_bucket_resolution() {
        let mut sp = LagSpectrum::new();
        assert_eq!(sp.quantile(0.5), None);
        // 50 caught-up subscribers and one straggler: the p99 rank
        // (ceil(0.99·51) = 51) reaches the straggler's bucket.
        for _ in 0..50 {
            sp.record(0);
        }
        sp.record(1_000_000);
        assert_eq!(sp.count(), 51);
        assert_eq!(sp.quantile(0.5), Some(0));
        let p99 = sp.quantile(0.99).unwrap();
        assert!(p99 >= 1_000_000 / 2, "p99 bucket must cover the outlier");
        assert_eq!(sp.max_us(), 1_000_000);
        let stats = SpectrumStats {
            population: sp.count(),
            p50_us: sp.quantile(0.5).unwrap(),
            p99_us: p99,
            max_us: sp.max_us(),
        };
        assert!(stats.skew() > 100.0, "one straggler in 51 → massive skew");
        sp.clear();
        assert!(sp.is_empty());
    }

    #[test]
    fn spectrum_absorb_merges_buckets() {
        let mut a = LagSpectrum::new();
        let mut b = LagSpectrum::new();
        a.record(10);
        b.record(1_000);
        b.record(1_000);
        a.absorb(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_us(), 1_000);
        assert!(a.quantile(1.0).unwrap() >= 1_000);
    }

    #[test]
    fn population_sketch_drains_per_dimension_and_resets() {
        let mut p = PopulationSketch::with_k(4);
        assert!(p.is_empty());
        p.attribute(DIM_SUB_LAG, 42, 5_000);
        p.attribute(DIM_SUB_LAG, 7, 10);
        p.attribute(DIM_SUB_BYTES, 42, 4_096);
        p.attribute(DIM_PUBEND_BYTES, 3, 4_096);
        p.attribute(DIM_SUB_NACKS, 42, 2);
        p.attribute("mystery_dimension", 1, 1); // ignored
        let (snaps, stats) = p.drain(1_000_000);
        assert_eq!(snaps.len(), 4);
        assert_eq!(snaps[0].dim, DIM_SUB_LAG);
        assert_eq!(snaps[0].entries[0].entity, 42, "slowest sub ranked first");
        assert_eq!(snaps[1].dim, DIM_SUB_BYTES);
        assert!((snaps[1].dominance_share() - 1.0).abs() < 1e-9);
        assert_eq!(
            snaps[1].alarm_share(),
            0.0,
            "a one-entity window is below the alerting population floor"
        );
        let stats = stats.expect("spectrum was fed");
        assert_eq!(stats.population, 2);
        assert!(stats.skew() > 1.0);
        assert!(p.is_empty(), "drain closes the window");
        let (snaps2, stats2) = p.drain(2_000_000);
        assert!(
            snaps2.is_empty() && stats2.is_none(),
            "quiet window emits nothing"
        );
    }

    #[test]
    fn name_culprit_names_the_leading_entity() {
        let mut p = PopulationSketch::with_k(4);
        p.attribute(DIM_SUB_LAG, 2000, 500_000);
        p.attribute(DIM_SUB_LAG, 7, 0);
        let (snaps, _) = p.drain(1_000_000);

        let mut detail = String::from("level 99 > ceiling 64");
        name_culprit(&mut detail, "sketch.sub_lag.skew", &snaps);
        assert_eq!(
            detail,
            "level 99 > ceiling 64; top slowest_subs_by_lag entity 2000 (weight 500000 of 500000)"
        );

        // Non-sketch series and missing dimensions append nothing.
        let mut other = String::from("x");
        name_culprit(&mut other, "telemetry.queue_depth", &snaps);
        name_culprit(
            &mut other,
            crate::metrics::names::SKETCH_DOMINANCE_SHARE,
            &snaps,
        );
        assert_eq!(other, "x");

        // A zero-weight leader (everyone caught up) names nobody.
        let mut p = PopulationSketch::with_k(4);
        p.attribute(DIM_SUB_LAG, 1, 0);
        let (snaps, _) = p.drain(2_000_000);
        let mut quiet = String::from("back within bounds");
        name_culprit(&mut quiet, "sketch.sub_lag.skew", &snaps);
        assert_eq!(quiet, "back within bounds");
    }

    #[test]
    fn dimension_interning_round_trips() {
        for d in DIMENSIONS {
            assert_eq!(intern_dim(d), d);
        }
        assert_eq!(intern_dim("mystery"), "other");
    }
}
