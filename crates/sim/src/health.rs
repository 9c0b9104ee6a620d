//! Online health engine: declarative rules over the telemetry timeline
//! (DESIGN.md §9).
//!
//! The windowed [`Sampler`](crate::telemetry::Sampler) turns raw metrics
//! into a [`Timeline`]; this module *judges* that timeline. A
//! [`HealthEngine`] holds a set of [`HealthRule`]s — gauge ceilings,
//! counter-rate bounds, sustained-growth trend detection, SLO burn rate
//! over latency quantile series — and is evaluated once per sample
//! window. Rules carry hysteresis: a rule transitions to *firing* when
//! its predicate first holds and back to *cleared* when it stops, and
//! each transition produces one [`AlertRecord`].
//!
//! # Determinism
//!
//! The engine is a pure observer, exactly like the sampler it feeds
//! from: it reads the timeline, never the scheduler, and only ever
//! considers samples at or before the evaluation time. Under the
//! simulator it runs between scheduler events at virtual sample times;
//! offline (`xp doctor check`) the same code replays over an exported
//! timeline at the same sample times and reproduces the identical alert
//! log — the replay-parity test in `tests/health.rs` pins this. A run
//! that raises zero alerts emits zero trace events from the engine, so
//! traces and deliveries stay bit-identical with the engine on or off
//! (`golden_determinism` asserts this).

use crate::telemetry::Timeline;

/// Which side of a hysteresis transition an [`AlertRecord`] records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AlertState {
    /// The rule's predicate started holding this window.
    #[default]
    Firing,
    /// The rule's predicate stopped holding this window.
    Cleared,
}

impl AlertState {
    /// Stable lowercase rendering (the ndjson wire form).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Cleared => "cleared",
        }
    }

    /// The inverse of [`as_str`](AlertState::as_str).
    pub fn parse(s: &str) -> Option<AlertState> {
        match s {
            "firing" => Some(AlertState::Firing),
            "cleared" => Some(AlertState::Cleared),
            _ => None,
        }
    }
}

/// One hysteresis transition of one rule: the structured alert record
/// stored on the [`Timeline`], exported into run bundles, and mirrored
/// into the trace stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertRecord {
    /// Sample-window time of the transition (virtual µs under the
    /// simulator, wall µs since net start under `gryphon-net`).
    pub t_us: u64,
    /// Rule name (`health.alert.<rule>` counts firing transitions).
    pub rule: String,
    /// The timeline series the rule watches.
    pub series: String,
    /// The observed value that crossed (or re-crossed) the threshold.
    pub value: f64,
    /// The rule's threshold at the transition.
    pub threshold: f64,
    /// Firing or cleared.
    pub state: AlertState,
    /// Human-readable one-liner for reports and `xp doctor inspect`.
    pub detail: String,
}

/// The predicate a [`HealthRule`] evaluates each window.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Fires while the series' latest sample exceeds `limit`
    /// (instantaneous level check, e.g. queue depth).
    GaugeCeiling {
        /// Inclusive ceiling; the rule fires strictly above it.
        limit: f64,
    },
    /// Fires while the series' latest sample is below `min`
    /// (liveness floor, e.g. a delivery rate that must not stall).
    RateFloor {
        /// Inclusive floor; the rule fires strictly below it.
        min: f64,
    },
    /// Fires while the series' latest sample exceeds `max`. With
    /// `max: 0.0` on a violation-counter `.rate` series this is a
    /// "must never happen" rule.
    RateCeiling {
        /// Inclusive ceiling; the rule fires strictly above it.
        max: f64,
    },
    /// Trend detector: fires when the series did not decrease across
    /// any of the last `windows` window-over-window deltas *and* rose
    /// by at least `min_delta` in total — a backlog that keeps growing
    /// instead of draining.
    SustainedGrowth {
        /// Number of consecutive window deltas that must be ≥ 0.
        windows: usize,
        /// Minimum total rise over those windows.
        min_delta: f64,
    },
    /// Level check with persistence: fires only when the last
    /// `windows` samples *each* exceed `limit` — a one-window spike
    /// (e.g. a reconnect storm's fresh catchup streams reading as lag)
    /// stays quiet, a condition that holds across windows fires.
    SustainedCeiling {
        /// Inclusive ceiling; every recent sample must sit strictly
        /// above it.
        limit: f64,
        /// Number of consecutive recent samples that must breach
        /// (quiet until that many samples exist).
        windows: usize,
    },
    /// SLO burn rate over a latency quantile series (e.g.
    /// `lineage.stage.deliver_us.q99`): of the last `windows` samples,
    /// the fraction above `target` must stay within `budget`; the rule
    /// fires when the bad-window fraction exceeds the budget.
    SloBurn {
        /// Latency objective the watched quantile must stay under.
        target: f64,
        /// Tolerated fraction of bad windows in `[0, 1]`.
        budget: f64,
        /// Number of recent samples the burn fraction is computed over
        /// (the rule stays quiet until that many samples exist).
        windows: usize,
    },
}

/// A named rule binding a [`RuleKind`] to one timeline series.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRule {
    /// Stable rule name; firing transitions bump
    /// `health.alert.<name>`.
    pub name: String,
    /// Timeline series the predicate reads.
    pub series: String,
    /// The predicate.
    pub kind: RuleKind,
}

impl HealthRule {
    /// Convenience constructor.
    pub fn new(name: &str, series: &str, kind: RuleKind) -> HealthRule {
        HealthRule {
            name: name.to_owned(),
            series: series.to_owned(),
            kind,
        }
    }

    /// The counter bumped on each firing transition of this rule.
    pub fn counter_name(&self) -> String {
        format!("health.alert.{}", self.name)
    }
}

/// The default rule set `xp --bundle-out` arms and `xp doctor check`
/// replays. Thresholds are deliberately generous: a healthy experiment —
/// including the reconnect churn the paper's workloads exercise — must
/// stay alert-free, so CI can assert "clean run ⇒ zero alerts".
pub fn default_rules() -> Vec<HealthRule> {
    use crate::metrics::names;
    vec![
        // Catchup backlog that keeps growing window over window means
        // recovery is not keeping up with the input stream (the
        // overload signal the flow-control roadmap item consumes).
        HealthRule::new(
            "catchup_backlog",
            names::TELEMETRY_CATCHUP_BACKLOG_TICKS,
            RuleKind::SustainedGrowth {
                windows: 4,
                min_delta: 500.0,
            },
        ),
        // Scheduler/channel queue depth far beyond anything a healthy
        // run reaches.
        HealthRule::new(
            "queue_depth",
            names::TELEMETRY_QUEUE_DEPTH,
            RuleKind::GaugeCeiling { limit: 1_000_000.0 },
        ),
        // Protocol invariants must never fire: any nonzero violation
        // rate in a window is an alert.
        HealthRule::new(
            "watchdog_constream_gap",
            &format!("{}.rate", names::WATCHDOG_CONSTREAM_GAP),
            RuleKind::RateCeiling { max: 0.0 },
        ),
        HealthRule::new(
            "watchdog_doubt_regress",
            &format!("{}.rate", names::WATCHDOG_DOUBT_REGRESSION),
            RuleKind::RateCeiling { max: 0.0 },
        ),
        HealthRule::new(
            "watchdog_double_log",
            &format!("{}.rate", names::WATCHDOG_DUPLICATE_LOG),
            RuleKind::RateCeiling { max: 0.0 },
        ),
        HealthRule::new(
            "ledger_duplicate",
            &format!("{}.rate", names::LINEAGE_LEDGER_DUPLICATE),
            RuleKind::RateCeiling { max: 0.0 },
        ),
        // End-to-end delivery SLO: the windowed p99 must not sit above
        // 30 virtual seconds for more than half the recent windows
        // (catchup after a long outage legitimately produces seconds of
        // latency; half a minute sustained means deliveries are stuck).
        HealthRule::new(
            "deliver_slo",
            &format!("{}.q99", names::LINEAGE_STAGE_DELIVER_US),
            RuleKind::SloBurn {
                target: 30_000_000.0,
                budget: 0.5,
                windows: 8,
            },
        ),
        // Lag-spectrum skew (DESIGN.md §9): the population's p99
        // delivery lag diverging from its p50 means a minority of
        // subscribers is falling far behind the median — the slow
        // consumers the top-K sketch then names. The spectrum buckets
        // are powers of two (±2× resolution), so the ceiling leaves
        // ample room above uniform-population noise.
        // Two consecutive windows: a reconnect storm leaves catchup
        // streams one window old (real lag, but transient by
        // construction); a subscriber still skewing the spectrum a
        // window later is genuinely stuck.
        HealthRule::new(
            "lag_skew",
            names::SKETCH_LAG_SKEW,
            RuleKind::SustainedCeiling {
                limit: 64.0,
                windows: 2,
            },
        ),
        // Single-entity dominance: one subscriber absorbing most of a
        // window's delivered bytes starves the rest of the population
        // (fairness signal for the admission-control roadmap item).
        HealthRule::new(
            "entity_dominance",
            names::SKETCH_DOMINANCE_SHARE,
            RuleKind::GaugeCeiling { limit: 0.75 },
        ),
    ]
}

/// Evaluates a rule set against a growing [`Timeline`] with hysteresis,
/// producing [`AlertRecord`]s on every firing/cleared transition.
///
/// Construction does nothing; call [`HealthEngine::evaluate`] once per
/// sample window (the simulator and the threaded runtime both do this
/// right after the sampler records the window).
#[derive(Debug, Clone)]
pub struct HealthEngine {
    rules: Vec<HealthRule>,
    firing: Vec<bool>,
    firings: u64,
}

impl HealthEngine {
    /// An engine over `rules` (see [`default_rules`]).
    pub fn new(rules: Vec<HealthRule>) -> HealthEngine {
        let firing = vec![false; rules.len()];
        HealthEngine {
            rules,
            firing,
            firings: 0,
        }
    }

    /// The rules under evaluation.
    pub fn rules(&self) -> &[HealthRule] {
        &self.rules
    }

    /// Total firing transitions so far.
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// Registers every rule's `health.alert.<rule>` counter at zero so
    /// a snapshot (a bundle's `metrics.csv`, a flight post-mortem) shows
    /// the armed rule set even on clean runs.
    pub fn prime(&self, metrics: &mut crate::metrics::Metrics) {
        for rule in &self.rules {
            metrics.count(&rule.counter_name(), 0.0);
        }
    }

    /// Evaluates every rule at sample time `t_us` against `timeline`,
    /// returning the transitions (possibly empty). Only samples at or
    /// before `t_us` are considered, which makes an offline replay over
    /// a complete exported timeline reproduce the online alert log
    /// exactly.
    pub fn evaluate(&mut self, t_us: u64, timeline: &Timeline) -> Vec<AlertRecord> {
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let samples = timeline.series(&rule.series);
            let upto = samples.partition_point(|&(t, _)| t <= t_us);
            let window = &samples[..upto];
            let verdict = Self::judge(&rule.kind, window);
            let was_firing = self.firing[i];
            match verdict {
                Some((value, threshold, detail)) if !was_firing => {
                    self.firing[i] = true;
                    self.firings += 1;
                    out.push(AlertRecord {
                        t_us,
                        rule: rule.name.clone(),
                        series: rule.series.clone(),
                        value,
                        threshold,
                        state: AlertState::Firing,
                        detail,
                    });
                }
                None if was_firing => {
                    self.firing[i] = false;
                    let value = window.last().map(|&(_, v)| v).unwrap_or(0.0);
                    out.push(AlertRecord {
                        t_us,
                        rule: rule.name.clone(),
                        series: rule.series.clone(),
                        value,
                        threshold: 0.0,
                        state: AlertState::Cleared,
                        detail: format!("{} back within bounds", rule.series),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Returns `Some((value, threshold, detail))` when the predicate
    /// holds over `window` (samples sorted by time, all ≤ now); `None`
    /// otherwise. Insufficient data never fires.
    fn judge(kind: &RuleKind, window: &[(u64, f64)]) -> Option<(f64, f64, String)> {
        let last = window.last().map(|&(_, v)| v);
        match *kind {
            RuleKind::GaugeCeiling { limit } => {
                let v = last?;
                (v > limit).then(|| (v, limit, format!("level {v} > ceiling {limit}")))
            }
            RuleKind::RateFloor { min } => {
                let v = last?;
                (v < min).then(|| (v, min, format!("rate {v} < floor {min}")))
            }
            RuleKind::RateCeiling { max } => {
                let v = last?;
                (v > max).then(|| (v, max, format!("rate {v} > ceiling {max}")))
            }
            RuleKind::SustainedGrowth { windows, min_delta } => {
                if window.len() < windows + 1 {
                    return None;
                }
                let tail = &window[window.len() - (windows + 1)..];
                let non_decreasing = tail.windows(2).all(|w| w[1].1 >= w[0].1);
                let rise = tail[tail.len() - 1].1 - tail[0].1;
                (non_decreasing && rise >= min_delta).then(|| {
                    (
                        rise,
                        min_delta,
                        format!("rose {rise:.0} over {windows} windows (min {min_delta:.0})"),
                    )
                })
            }
            RuleKind::SustainedCeiling { limit, windows } => {
                if window.len() < windows {
                    return None;
                }
                let tail = &window[window.len() - windows..];
                let v = tail[tail.len() - 1].1;
                tail.iter().all(|&(_, s)| s > limit).then(|| {
                    (
                        v,
                        limit,
                        format!("level {v} > ceiling {limit} for {windows} windows"),
                    )
                })
            }
            RuleKind::SloBurn {
                target,
                budget,
                windows,
            } => {
                if window.len() < windows {
                    return None;
                }
                let tail = &window[window.len() - windows..];
                let bad = tail.iter().filter(|&&(_, v)| v > target).count();
                let burn = bad as f64 / windows as f64;
                (burn > budget).then(|| {
                    (
                        burn,
                        budget,
                        format!("{bad}/{windows} windows above {target:.0} (budget {budget:.2})"),
                    )
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline_with(series: &str, samples: &[(u64, f64)]) -> Timeline {
        let mut t = Timeline::new(500);
        for &(ts, v) in samples {
            t.record(ts, series, v);
        }
        t
    }

    #[test]
    fn sustained_ceiling_ignores_one_window_spikes() {
        let rule = HealthRule::new(
            "skew",
            "g",
            RuleKind::SustainedCeiling {
                limit: 64.0,
                windows: 2,
            },
        );
        let mut e = HealthEngine::new(vec![rule]);
        // Spike for one window, back to normal: quiet throughout.
        let t = timeline_with("g", &[(500, 0.0), (1_000, 500_000.0), (1_500, 0.0)]);
        for at in [500, 1_000, 1_500] {
            assert!(e.evaluate(at, &t).is_empty(), "spike at {at} must not fire");
        }
        // Two consecutive breaching windows: fires at the second, and
        // clears as soon as one window drops back under.
        let t = timeline_with("g", &[(500, 500_000.0), (1_000, 500_000.0), (1_500, 0.0)]);
        let mut e = HealthEngine::new(vec![HealthRule::new(
            "skew",
            "g",
            RuleKind::SustainedCeiling {
                limit: 64.0,
                windows: 2,
            },
        )]);
        assert!(
            e.evaluate(500, &t).is_empty(),
            "one sample is not sustained"
        );
        let fired = e.evaluate(1_000, &t);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].state, AlertState::Firing);
        let cleared = e.evaluate(1_500, &t);
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].state, AlertState::Cleared);
    }

    #[test]
    fn gauge_ceiling_fires_and_clears_with_hysteresis() {
        let rule = HealthRule::new("q", "g", RuleKind::GaugeCeiling { limit: 10.0 });
        let mut e = HealthEngine::new(vec![rule]);
        let t = timeline_with(
            "g",
            &[(500, 5.0), (1_000, 15.0), (1_500, 20.0), (2_000, 3.0)],
        );
        assert!(e.evaluate(500, &t).is_empty());
        let fired = e.evaluate(1_000, &t);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].state, AlertState::Firing);
        assert_eq!(fired[0].value, 15.0);
        // Still violated: no second record while already firing.
        assert!(e.evaluate(1_500, &t).is_empty());
        let cleared = e.evaluate(2_000, &t);
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].state, AlertState::Cleared);
        assert_eq!(e.firings(), 1);
    }

    #[test]
    fn rate_bounds() {
        let mut e = HealthEngine::new(vec![
            HealthRule::new("stall", "r", RuleKind::RateFloor { min: 1.0 }),
            HealthRule::new("spike", "r", RuleKind::RateCeiling { max: 100.0 }),
        ]);
        let t = timeline_with("r", &[(500, 0.0), (1_000, 50.0), (1_500, 200.0)]);
        let a = e.evaluate(500, &t);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].rule, "stall");
        let b = e.evaluate(1_000, &t);
        // Stall clears, nothing else fires.
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].state, AlertState::Cleared);
        let c = e.evaluate(1_500, &t);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].rule, "spike");
    }

    #[test]
    fn missing_series_never_fires() {
        let mut e = HealthEngine::new(default_rules());
        let t = Timeline::new(500);
        for at in [500, 1_000, 1_500] {
            assert!(e.evaluate(at, &t).is_empty());
        }
        assert_eq!(e.firings(), 0);
    }

    #[test]
    fn sustained_growth_needs_monotone_rise() {
        let rule = HealthRule::new(
            "backlog",
            "b",
            RuleKind::SustainedGrowth {
                windows: 2,
                min_delta: 100.0,
            },
        );
        // Flat → growth → drain.
        let t = timeline_with(
            "b",
            &[
                (500, 0.0),
                (1_000, 0.0),
                (1_500, 400.0),
                (2_000, 900.0),
                (2_500, 600.0),
            ],
        );
        let mut e = HealthEngine::new(vec![rule.clone()]);
        assert!(e.evaluate(1_000, &t).is_empty(), "flat must not fire");
        let fired = e.evaluate(1_500, &t);
        assert_eq!(fired.len(), 1, "0→0→400 is a ≥100 monotone rise");
        assert!(e.evaluate(2_000, &t).is_empty(), "still firing");
        let cleared = e.evaluate(2_500, &t);
        assert_eq!(cleared[0].state, AlertState::Cleared);

        // A dip inside the lookback suppresses the trend.
        let dip = timeline_with("b", &[(500, 0.0), (1_000, 500.0), (1_500, 400.0)]);
        let mut e2 = HealthEngine::new(vec![rule]);
        assert!(e2.evaluate(1_500, &dip).is_empty());
    }

    #[test]
    fn slo_burn_counts_bad_windows() {
        let rule = HealthRule::new(
            "slo",
            "lat.q99",
            RuleKind::SloBurn {
                target: 1_000.0,
                budget: 0.5,
                windows: 4,
            },
        );
        let mut e = HealthEngine::new(vec![rule]);
        let t = timeline_with(
            "lat.q99",
            &[
                (500, 2_000.0),
                (1_000, 2_000.0),
                (1_500, 100.0),
                (2_000, 2_000.0),
                (2_500, 100.0),
                (3_000, 100.0),
            ],
        );
        // Fewer than `windows` samples: quiet even though all are bad.
        assert!(e.evaluate(1_000, &t).is_empty());
        // Last 4 of [2000,2000,100,2000]: 3/4 bad > 0.5 budget.
        let fired = e.evaluate(2_000, &t);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].detail.contains("3/4"));
        // Last 4 of [100,2000,100,100]: 1/4 ≤ 0.5 → clears.
        let cleared = e.evaluate(3_000, &t);
        assert_eq!(cleared[0].state, AlertState::Cleared);
    }

    #[test]
    fn evaluate_ignores_future_samples() {
        // Offline replay parity: evaluating at t must not see samples
        // after t even when the timeline already contains them.
        let rule = HealthRule::new("q", "g", RuleKind::GaugeCeiling { limit: 10.0 });
        let t = timeline_with("g", &[(500, 5.0), (1_000, 99.0)]);
        let mut e = HealthEngine::new(vec![rule]);
        assert!(
            e.evaluate(500, &t).is_empty(),
            "the future 99.0 sample must be invisible at t=500"
        );
        assert_eq!(e.evaluate(1_000, &t).len(), 1);
    }

    #[test]
    fn prime_registers_zero_counters() {
        let e = HealthEngine::new(default_rules());
        let mut m = crate::metrics::Metrics::default();
        e.prime(&mut m);
        assert_eq!(m.counter("health.alert.catchup_backlog"), 0.0);
        assert!(m
            .counter_names()
            .iter()
            .all(|n| !n.starts_with("health.alert.") || m.counter(n) == 0.0));
        assert!(m.counter_names().len() >= default_rules().len());
    }
}
