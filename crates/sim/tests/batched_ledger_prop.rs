//! A delivered event observed once for all its subscribers
//! (`Observers::delivered`) must leave the observers exactly as the same
//! deliveries traced one `Delivered` record at a time: the same ledger
//! counters, violations and detail strings (each at the same point of
//! the stream), the same offline audit, the same spans, the same stage
//! histograms (count, sum and buckets) and orphan count, and the same
//! retained trace records.
//!
//! The streams mix session resumes, ingests, births, durable logs,
//! L-conversions, gap notices and delivery batches whose subscriber
//! lists repeat subscribers, reach below a session's resume point, and
//! name events no span has seen.

use gryphon_sim::{
    names, DeliveryPath, Histogram, LedgerAudit, Observers, Span, TraceEvent, TraceRecord,
};
use gryphon_types::{LineageKey, NodeId, PubendId, SubscriberId, Timestamp};
use proptest::prelude::*;

const PHB: NodeId = NodeId(1);
const SHBS: [NodeId; 2] = [NodeId(3), NodeId(4)];

#[derive(Debug, Clone)]
enum Op {
    /// A record traced as is on both sides.
    Record(NodeId, TraceEvent),
    /// One delivered event: `(pubend, ts)` at an SHB to each listed
    /// subscriber.
    Batch(NodeId, PubendId, Timestamp, DeliveryPath, Vec<SubscriberId>),
}

fn op() -> impl Strategy<Value = Op> {
    let p = |p: u32| PubendId(p);
    let ts = Timestamp;
    prop_oneof![
        2 => (0u64..5, 0u32..2, 0u64..24).prop_map(move |(s, pb, at)| Op::Record(
            SHBS[0],
            TraceEvent::SubResumed { sub: SubscriberId(s), pubend: p(pb), at: ts(at) },
        )),
        3 => (0usize..2, 0u32..2, 1u64..40).prop_map(move |(n, pb, t)| Op::Record(
            SHBS[n],
            TraceEvent::ShbIngested { pubend: p(pb), ts: ts(t) },
        )),
        2 => (0u32..2, 1u64..40).prop_map(move |(pb, t)| Op::Record(
            PHB,
            TraceEvent::PubendTimestamped { pubend: p(pb), ts: ts(t) },
        )),
        1 => (0u32..2, 1u64..40).prop_map(move |(pb, t)| Op::Record(
            PHB,
            TraceEvent::EventLogged { pubend: p(pb), ts: ts(t), bytes: 64 },
        )),
        1 => (0u32..2, 0u64..30).prop_map(move |(pb, upto)| Op::Record(
            PHB,
            TraceEvent::LConverted { pubend: p(pb), upto: ts(upto) },
        )),
        1 => (0u64..5, 0u32..2, 0u64..30).prop_map(move |(s, pb, upto)| Op::Record(
            SHBS[0],
            TraceEvent::GapDelivered { pubend: p(pb), sub: SubscriberId(s), upto: ts(upto) },
        )),
        1 => (0usize..2, 0u32..2, 0u64..48).prop_map(move |(n, pb, h)| Op::Record(
            SHBS[n],
            TraceEvent::DoubtAdvanced { pubend: p(pb), horizon: ts(h) },
        )),
        6 => (
            (0usize..2, 0u32..2, 1u64..40, 0u8..2),
            prop::collection::vec(0u64..5, 1..8),
        )
            .prop_map(move |((n, pb, t, path), subs)| Op::Batch(
                SHBS[n],
                p(pb),
                ts(t),
                if path == 0 { DeliveryPath::Constream } else { DeliveryPath::Catchup },
                subs.into_iter().map(SubscriberId).collect(),
            )),
    ]
}

/// Every trip in stream order: the record and the ledger's detail
/// string at that moment.
type Trips = Vec<(TraceRecord, Option<String>)>;

fn fresh() -> Observers {
    // A small ring, so eviction and `trace.dropped_records` are compared
    // too.
    let mut obs = Observers::new(48);
    obs.lineage_mut().set_full_audit(true);
    // Random horizons regress; the watchdog counts that alike on both
    // sides.
    obs
}

fn trace(obs: &mut Observers, trips: &mut Trips, rec: TraceRecord) {
    if let Some(rec) = obs.trace(rec) {
        let detail = obs.lineage().last_violation().map(|(_, d)| d.to_owned());
        trips.push((rec, detail));
    }
}

/// Feeds `ops` with each batch as one `Observers::delivered` call.
fn batched(ops: &[Op]) -> (Observers, Trips) {
    let mut obs = fresh();
    let mut trips = Trips::new();
    for (i, op) in ops.iter().enumerate() {
        let t_us = 100 + 37 * i as u64;
        match op {
            Op::Record(node, event) => {
                let rec = TraceRecord {
                    t_us,
                    node: *node,
                    event: event.clone(),
                };
                trace(&mut obs, &mut trips, rec);
            }
            Op::Batch(node, pubend, ts, path, subs) => {
                obs.delivered(t_us, *node, *pubend, *ts, *path, subs, |obs, rec| {
                    let detail = obs.lineage().last_violation().map(|(_, d)| d.to_owned());
                    trips.push((rec, detail));
                });
            }
        }
    }
    (obs, trips)
}

/// Feeds `ops` with each batch expanded into single `Delivered` records.
fn expanded(ops: &[Op]) -> (Observers, Trips) {
    let mut obs = fresh();
    let mut trips = Trips::new();
    for (i, op) in ops.iter().enumerate() {
        let t_us = 100 + 37 * i as u64;
        let records: Vec<(NodeId, TraceEvent)> = match op {
            Op::Record(node, event) => vec![(*node, event.clone())],
            Op::Batch(node, pubend, ts, path, subs) => subs
                .iter()
                .map(|&sub| {
                    let event = TraceEvent::Delivered {
                        pubend: *pubend,
                        ts: *ts,
                        sub,
                        path: *path,
                    };
                    (*node, event)
                })
                .collect(),
        };
        for (node, event) in records {
            let rec = TraceRecord { t_us, node, event };
            trace(&mut obs, &mut trips, rec);
        }
    }
    (obs, trips)
}

/// Everything the two feeds must agree on.
#[derive(Debug, PartialEq)]
struct State {
    counters: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
    violations: u64,
    last_violation: Option<String>,
    audit: LedgerAudit,
    spans: Vec<(LineageKey, Span)>,
    ring: Vec<TraceRecord>,
}

fn state(obs: &Observers) -> State {
    let m = obs.metrics();
    State {
        counters: m
            .counter_names()
            .into_iter()
            .map(|n| (n.to_owned(), m.counter(n)))
            .collect(),
        histograms: m
            .histogram_names()
            .into_iter()
            .map(|n| (n.to_owned(), m.histogram(n).cloned().unwrap_or_default()))
            .collect(),
        violations: obs.lineage().violations(),
        last_violation: obs.lineage().last_violation().map(|(_, d)| d.to_owned()),
        audit: obs.lineage().audit(),
        spans: obs.lineage().spans().map(|(k, s)| (k, s.clone())).collect(),
        ring: obs.trace_records().cloned().collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_batch_observes_like_its_single_records(ops in prop::collection::vec(op(), 1..120)) {
        let (batch_obs, batch_trips) = batched(&ops);
        let (single_obs, single_trips) = expanded(&ops);
        prop_assert_eq!(state(&batch_obs), state(&single_obs));
        prop_assert_eq!(batch_trips, single_trips);
    }
}

/// A duplicate in the middle of a batch trips the ledger once, at that
/// subscriber, with the detail string a single record gets — and the
/// subscribers after it are still checked.
#[test]
fn duplicate_mid_batch_is_reported_at_its_subscriber() {
    let shb = SHBS[0];
    let p = PubendId(0);
    let subs = [SubscriberId(1), SubscriberId(2), SubscriberId(3)];
    let mut obs = Observers::new(16);
    for sub in subs {
        let at = Timestamp::ZERO;
        obs.trace(TraceRecord {
            t_us: 0,
            node: shb,
            event: TraceEvent::SubResumed { sub, pubend: p, at },
        });
    }
    let mut trips = Trips::new();
    let delivered = |obs: &mut Observers, trips: &mut Trips, ts: u64, subs: &[SubscriberId]| {
        let ts = Timestamp(ts);
        obs.delivered(10, shb, p, ts, DeliveryPath::Constream, subs, |obs, rec| {
            trips.push((
                rec,
                obs.lineage().last_violation().map(|(_, d)| d.to_owned()),
            ))
        });
    };
    delivered(&mut obs, &mut trips, 9, &subs[1..2]);
    delivered(&mut obs, &mut trips, 7, &subs);

    assert_eq!(obs.lineage().violations(), 1);
    assert_eq!(obs.metrics().counter(names::LINEAGE_LEDGER_DUPLICATE), 1.0);
    let detail = "duplicate delivery: pubend-0@t7 delivered to sub-2 but its session \
                  cursor already reached t9";
    let rec = TraceRecord {
        t_us: 10,
        node: shb,
        event: TraceEvent::Delivered {
            pubend: p,
            ts: Timestamp(7),
            sub: SubscriberId(2),
            path: DeliveryPath::Constream,
        },
    };
    assert_eq!(trips, vec![(rec, Some(detail.to_owned()))]);
    // Subscriber 3, after the duplicate, was checked and advanced: a
    // second delivery of t7 to it is a duplicate too.
    delivered(&mut obs, &mut trips, 7, &subs[2..]);
    assert_eq!(obs.lineage().violations(), 2);
    assert_eq!(
        obs.lineage()
            .span(LineageKey::new(p, Timestamp(7)))
            .map(|s| s.deliveries),
        Some(4)
    );
}
