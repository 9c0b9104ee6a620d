//! Property tests: the access-predicate index is equivalent to naive
//! evaluation.

use crate::{Filter, MatchScratch, Op, Predicate, SubscriptionIndex};
use gryphon_types::{AttrValue, Event, PubendId, SubscriberId, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeMap;

const ATTRS: &[&str] = &["class", "price", "sym", "region", "qty"];

fn arb_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-5i64..5).prop_map(AttrValue::Int),
        (-2.0f64..2.0).prop_map(AttrValue::Float),
        // Whole numbers (which must print as floats) and both zeros
        // (equal, so they must hash alike).
        (-2i64..2).prop_map(|v| AttrValue::Float(v as f64)),
        Just(AttrValue::Float(-0.0)),
        "[a-c]{1,3}".prop_map(AttrValue::Str),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::Exists),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (0..ATTRS.len(), arb_op(), arb_value()).prop_map(|(a, op, v)| {
        if op == Op::Exists {
            // Exists carries no value; normalize so Display/parse agree.
            Predicate::exists(ATTRS[a])
        } else {
            Predicate::new(ATTRS[a], op, v)
        }
    })
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    prop::collection::vec(arb_predicate(), 0..4).prop_map(Filter::new)
}

fn arb_event() -> impl Strategy<Value = Event> {
    events_over(arb_value())
}

fn events_over(value: impl Strategy<Value = AttrValue>) -> impl Strategy<Value = Event> {
    prop::collection::btree_map(
        (0..ATTRS.len()).prop_map(|i| ATTRS[i]),
        value,
        0..ATTRS.len(),
    )
    .prop_map(|attrs| {
        let mut b = Event::builder(PubendId(0));
        for (k, v) in attrs {
            b = b.attr(k, v);
        }
        b.build(Timestamp(1))
    })
}

/// Two to four equality predicates drawn from a pool of nine
/// `(attr, value)` pairs, plus maybe one arbitrary predicate: filters
/// share pairs, so one bucket holds several filters, some of which also
/// hold another bucket's pair.
fn arb_shared_filter() -> impl Strategy<Value = Filter> {
    (
        prop::collection::vec((0..3usize, 0..3i64), 2..5),
        prop::option::of(arb_predicate()),
    )
        .prop_map(|(eqs, extra)| {
            let mut preds: Vec<Predicate> = eqs
                .into_iter()
                .map(|(a, v)| Predicate::new(ATTRS[a], Op::Eq, AttrValue::Int(v)))
                .collect();
            preds.extend(extra);
            Filter::new(preds)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The SHB's caller-slotted path under random interleavings of
    /// `insert_at` (`Some(filter)`; re-inserting a live sub moves it and
    /// replaces its filter) and `remove_at` (`None`): after every step
    /// `matches_slots_into` equals naive evaluation over a model of the
    /// slots, and `any_match` agrees. Events mostly carry the shared
    /// filters' values.
    #[test]
    fn slotted_churn_equals_naive(
        steps in prop::collection::vec((0..8u32, 0..6u64, prop::option::of(
            prop_oneof![3 => arb_shared_filter(), 1 => arb_filter()],
        )), 1..24),
        events in prop::collection::vec(events_over(
            prop_oneof![3 => (0..3i64).prop_map(AttrValue::Int), 1 => arb_value()],
        ), 1..6),
    ) {
        let mut idx = SubscriptionIndex::new();
        let mut model: BTreeMap<u32, (SubscriberId, Filter)> = BTreeMap::new();
        let mut out = Vec::new();
        for (slot, sub, filter) in steps {
            match filter {
                Some(f) => {
                    let sub = SubscriberId(sub);
                    model.retain(|_, (s, _)| *s != sub);
                    model.insert(slot, (sub, Filter::clone(&f)));
                    idx.insert_at(slot, sub, f);
                }
                None => {
                    prop_assert_eq!(idx.remove_at(slot), model.remove(&slot).map(|(_, f)| f));
                }
            }
            prop_assert_eq!(idx.len(), model.len());
            for e in &events {
                idx.matches_slots_into(e, &mut MatchScratch::new(), &mut out);
                let mut expected: Vec<u32> =
                    model.iter().filter(|(_, (_, f))| f.eval(e)).map(|(&s, _)| s).collect();
                expected.sort_by_key(|s| model[s].0);
                prop_assert_eq!(&out, &expected);
                prop_assert_eq!(idx.any_match(e, &mut MatchScratch::new()), !expected.is_empty());
            }
        }
    }

    /// The index must agree exactly with per-filter naive evaluation, and
    /// emit results already sorted (ascending subscriber id) without the
    /// test having to sort: output order is a specified part of the
    /// contract.
    #[test]
    fn index_equals_naive(
        filters in prop::collection::vec(arb_filter(), 0..12),
        events in prop::collection::vec(arb_event(), 1..8),
    ) {
        let mut idx = SubscriptionIndex::new();
        for (i, f) in filters.iter().enumerate() {
            idx.insert(SubscriberId(i as u64), f.clone());
        }
        let mut scratch = MatchScratch::new();
        let mut fast = Vec::new();
        for e in &events {
            idx.matches_into(e, &mut scratch, &mut fast);
            let naive = idx.matches_naive(e);
            prop_assert_eq!(&fast, &naive);
            let expected: Vec<SubscriberId> = filters
                .iter()
                .enumerate()
                .filter(|(_, f)| f.eval(e))
                .map(|(i, _)| SubscriberId(i as u64))
                .collect();
            prop_assert_eq!(&fast, &expected);
            prop_assert_eq!(
                idx.any_match(e, &mut scratch),
                !expected.is_empty(),
                "any_match must agree with matches"
            );
        }
    }

    /// Removal must leave the index equivalent to one never containing the
    /// removed subscription.
    #[test]
    fn remove_is_clean(
        filters in prop::collection::vec(arb_filter(), 2..10),
        victim in 0usize..10,
        event in arb_event(),
    ) {
        let victim = victim % filters.len();
        let mut with_all = SubscriptionIndex::new();
        let mut without = SubscriptionIndex::new();
        for (i, f) in filters.iter().enumerate() {
            with_all.insert(SubscriberId(i as u64), f.clone());
            if i != victim {
                without.insert(SubscriberId(i as u64), f.clone());
            }
        }
        with_all.remove(SubscriberId(victim as u64));
        let mut a = with_all.matches(&event);
        let mut b = without.matches(&event);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Display → parse must round-trip filters built from the generator
    /// (whose string values fit the quoting rules, and whose floats
    /// include whole numbers).
    #[test]
    fn display_parse_roundtrip(filter in arb_filter()) {
        let printed = filter.to_string();
        let reparsed = Filter::parse(&printed).unwrap();
        prop_assert_eq!(filter, reparsed);
    }
}
