//! Property tests for the stream algebra.
//!
//! The reference model is a dense `Vec<TickKind>` over a small tick
//! universe; every operation is applied to both representations and the
//! results compared tick-by-tick.

use crate::{push_coalesced, CuriosityStream, KnowledgeStream};
use gryphon_types::msg::KnowledgePart;
use gryphon_types::{Event, PubendId, TickKind, Timestamp};
use proptest::prelude::*;

const UNIVERSE: u64 = 64;

#[derive(Debug, Clone)]
enum KOp {
    Data(u64),
    Silence(u64, u64),
    Lost(u64),
}

fn arb_kop() -> impl Strategy<Value = KOp> {
    prop_oneof![
        (1..UNIVERSE).prop_map(KOp::Data),
        (1..UNIVERSE, 0..8u64).prop_map(|(a, len)| KOp::Silence(a, (a + len).min(UNIVERSE - 1))),
        (1..UNIVERSE / 2).prop_map(KOp::Lost),
    ]
}

/// Dense reference model of a knowledge stream.
#[derive(Debug, Clone)]
struct Model {
    ticks: Vec<TickKind>, // index 1..UNIVERSE used
    lost_to: u64,
}

impl Model {
    fn new() -> Self {
        Model {
            ticks: vec![TickKind::Q; UNIVERSE as usize],
            lost_to: 0,
        }
    }

    fn apply(&mut self, op: &KOp) {
        match *op {
            KOp::Data(t) => {
                if t > self.lost_to && self.ticks[t as usize] == TickKind::Q {
                    self.ticks[t as usize] = TickKind::D;
                }
            }
            KOp::Silence(a, b) => {
                for t in a.max(self.lost_to + 1)..=b {
                    if self.ticks[t as usize] == TickKind::Q {
                        self.ticks[t as usize] = TickKind::S;
                    }
                }
            }
            KOp::Lost(to) => {
                if to > self.lost_to {
                    self.lost_to = to;
                    for t in 1..=to {
                        self.ticks[t as usize] = TickKind::L;
                    }
                }
            }
        }
    }

    fn doubt_horizon(&self, from: u64) -> u64 {
        let mut t = from;
        while t + 1 < UNIVERSE && self.ticks[(t + 1) as usize] != TickKind::Q {
            t += 1;
        }
        t
    }

    fn q_ranges(&self, from: u64, to: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for t in from.max(1)..=to.min(UNIVERSE - 1) {
            if self.ticks[t as usize] == TickKind::Q {
                match out.last_mut() {
                    Some(last) if last.1 + 1 == t => last.1 = t,
                    _ => out.push((t, t)),
                }
            }
        }
        out
    }
}

fn ev(ts: u64) -> gryphon_types::EventRef {
    Event::builder(PubendId(0)).build_ref(Timestamp(ts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// KnowledgeStream ≡ dense model over arbitrary operation sequences.
    #[test]
    fn knowledge_stream_equals_model(ops in prop::collection::vec(arb_kop(), 1..40)) {
        let mut ks = KnowledgeStream::new();
        let mut model = Model::new();
        for op in &ops {
            model.apply(op);
            match *op {
                KOp::Data(t) => {
                    ks.set_data(ev(t));
                }
                KOp::Silence(a, b) => ks.set_silence(Timestamp(a), Timestamp(b)),
                KOp::Lost(to) => ks.set_lost_prefix(Timestamp(to)),
            }
            // Tick-by-tick equality.
            for t in 1..UNIVERSE {
                prop_assert_eq!(
                    ks.kind_at(Timestamp(t)),
                    model.ticks[t as usize],
                    "tick {} after {:?}", t, op
                );
            }
            prop_assert_eq!(ks.doubt_horizon(Timestamp::ZERO).0, model.doubt_horizon(0));
            let got: Vec<(u64, u64)> = ks
                .q_ranges(Timestamp(1), Timestamp(UNIVERSE - 1))
                .into_iter()
                .map(|(a, b)| (a.0, b.0))
                .collect();
            prop_assert_eq!(got, model.q_ranges(1, UNIVERSE - 1));
        }
    }

    /// export_range → apply reproduces the stream exactly over any window.
    #[test]
    fn export_apply_roundtrip(
        ops in prop::collection::vec(arb_kop(), 1..30),
        lo in 1..UNIVERSE,
        len in 0..UNIVERSE,
    ) {
        let hi = (lo + len).min(UNIVERSE - 1);
        let mut ks = KnowledgeStream::new();
        for op in &ops {
            match *op {
                KOp::Data(t) => {
                    ks.set_data(ev(t));
                }
                KOp::Silence(a, b) => ks.set_silence(Timestamp(a), Timestamp(b)),
                KOp::Lost(to) => ks.set_lost_prefix(Timestamp(to)),
            }
        }
        let parts = ks.export_range(Timestamp(lo), Timestamp(hi));
        let mut rebuilt = KnowledgeStream::new();
        for p in &parts {
            rebuilt.apply(p);
        }
        for t in lo..=hi {
            // L in the source may rebuild as a longer L prefix only if the
            // export started above 1; but within the window kinds match.
            prop_assert_eq!(
                rebuilt.kind_at(Timestamp(t)),
                ks.kind_at(Timestamp(t)),
                "tick {} in window {}..={}", t, lo, hi
            );
        }
        // Parts are in ascending, non-overlapping order.
        let mut prev_end = 0u64;
        for p in &parts {
            let (f, t) = p.range();
            prop_assert!(f.0 > prev_end || prev_end == 0, "parts out of order");
            prop_assert!(f <= t);
            prev_end = t.0;
        }
    }

    /// Coalescing preserves apply-semantics: feeding a part
    /// sequence through `push_coalesced` and applying the (shorter) result
    /// leaves a knowledge stream in exactly the state the originals would
    /// have, tick-for-tick and under `export_range` round-trip.
    #[test]
    fn coalescing_preserves_apply_semantics(
        lost_prefix in 0..4u64,
        runs in prop::collection::vec((0..3u64, 0..4u64, any::<bool>()), 0..24),
    ) {
        // Build an ascending wire-order part sequence the way an IB's
        // filtering produces them: optional lost prefix, then silence runs and
        // data ticks marching forward, with deliberate adjacency so there
        // is something to coalesce.
        let mut original: Vec<KnowledgePart> = Vec::new();
        let mut cursor = 1u64;
        if lost_prefix > 0 {
            original.push(KnowledgePart::Lost {
                from: Timestamp(1),
                to: Timestamp(lost_prefix),
            });
            cursor = lost_prefix + 1;
        }
        for &(gap, len, is_data) in &runs {
            cursor += gap;
            if is_data {
                original.push(KnowledgePart::Data(ev(cursor)));
                cursor += 1;
            } else {
                original.push(KnowledgePart::Silence {
                    from: Timestamp(cursor),
                    to: Timestamp(cursor + len),
                });
                cursor += len + 1;
            }
        }

        let mut coalesced = Vec::new();
        for p in &original {
            push_coalesced(&mut coalesced, p.clone());
        }
        prop_assert!(coalesced.len() <= original.len());
        // Canonical form: no two adjacent parts of the same span kind
        // remain mergeable.
        for w in coalesced.windows(2) {
            let mergeable = matches!(
                (&w[0], &w[1]),
                (KnowledgePart::Silence { .. }, KnowledgePart::Silence { .. })
                    | (KnowledgePart::Lost { .. }, KnowledgePart::Lost { .. })
            ) && w[1].range().0 .0 <= w[0].range().1 .0 + 1;
            prop_assert!(!mergeable, "coalesced output not canonical: {:?}", w);
        }

        let mut a = KnowledgeStream::new();
        let mut b = KnowledgeStream::new();
        for p in &original {
            a.apply(p);
        }
        for p in &coalesced {
            b.apply(p);
        }
        for t in 1..=cursor + 2 {
            prop_assert_eq!(
                a.kind_at(Timestamp(t)),
                b.kind_at(Timestamp(t)),
                "tick {} differs", t
            );
        }
        prop_assert_eq!(
            a.export_range(Timestamp(1), Timestamp(cursor + 2)),
            b.export_range(Timestamp(1), Timestamp(cursor + 2))
        );
    }

    /// Curiosity: the set of outstanding ticks equals (wanted − satisfied),
    /// and fresh-range reporting never duplicates a pending tick.
    #[test]
    fn curiosity_equals_set_model(
        ops in prop::collection::vec(
            (any::<bool>(), 1..UNIVERSE, 0..8u64),
            1..40,
        )
    ) {
        let mut cur = CuriosityStream::new();
        let mut model = vec![false; UNIVERSE as usize]; // outstanding?
        for (i, &(is_add, a, len)) in ops.iter().enumerate() {
            let b = (a + len).min(UNIVERSE - 1);
            if is_add {
                let fresh = cur.add_wanted(Timestamp(a), Timestamp(b), i as u64);
                // Fresh ranges must cover exactly the previously-absent ticks.
                let mut fresh_ticks = vec![false; UNIVERSE as usize];
                for (f, t) in fresh {
                    for x in f.0..=t.0.min(UNIVERSE - 1) {
                        prop_assert!(!model[x as usize], "tick {} re-requested", x);
                        fresh_ticks[x as usize] = true;
                    }
                }
                for x in a..=b {
                    prop_assert_eq!(fresh_ticks[x as usize], !model[x as usize]);
                    model[x as usize] = true;
                }
            } else {
                cur.satisfy(Timestamp(a), Timestamp(b));
                for x in a..=b {
                    model[x as usize] = false;
                }
            }
            let mut got = vec![false; UNIVERSE as usize];
            for (f, t) in cur.outstanding() {
                for x in f.0..=t.0.min(UNIVERSE - 1) {
                    got[x as usize] = true;
                }
            }
            prop_assert_eq!(&got, &model);
        }
    }
}
