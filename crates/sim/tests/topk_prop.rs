//! Property tests for the Space-Saving top-K sketch: estimates must obey
//! the classic guarantees against an exact-counting oracle for arbitrary
//! weighted update sequences (DESIGN.md §9).

use gryphon_sim::sketch::SpaceSaving;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An update stream over a small entity universe so collisions and
/// displacements actually happen at the sketch capacities under test.
fn updates() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..24, 1u64..1_000), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn estimates_bracket_the_exact_counts(seq in updates(), k in 1usize..10) {
        let mut sk = SpaceSaving::new(k);
        let mut exact: BTreeMap<u64, u64> = BTreeMap::new();
        for &(entity, w) in &seq {
            sk.offer(entity, w);
            *exact.entry(entity).or_default() += w;
        }

        let grand: u64 = seq.iter().map(|&(_, w)| w).sum();
        prop_assert_eq!(sk.total(), grand, "total weight is tracked exactly");

        // Every tracked entry overestimates, by at most its error bound:
        // true ∈ [count − err, count].
        for e in sk.top() {
            let truth = exact.get(&e.entity).copied().unwrap_or(0);
            prop_assert!(
                truth <= e.count,
                "entity {} estimate {} under-counts truth {}", e.entity, e.count, truth
            );
            prop_assert!(
                e.count - e.err <= truth,
                "entity {} lower bound {} exceeds truth {}", e.entity, e.count - e.err, truth
            );
        }

        // Displacement floor: counts sum to the total, so the minimum
        // tracked count cannot exceed total / k.
        prop_assert!(
            sk.min_count().saturating_mul(k as u64) <= grand,
            "min_count {} breaks the total/k bound (k={}, total={})",
            sk.min_count(), k, grand
        );

        // Guaranteed presence: any entity whose true weight beats the
        // displacement floor must still be tracked.
        let tracked: Vec<u64> = sk.top().iter().map(|e| e.entity).collect();
        for (&entity, &truth) in &exact {
            if truth > sk.min_count() {
                prop_assert!(
                    tracked.contains(&entity),
                    "entity {} (truth {}) missing despite beating min_count {}",
                    entity, truth, sk.min_count()
                );
            }
        }
    }

    #[test]
    fn small_universes_are_exact(seq in prop::collection::vec((0u64..6, 1u64..1_000), 1..200)) {
        // With capacity ≥ distinct entities nothing is ever displaced:
        // the sketch degenerates to exact counting with zero error.
        let mut sk = SpaceSaving::new(8);
        let mut exact: BTreeMap<u64, u64> = BTreeMap::new();
        for &(entity, w) in &seq {
            sk.offer(entity, w);
            *exact.entry(entity).or_default() += w;
        }
        let top = sk.top();
        prop_assert_eq!(top.len(), exact.len());
        for e in &top {
            prop_assert_eq!(e.err, 0, "no displacement → no error");
            prop_assert_eq!(e.count, exact[&e.entity]);
        }
        // Ranked order: count descending, entity ascending on ties.
        for w in top.windows(2) {
            prop_assert!(
                (w[0].count, std::cmp::Reverse(w[0].entity))
                    > (w[1].count, std::cmp::Reverse(w[1].entity))
            );
        }
    }

    #[test]
    fn replay_is_deterministic(seq in updates(), k in 1usize..10) {
        let run = |seq: &[(u64, u64)]| {
            let mut sk = SpaceSaving::new(k);
            for &(entity, w) in seq {
                sk.offer(entity, w);
            }
            sk.top()
        };
        prop_assert_eq!(run(&seq), run(&seq), "same stream must rank identically");
    }
}
