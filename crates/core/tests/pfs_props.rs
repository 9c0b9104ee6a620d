//! Property tests for the Persistent Filtering Subsystem: batch reads by
//! backpointer walk must agree exactly with a reference replay of the
//! write history, for any write pattern, read window, buffer size, chop
//! schedule and crash point. Writes and reads go through the slot-keyed
//! pair the SHB runs, with slab slot `s` holding subscriber `s`.

use gryphon::{Pfs, PfsMode, PfsReadResult};
use gryphon_storage::MemFactory;
use gryphon_types::{PubendId, SubSlot, SubscriberId, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeMap;

const P: PubendId = PubendId(0);
const SUBS: u64 = 6;

#[derive(Debug, Clone)]
struct WritePlan {
    /// Gap in ticks before this write.
    gap: u64,
    /// Bitmask of matching subscribers (never empty — masked later).
    mask: u8,
}

fn arb_history() -> impl Strategy<Value = Vec<WritePlan>> {
    prop::collection::vec(
        (1u64..6, 1u8..(1 << SUBS) as u8).prop_map(|(gap, mask)| WritePlan { gap, mask }),
        1..80,
    )
}

fn open(factory: &MemFactory) -> Pfs {
    Pfs::open(Box::new(factory.clone()), "t", PfsMode::Precise).unwrap()
}

/// Writes `history` after tick `ts` with every slot at `generation`,
/// recording ts → matching-subscriber mask in `model`; returns the last
/// tick written.
fn write_history(
    pfs: &mut Pfs,
    model: &mut BTreeMap<u64, u8>,
    history: &[WritePlan],
    mut ts: u64,
    generation: u32,
) -> u64 {
    for w in history {
        ts += w.gap;
        let slots: Vec<u32> = (0..SUBS as u32)
            .filter(|s| w.mask & (1 << s) != 0)
            .collect();
        pfs.write_slots(P, Timestamp(ts), &slots, |s| {
            (SubscriberId(s.into()), generation)
        })
        .unwrap();
        model.insert(ts, w.mask);
    }
    pfs.sync().unwrap();
    ts
}

/// Reference model: ts → set of matching subs.
fn build(history: &[WritePlan]) -> (Pfs, MemFactory, BTreeMap<u64, u8>, Timestamp) {
    let factory = MemFactory::new();
    let mut pfs = open(&factory);
    let mut model = BTreeMap::new();
    let last = write_history(&mut pfs, &mut model, history, 0, 0);
    (pfs, factory, model, Timestamp(last))
}

/// Reads subscriber `sub` (slot `sub` at `generation`) over `(from, to]`.
fn read(
    pfs: &mut Pfs,
    sub: u64,
    generation: u32,
    from: Timestamp,
    to: Timestamp,
    max_q: usize,
) -> PfsReadResult {
    let slot = SubSlot::new(sub as u32, generation);
    pfs.read_slot(P, slot, SubscriberId(sub), from, to, max_q)
        .unwrap()
}

fn reference_q_ticks(model: &BTreeMap<u64, u8>, sub: u64, from: u64, to: u64) -> Vec<u64> {
    model
        .range(from + 1..=to)
        .filter(|(_, &mask)| mask & (1 << sub) != 0)
        .map(|(&t, _)| t)
        .collect()
}

fn got(r: &PfsReadResult) -> Vec<u64> {
    r.q_ticks.iter().map(|t| t.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Unbounded reads equal the reference replay for every subscriber
    /// and window.
    #[test]
    fn batch_read_equals_reference(
        history in arb_history(),
        sub in 0u64..SUBS,
        from_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let (mut pfs, _f, model, last) = build(&history);
        let from = (last.0 as f64 * from_frac) as u64;
        let to = from + ((last.0 - from.min(last.0)) as f64 * len_frac) as u64 + 1;
        let r = read(&mut pfs, sub, 0, Timestamp(from), Timestamp(to), usize::MAX);
        prop_assert_eq!(r.known_from, Timestamp(from), "intact chain");
        prop_assert_eq!(r.covered_to, Timestamp(to));
        prop_assert!(r.full_read);
        prop_assert_eq!(got(&r), reference_q_ticks(&model, sub, from, to));
    }

    /// Saturated reads return the *oldest* `max_q` ticks and chain
    /// correctly into follow-up reads until the window is covered.
    #[test]
    fn saturated_reads_chain_to_completion(
        history in arb_history(),
        sub in 0u64..SUBS,
        max_q in 1usize..5,
    ) {
        let (mut pfs, _f, model, last) = build(&history);
        let expected = reference_q_ticks(&model, sub, 0, last.0);
        let mut collected = Vec::new();
        let mut from = Timestamp::ZERO;
        for _ in 0..200 {
            let r = read(&mut pfs, sub, 0, from, last, max_q);
            prop_assert!(r.q_ticks.len() <= max_q);
            collected.extend(got(&r));
            if r.full_read {
                prop_assert_eq!(r.covered_to, last);
                break;
            }
            from = r.covered_to;
        }
        prop_assert_eq!(collected, expected);
    }

    /// Recovery (scan rebuild) preserves read results exactly.
    #[test]
    fn recovery_preserves_reads(
        history in arb_history(),
        sub in 0u64..SUBS,
    ) {
        let (pfs, factory, model, last) = build(&history);
        drop(pfs);
        let mut pfs = open(&factory);
        let r = read(&mut pfs, sub, 0, Timestamp::ZERO, last, usize::MAX);
        prop_assert_eq!(got(&r), reference_q_ticks(&model, sub, 0, last.0));
    }

    /// Chopping below a released point never affects reads above it, and
    /// reads reaching below report the undetermined region (never a
    /// silent wrong answer).
    #[test]
    fn chop_is_conservative(
        history in arb_history(),
        sub in 0u64..SUBS,
        chop_frac in 0.0f64..1.0,
    ) {
        let (mut pfs, _f, model, last) = build(&history);
        let chop_at = 1 + (last.0 as f64 * chop_frac) as u64;
        pfs.chop_below(P, Timestamp(chop_at)).unwrap();
        // Read entirely above the chop: exact.
        let r = read(&mut pfs, sub, 0, Timestamp(chop_at - 1), last, usize::MAX);
        prop_assert_eq!(got(&r), reference_q_ticks(&model, sub, chop_at - 1, last.0));
        // Read from zero: the undetermined prefix must be reported.
        let r = read(&mut pfs, sub, 0, Timestamp::ZERO, last, usize::MAX);
        prop_assert!(r.known_from.0 >= chop_at.saturating_sub(1));
        // Above known_from, the result is still exact.
        prop_assert_eq!(got(&r), reference_q_ticks(&model, sub, r.known_from.0, last.0));
    }

    /// Writes that continue after a chop and a reopen find every chain
    /// head through the recovered `lastIndex` map (the slot heads start
    /// empty, and the slots come back at generation `generation`): reads
    /// from the floor are exact above `known_from ≥ floor`, and stay so
    /// across a second reopen.
    #[test]
    fn writes_continue_after_chop_and_reopen(
        before in arb_history(),
        after in arb_history(),
        sub in 0u64..SUBS,
        chop_frac in 0.0f64..1.0,
        generation in 0u32..2,
    ) {
        let (mut pfs, factory, mut model, last) = build(&before);
        let chop_at = 1 + (last.0 as f64 * chop_frac) as u64;
        let floor = Timestamp(chop_at - 1);
        pfs.chop_below(P, Timestamp(chop_at)).unwrap();
        pfs.sync().unwrap();
        drop(pfs);
        let mut pfs = open(&factory);
        let last = Timestamp(write_history(&mut pfs, &mut model, &after, last.0, generation));
        for reopen in 0..2 {
            if reopen == 1 {
                drop(pfs);
                pfs = open(&factory);
            }
            let r = read(&mut pfs, sub, generation, floor, last, usize::MAX);
            prop_assert!(r.known_from >= floor);
            prop_assert!(r.full_read);
            prop_assert_eq!(got(&r), reference_q_ticks(&model, sub, r.known_from.0, last.0));
        }
    }
}
