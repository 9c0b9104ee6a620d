//! ISSUE 8 acceptance: a chopped or crash-lost tick is never answered
//! `S` after recovery.
//!
//! The dangerous window is release-time garbage collection: chopping a
//! prefix deletes whole segment files (immediately durable) while the
//! chop record itself sits in the unsynced tail. A crash inside that
//! window used to leave the events gone but the boundary forgotten — and
//! the pubend would then answer `S` ("there was never an event here")
//! for ticks it had once emitted as `D`. The storage layer now orders
//! marker → chop frame → sync → file deletion, so recovery always lands
//! in one of two consistent worlds: the chop fully applied (`L`) or
//! fully forgotten (`D`).

use gryphon::broker::Pubend;
use gryphon::config::BrokerConfig;
use gryphon_storage::{EventLog, MemFactory, VolumeConfig};
use gryphon_types::{KnowledgePart, PubendId, PublishMsg, TickKind, Timestamp};

const P: PubendId = PubendId(0);

fn small_segments() -> VolumeConfig {
    VolumeConfig {
        // ~60-byte event frames: a few events per segment, so a prefix
        // chop reliably kills whole segments and triggers GC.
        segment_bytes: 192,
        ..VolumeConfig::default()
    }
}

fn publish(p: &mut Pubend, now: u64) {
    p.publish(
        PublishMsg {
            pubend: P,
            attrs: Default::default(),
            payload: bytes::Bytes::from(vec![now as u8; 16]),
        },
        Timestamp(now),
    );
}

fn kind_at(parts: &[KnowledgePart], t: u64) -> Option<TickKind> {
    for part in parts {
        let (f, to) = part.range();
        if f.0 <= t && t <= to.0 {
            return Some(match part {
                KnowledgePart::Silence { .. } => TickKind::S,
                KnowledgePart::Data(_) => TickKind::D,
                KnowledgePart::Lost { .. } => TickKind::L,
            });
        }
    }
    None
}

/// Closes the open batch and makes it durable on the PHB's own path:
/// `begin_commit`, the appends, then the log's sync (the flush
/// `CommitPipeline::commit_with` runs after the appends return).
fn commit(pe: &mut Pubend, log: &mut EventLog) {
    assert!(pe.begin_commit());
    pe.finish_commit_appends(log).unwrap();
    log.sync().unwrap();
}

/// Rebuilds the pubend the way `Broker::boot` does after a crash:
/// reopen the log, seed cursors at the (advanced) wall clock, restore
/// the lost prefix from the recovered chop boundary.
fn recover(factory: &MemFactory, now: u64) -> (Pubend, EventLog) {
    let log = EventLog::open(Box::new(factory.clone()), "el", small_segments()).unwrap();
    let mut pe = Pubend::new(P, Timestamp(now));
    let chopped = log.chopped_below_ts(P);
    if chopped > Timestamp::ZERO {
        pe.restore_lost_to(chopped.prev());
    }
    (pe, log)
}

/// Crash immediately after a release chopped (and GC'd) a prefix: the
/// chopped ticks must answer `L`, the surviving ticks `D` — no tick in
/// the emitted range may answer `S`.
#[test]
fn crash_after_release_gc_answers_lost_not_silence() {
    for chop_at in [4u64, 9, 12, 19] {
        let factory = MemFactory::new();
        {
            let mut log =
                EventLog::open(Box::new(factory.clone()), "el", small_segments()).unwrap();
            let mut pe = Pubend::new(P, Timestamp::ZERO);
            for t in 1..=20 {
                publish(&mut pe, t);
            }
            commit(&mut pe, &mut log); // durable + emitted
            let cfg = BrokerConfig::default();
            pe.apply_release(
                Timestamp(chop_at),
                Timestamp(20),
                Timestamp(25),
                &cfg,
                &mut log,
            )
            .unwrap();
            // No explicit sync: the kill happens right here. Whole-segment
            // GC inside the chop must have made the boundary durable on
            // its own.
        }
        factory.crash_lose_unsynced();

        let (pe, mut log) = recover(&factory, 25);
        let parts = pe.answer(Timestamp(1), Timestamp(20), &mut log).unwrap();
        for t in 1..=20 {
            let kind = kind_at(&parts, t);
            assert_ne!(
                kind,
                Some(TickKind::S),
                "tick {t} answered S after chop-at-{chop_at} crash"
            );
            let expect = if t <= chop_at {
                TickKind::L
            } else {
                TickKind::D
            };
            assert_eq!(kind, Some(expect), "tick {t} (chop at {chop_at})");
        }
    }
}

/// Crash that loses an unsynced chop *entirely* (no segment died, so no
/// forced sync): recovery must forget the chop atomically — every tick
/// still answers `D`, never a half-applied state with `S` holes.
#[test]
fn crash_losing_whole_chop_forgets_it_atomically() {
    let factory = MemFactory::new();
    {
        // Big segments: the chop below cannot kill a whole segment, so
        // nothing forces a sync and the whole chop sits in the torn tail.
        let mut log =
            EventLog::open(Box::new(factory.clone()), "el", VolumeConfig::default()).unwrap();
        let mut pe = Pubend::new(P, Timestamp::ZERO);
        for t in 1..=10 {
            publish(&mut pe, t);
        }
        commit(&mut pe, &mut log);
        let cfg = BrokerConfig::default();
        pe.apply_release(Timestamp(6), Timestamp(10), Timestamp(15), &cfg, &mut log)
            .unwrap();
    }
    factory.crash_lose_unsynced();

    let factory2 = factory.clone();
    let log = EventLog::open(Box::new(factory2), "el", VolumeConfig::default()).unwrap();
    assert_eq!(
        log.chopped_below_ts(P),
        Timestamp::ZERO,
        "unsynced chop must vanish"
    );
    let (pe, mut log) = recover(&factory, 15);
    let parts = pe.answer(Timestamp(1), Timestamp(10), &mut log).unwrap();
    for t in 1..=10 {
        assert_eq!(
            kind_at(&parts, t),
            Some(TickKind::D),
            "tick {t} must still be answerable from the log"
        );
    }
}

/// A torn tail of never-committed events: those ticks were never emitted
/// as knowledge (emission happens only after the durable sync), so after
/// recovery they are simply absent — and everything durable still
/// answers exactly as before the crash.
#[test]
fn torn_uncommitted_tail_leaves_durable_answers_intact() {
    let factory = MemFactory::new();
    {
        let mut log = EventLog::open(Box::new(factory.clone()), "el", small_segments()).unwrap();
        let mut pe = Pubend::new(P, Timestamp::ZERO);
        for t in 1..=8 {
            publish(&mut pe, t);
        }
        commit(&mut pe, &mut log);
        // Torn: appended to the log but never synced, never emitted.
        for t in 9..=11 {
            publish(&mut pe, t);
        }
        assert!(pe.begin_commit());
        // The crash lands between the appends and the sync.
        pe.finish_commit_appends(&mut log).unwrap();
    }
    factory.crash_lose_unsynced();

    let (pe, mut log) = recover(&factory, 20);
    let parts = pe.answer(Timestamp(1), Timestamp(8), &mut log).unwrap();
    for t in 1..=8 {
        assert_eq!(kind_at(&parts, t), Some(TickKind::D), "durable tick {t}");
    }
    // The torn ticks never became knowledge. What survives of them is
    // whatever a segment roll happened to seal (sealing syncs) — always
    // a contiguous prefix, never a hole.
    let mut lost_from = None;
    for t in 9..=11u64 {
        match log.read_at(P, Timestamp(t)).unwrap() {
            Some(e) => {
                assert!(lost_from.is_none(), "hole before torn tick {t}");
                assert_eq!(e.ts, Timestamp(t));
            }
            None => {
                lost_from.get_or_insert(t);
            }
        }
    }
    assert!(
        lost_from.is_some(),
        "the unsynced tail cannot be fully durable"
    );
}

// ----------------------------------------------------------------------
// The same guarantee through `Broker::boot`: a broker restarted after an
// early-release L-conversion must answer a nack below the lost prefix
// with `L`, which the subscriber sees as a gap.
// ----------------------------------------------------------------------

use gryphon::{Broker, PublisherClient, SubscriberClient, SubscriberConfig};
use gryphon_sim::{Handle, Sim};

/// The broker that hosts `P` crashes for 0.5 s here.
const CRASH_AT_US: u64 = 4_000_000;
const RESTART_AT_US: u64 = 4_500_000;
/// The subscriber, away since 1 s, comes back 20 ms after the restart:
/// before the restarted broker's first release timer (250 ms) could
/// L-convert anything again, so only the restored prefix can answer `L`.
const RECONNECT_AT_US: u64 = 4_520_000;

fn retaining() -> BrokerConfig {
    BrokerConfig {
        max_retain_ticks: Some(1_000),
        ..BrokerConfig::default()
    }
}

/// A collecting subscriber on `shb` that leaves at 1 s and reconnects,
/// with its checkpoint, at [`RECONNECT_AT_US`].
fn away_subscriber(sim: &mut Sim, shb: gryphon_types::NodeId) -> Handle<SubscriberClient> {
    let sub = sim.add_typed_node(
        "sub",
        SubscriberClient::new(
            gryphon_types::SubscriberId(1),
            shb,
            "class = 0",
            SubscriberConfig {
                collect: true,
                disconnect_period_us: Some(100_000_000),
                disconnect_phase_us: Some(1_000_000),
                disconnect_duration_us: RECONNECT_AT_US - 1_000_000,
                probe_interval_us: 100_000_000,
                ..SubscriberConfig::default()
            },
        ),
    );
    sim.connect(sub.id(), shb, 500);
    sub
}

fn publisher(sim: &mut Sim, phb: gryphon_types::NodeId) {
    let publisher = sim.add_typed_node(
        "pub",
        PublisherClient::new(phb, P, 200.0).with_attrs(|seq, _| {
            let mut a = gryphon_types::Attributes::new();
            a.insert("class".into(), ((seq as i64) % 4).into());
            a
        }),
    );
    sim.connect(publisher.id(), phb, 500);
}

/// Runs the crash and the reconnect, and checks what the subscriber got
/// after it came back: no event at or below the prefix L-converted
/// before the crash, and, before anything but silence, a gap inside that
/// prefix — the only gap: the catchup stream nacks its missed matches one
/// range at a time, but the first `L` answer carries the whole prefix.
fn assert_lost_prefix_answered_lost(
    mut sim: Sim,
    phb: Handle<Broker>,
    sub: Handle<SubscriberClient>,
) {
    sim.schedule_crash(phb.id(), CRASH_AT_US, RESTART_AT_US - CRASH_AT_US);
    sim.run_until(CRASH_AT_US - 1);
    let lost = sim.node_ref(phb).pubend(P).expect("hosted").lost_to();
    assert!(lost > Timestamp(1_000), "no prefix L-converted: {lost:?}");
    sim.run_until(RECONNECT_AT_US - 1);
    assert_eq!(
        sim.node_ref(phb).pubend(P).expect("hosted").lost_to(),
        lost,
        "the restart did not restore the lost prefix"
    );
    sim.run_until(8_000_000);
    let client = sim.node_ref(sub);
    let after: Vec<_> = client
        .received()
        .iter()
        .filter(|r| r.at_us >= RECONNECT_AT_US)
        .collect();
    assert!(
        after.iter().all(|r| r.kind != "event" || r.ts > lost),
        "an event at or below the lost prefix {lost:?} was delivered"
    );
    let first = after
        .iter()
        .find(|r| r.kind != "silence")
        .expect("deliveries after the reconnect");
    assert!(first.kind == "gap" && first.ts <= lost, "{first:?}");
    assert_eq!(client.gaps_received(), 1);
    assert_eq!(client.order_violations(), 0);
    assert_eq!(sim.ledger_violations(), 0);
    assert_eq!(sim.watchdog_violations(), 0);
}

/// A combined broker (pubend and subscribers on one node): its own SHB's
/// catchup stream asks the restarted local pubend.
#[test]
fn combined_broker_restart_answers_the_lost_prefix_lost() {
    let mut sim = Sim::new(71);
    let broker = sim.add_typed_node(
        "broker",
        Broker::new(0, Box::new(MemFactory::new()), retaining())
            .hosting_pubends([P])
            .hosting_subscribers(),
    );
    publisher(&mut sim, broker.id());
    let sub = away_subscriber(&mut sim, broker.id());
    assert_lost_prefix_answered_lost(sim, broker, sub);
}

/// A pure PHB under one SHB. The SHB's cache keeps 200 ticks, so the
/// catchup stream's nacks below the prefix reach the restarted PHB.
#[test]
fn pure_phb_restart_answers_the_lost_prefix_lost() {
    let mut sim = Sim::new(72);
    let phb = sim.add_typed_node(
        "phb",
        Broker::new(0, Box::new(MemFactory::new()), retaining()).hosting_pubends([P]),
    );
    let shb_config = BrokerConfig {
        cache_window_ticks: 200,
        ..BrokerConfig::default()
    };
    let shb = sim.add_typed_node(
        "shb",
        Broker::new(1, Box::new(MemFactory::new()), shb_config).hosting_subscribers(),
    );
    sim.node(phb).add_child(shb.id());
    sim.node(shb).set_parent(phb.id());
    sim.connect(phb.id(), shb.id(), 1_000);
    publisher(&mut sim, phb.id());
    let sub = away_subscriber(&mut sim, shb.id());
    assert_lost_prefix_answered_lost(sim, phb, sub);
}
