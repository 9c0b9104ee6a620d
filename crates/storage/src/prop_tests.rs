//! Property tests: storage structures against reference models, with
//! crash injection.

use crate::{
    decode_event, encode_event, EventLog, LogIndex, LogVolume, MediaFactory, MemFactory, MetaTable,
    StreamId, TableConfig, VolumeConfig,
};
use gryphon_types::{AttrValue, Event, PubendId, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum VolOp {
    Append { stream: u8, len: u8 },
    Chop { stream: u8, upto: u8, floor: u8 },
    Sync,
    CrashRecover,
}

fn arb_vol_op() -> impl Strategy<Value = VolOp> {
    prop_oneof![
        4 => (0u8..3, 1u8..60).prop_map(|(stream, len)| VolOp::Append { stream, len }),
        1 => (0u8..3, 0u8..40, 0u8..40)
            .prop_map(|(stream, upto, floor)| VolOp::Chop { stream, upto, floor }),
        1 => Just(VolOp::Sync),
        1 => Just(VolOp::CrashRecover),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LogVolume ≡ a per-stream map model, including across
    /// crash-and-recover cycles (unsynced appends may be lost, but only
    /// as a contiguous tail; chops, their floors and synced data survive).
    #[test]
    fn log_volume_equals_model(ops in prop::collection::vec(arb_vol_op(), 1..60)) {
        let factory = MemFactory::new();
        let mut vol = LogVolume::create(
            Box::new(factory.clone()),
            "v",
            VolumeConfig { segment_bytes: 512, ..VolumeConfig::default() },
        ).unwrap();
        // Model: per stream, (index → payload) of records; `synced_next`
        // = next index as of last sync; `chopped_to` per stream.
        let mut model: BTreeMap<u8, BTreeMap<u64, Vec<u8>>> = BTreeMap::new();
        let mut next: BTreeMap<u8, u64> = BTreeMap::new();
        let mut synced: BTreeMap<u8, u64> = BTreeMap::new(); // next idx at last sync
        let mut chopped: BTreeMap<u8, u64> = BTreeMap::new();
        let mut floors: BTreeMap<u8, u64> = BTreeMap::new();
        for op in ops {
            match op {
                VolOp::Append { stream, len } => {
                    let idx = vol.append(StreamId(stream as u32), &vec![stream; len as usize]).unwrap();
                    let n = next.entry(stream).or_insert(0);
                    prop_assert_eq!(idx, LogIndex(*n), "index assignment");
                    model.entry(stream).or_default().insert(*n, vec![stream; len as usize]);
                    *n += 1;
                }
                VolOp::Chop { stream, upto, floor } => {
                    vol.chop(StreamId(stream as u32), LogIndex(upto as u64), floor as u64)
                        .unwrap();
                    let f = floors.entry(stream).or_insert(0);
                    *f = (*f).max(floor as u64);
                    let c = chopped.entry(stream).or_insert(0);
                    if (upto as u64) > *c {
                        *c = upto as u64;
                        let m = model.entry(stream).or_default();
                        let dead: Vec<u64> = m.range(..*c).map(|(&i, _)| i).collect();
                        for i in dead { m.remove(&i); }
                        let n = next.entry(stream).or_insert(0);
                        *n = (*n).max(*c);
                        // Chops are logged immediately but only durable
                        // after the next sync; MemFactory's crash keeps
                        // synced bytes only. We conservatively treat chop
                        // as durable-after-sync like appends.
                    }
                }
                VolOp::Sync => {
                    vol.sync().unwrap();
                    for (&s, &n) in &next { synced.insert(s, n); }
                }
                VolOp::CrashRecover => {
                    // A crash may lose any unsynced suffix; to keep the
                    // model deterministic, sync first (tail-loss behaviour
                    // is covered by unit tests).
                    vol.sync().unwrap();
                    for (&s, &n) in &next { synced.insert(s, n); }
                    drop(vol);
                    vol = LogVolume::open(
                        Box::new(factory.clone()),
                        "v",
                        VolumeConfig { segment_bytes: 512, ..VolumeConfig::default() },
                    ).unwrap();
                }
            }
            // Full equivalence check.
            for s in 0u8..3 {
                let m = model.get(&s).cloned().unwrap_or_default();
                let got = vol.read_all(StreamId(s as u32)).unwrap();
                let got_map: BTreeMap<u64, Vec<u8>> =
                    got.into_iter().map(|(i, d)| (i.0, d.to_vec())).collect();
                prop_assert_eq!(&got_map, &m, "stream {} contents", s);
                prop_assert_eq!(
                    vol.next_index(StreamId(s as u32)).0,
                    next.get(&s).copied().unwrap_or(0),
                    "stream {} next index", s
                );
                prop_assert_eq!(
                    vol.chop_floor(StreamId(s as u32)),
                    floors.get(&s).copied().unwrap_or(0),
                    "stream {} floor", s
                );
            }
        }
    }

    /// Event codec round-trips arbitrary events.
    #[test]
    fn event_codec_roundtrip(
        pubend in 0u32..8,
        ts in 0u64..1_000_000,
        attrs in prop::collection::btree_map(
            "[a-z_][a-z0-9_.]{0,12}",
            prop_oneof![
                any::<i64>().prop_map(AttrValue::Int),
                (-1e12f64..1e12).prop_map(AttrValue::Float),
                "[ -~]{0,24}".prop_map(AttrValue::Str),
                any::<bool>().prop_map(AttrValue::Bool),
            ],
            0..6,
        ),
        payload in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut b = Event::builder(PubendId(pubend));
        for (k, v) in attrs {
            b = b.attr(k, v);
        }
        let e = b.payload(payload).build(Timestamp(ts));
        let decoded = decode_event(&encode_event(&e)).unwrap();
        prop_assert_eq!(decoded, e);
    }

    /// MetaTable: committed state always equals the model after recovery;
    /// uncommitted tails never partially apply.
    #[test]
    fn meta_table_recovery_equals_model(
        batches in prop::collection::vec(
            prop::collection::vec(("k[0-9]{1,2}", prop::option::of(0u64..100)), 1..5),
            1..20,
        ),
        crash_at in 0usize..20,
    ) {
        let factory = MemFactory::new();
        let mut table = MetaTable::open(
            Box::new(factory.clone()),
            "t",
            TableConfig { compact_wal_bytes: 256 },
        ).unwrap();
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        for (i, batch) in batches.iter().enumerate() {
            let updates: Vec<(String, Option<Vec<u8>>)> = batch
                .iter()
                .map(|(k, v)| (k.clone(), v.map(|x| x.to_le_bytes().to_vec())))
                .collect();
            table.commit(&updates).unwrap();
            for (k, v) in batch {
                match v {
                    Some(x) => { model.insert(k.clone(), *x); }
                    None => { model.remove(k); }
                }
            }
            if i == crash_at {
                drop(table);
                factory.crash_lose_unsynced();
                table = MetaTable::open(
                    Box::new(factory.clone()),
                    "t",
                    TableConfig { compact_wal_bytes: 256 },
                ).unwrap();
            }
        }
        drop(table);
        let table = MetaTable::open(
            Box::new(factory),
            "t",
            TableConfig { compact_wal_bytes: 256 },
        ).unwrap();
        for (k, v) in &model {
            prop_assert_eq!(table.get_u64(k), Some(*v), "key {}", k);
        }
        prop_assert_eq!(table.len(), model.len());
    }

    /// Torn-write safety: any truncation or single-bit corruption of the
    /// unsealed tail recovers to *exactly* the longest valid frame prefix
    /// — records before the tamper point survive byte-for-byte, records
    /// at/after it are gone, and the volume accepts new appends.
    #[test]
    fn tampered_tail_recovers_to_durable_prefix(
        lens in prop::collection::vec(1usize..60, 1..20),
        tamper_seed in 0usize..1_000_000,
        flip_bit in any::<bool>(),
    ) {
        const HDR: usize = 21; // segment frame header (type+stream+index+len+crc)
        let factory = MemFactory::new();
        let s = StreamId(0);
        {
            let mut vol = LogVolume::create(
                Box::new(factory.clone()),
                "v",
                VolumeConfig::default(), // 4 MiB segments: everything in segment 0
            ).unwrap();
            for (i, &len) in lens.iter().enumerate() {
                vol.append(s, &vec![i as u8; len]).unwrap();
            }
            vol.sync().unwrap();
        }
        // Frame i occupies [ends[i-1], ends[i]) in the segment.
        let mut ends = Vec::with_capacity(lens.len());
        let mut off = 0usize;
        for &len in &lens {
            off += HDR + len;
            ends.push(off);
        }
        let total = off;
        let pos = tamper_seed % total;
        if flip_bit {
            factory.corrupt_bit("v-00000000.seg", pos as u64);
        } else {
            let mut m = factory.open("v-00000000.seg").unwrap();
            m.truncate(pos as u64).unwrap();
        }
        // Exactly the frames that end at or before the tamper point must
        // survive recovery (the frame containing `pos` and everything
        // after it is the torn tail).
        let k = ends.iter().filter(|&&e| e <= pos).count();
        let mut vol = LogVolume::open(
            Box::new(factory.clone()),
            "v",
            VolumeConfig::default(),
        ).unwrap();
        for (i, &len) in lens.iter().enumerate() {
            let got = vol.read(s, LogIndex(i as u64)).unwrap();
            if i < k {
                prop_assert_eq!(got.as_deref(), Some(&vec![i as u8; len][..]), "record {}", i);
            } else {
                prop_assert!(got.is_none(), "record {} should be truncated", i);
            }
        }
        prop_assert_eq!(vol.next_index(s), LogIndex(k as u64));
        // The recovered volume is immediately writable again.
        let idx = vol.append(s, b"post-recovery").unwrap();
        prop_assert_eq!(idx, LogIndex(k as u64));
        vol.sync().unwrap();
        prop_assert_eq!(vol.read(s, idx).unwrap().as_deref(), Some(&b"post-recovery"[..]));
    }

    /// A synced chop boundary survives a crash that loses the unsynced
    /// tail: chopped events stay gone (never re-surface), synced live
    /// events stay readable, and lost-tail events read as absent — the
    /// broker answers `L`, never a wrong `S`, for both.
    #[test]
    fn event_log_chop_boundary_survives_crash(
        n in 2u64..24,
        chop_seed in 1u64..24,
        extra in 0u64..4,
    ) {
        let chop_ts = chop_seed.min(n);
        let p = PubendId(3);
        let factory = MemFactory::new();
        let config = || VolumeConfig { segment_bytes: 256, ..VolumeConfig::default() };
        let ev = |ts: u64| {
            std::sync::Arc::new(
                Event::builder(p).payload(vec![ts as u8; 8]).build(Timestamp(ts)),
            )
        };
        {
            let mut log = EventLog::open(Box::new(factory.clone()), "el", config()).unwrap();
            for ts in 1..=n {
                log.append(&ev(ts)).unwrap();
            }
            log.chop_below(p, Timestamp(chop_ts)).unwrap();
            log.sync().unwrap();
            for ts in n + 1..=n + extra {
                log.append(&ev(ts)).unwrap(); // unsynced tail, lost below
            }
        }
        factory.crash_lose_unsynced();
        let mut log = EventLog::open(Box::new(factory), "el", config()).unwrap();
        prop_assert_eq!(log.chopped_below_ts(p), Timestamp(chop_ts));
        for ts in 1..chop_ts {
            prop_assert!(log.read_at(p, Timestamp(ts)).unwrap().is_none(), "chopped ts {}", ts);
        }
        for ts in chop_ts..=n {
            let got = log.read_at(p, Timestamp(ts)).unwrap();
            prop_assert!(got.is_some(), "synced ts {}", ts);
            prop_assert_eq!(got.unwrap().ts, Timestamp(ts));
        }
        // The unsynced tail may be partially durable (a segment roll
        // seals — and therefore syncs — the filled segment), but what
        // survives must be a contiguous prefix: no holes, no reordering.
        let mut lost_from = None;
        for ts in n + 1..=n + extra {
            match log.read_at(p, Timestamp(ts)).unwrap() {
                Some(got) => {
                    prop_assert!(lost_from.is_none(), "hole before ts {}", ts);
                    prop_assert_eq!(got.ts, Timestamp(ts));
                }
                None => {
                    lost_from.get_or_insert(ts);
                }
            }
        }
    }

    /// Every strict prefix of an encoded event is rejected — a torn event
    /// record can never decode to a different valid event.
    #[test]
    fn codec_rejects_every_truncation(
        pubend in 0u32..8,
        ts in 0u64..1_000_000,
        key in "[a-z]{1,8}",
        payload in prop::collection::vec(any::<u8>(), 0..120),
        cut_seed in 0usize..1_000_000,
    ) {
        let e = Event::builder(PubendId(pubend))
            .attr(key, AttrValue::Int(ts as i64))
            .payload(payload)
            .build(Timestamp(ts));
        let bytes = encode_event(&e);
        let cut = cut_seed % bytes.len(); // strict prefix: 0 ≤ cut < len
        prop_assert!(decode_event(&bytes[..cut]).is_err());
    }

    /// The decoder never panics on arbitrary input, only errors.
    #[test]
    fn codec_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_event(&bytes);
    }
}
