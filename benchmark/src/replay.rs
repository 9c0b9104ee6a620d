//! Direct-drive replays (`+` metrics): each layer's public functions
//! called single-threaded on the workload's own generated inputs, timed
//! with `Instant`. They say what a layer costs on its own; the traced
//! pass says what it costs in the pipeline.

use crate::gen::{Workload, PUBENDS, RATE};
use crate::metrics::Values;
use crate::stats::median;
use crate::store::StoreDir;
use gryphon::{Pfs, PfsMode};
use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
use gryphon_sim::{Node, NodeCtx, TimerKey};
use gryphon_storage::{
    CommitPipeline, EventLog, FileFactory, MediaFactory, SharedMetaTable, TableConfig, VolumeConfig,
};
use gryphon_streams::{CuriosityStream, KnowledgeStream};
use gryphon_types::{
    Event, EventRef, KnowledgePart, NetMsg, NodeId, PubendId, SubSlot, SubscriberId, Timestamp,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events each replay works through: two seconds of the stream.
const EVENTS: u32 = 2 * RATE as u32;
/// Events of one pubend in one 4 ms commit window.
const COMMIT_BATCH: usize = (RATE as usize * 4 / 1_000) / PUBENDS as usize;
/// Events of all pubends between two 5 ms PFS syncs.
const PFS_BATCH: usize = RATE as usize * 5 / 1_000;

fn ns_per(elapsed: Duration, n: usize) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

type Res<T> = Result<T, gryphon_storage::StorageError>;

/// The stream's events with the timestamps a pubend would assign: one
/// tick per 2 ms per pubend, from tick 1.
fn events(w: &Workload) -> Vec<EventRef> {
    (0..EVENTS)
        .map(|seq| {
            let m = w.publish(seq, 0);
            Arc::new(Event {
                pubend: m.pubend,
                ts: Timestamp(1 + 2 * (seq / PUBENDS) as u64),
                attrs: m.attrs,
                payload: m.payload,
            })
        })
        .collect()
}

/// Runs every replay of workload `w`.
pub fn replay_layers(w: &Workload) -> Result<Values, String> {
    let store = StoreDir::create().map_err(|e| format!("store directory: {e}"))?;
    let evs = events(w);
    let mut v = Values::new();
    types(w, &evs, &mut v);
    let matched = matching(w, &evs, &mut v);
    storage(&store, &evs, &mut v).map_err(|e| format!("storage replay: {e}"))?;
    pfs(&store, &evs, &matched, &mut v).map_err(|e| format!("pfs replay: {e}"))?;
    streams(&evs, &mut v);
    net(&evs, &mut v);
    Ok(v)
}

fn types(w: &Workload, evs: &[EventRef], v: &mut Values) {
    let bytes: usize = evs.iter().map(|e| e.encoded_len()).sum();
    v.insert(
        "types.encoded_bytes_per_event",
        bytes as f64 / evs.len() as f64,
    );
    let t = Instant::now();
    for seq in 0..EVENTS {
        black_box(w.publish(black_box(seq), 0));
    }
    v.insert(
        "types.publish_build_ns_per_event",
        ns_per(t.elapsed(), EVENTS as usize),
    );
}

/// Returns, per event, the slots (= subscriber indices) it matches.
fn matching(w: &Workload, evs: &[EventRef], v: &mut Values) -> Vec<Vec<u32>> {
    let exprs: Vec<String> = (0..w.spec.subs).map(|j| w.filter_expr(j)).collect();
    let t = Instant::now();
    let filters: Vec<Filter> = exprs
        .iter()
        .map(|e| Filter::parse(black_box(e)).expect("generated filter parses"))
        .collect();
    v.insert(
        "matching.parse_ns_per_filter",
        ns_per(t.elapsed(), filters.len()),
    );
    let mut index = SubscriptionIndex::new();
    let t = Instant::now();
    for (j, f) in filters.into_iter().enumerate() {
        index.insert_at(j as u32, SubscriberId(j as u64 + 1), f);
    }
    v.insert(
        "matching.insert_ns_per_sub",
        ns_per(t.elapsed(), w.spec.subs),
    );
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();
    let mut matched = Vec::with_capacity(evs.len());
    let t = Instant::now();
    for e in evs {
        index.matches_slots_into(e, &mut scratch, &mut out);
        matched.push(out.clone());
    }
    v.insert(
        "matching.match_ns_per_event",
        ns_per(t.elapsed(), evs.len()),
    );
    let total: usize = matched.iter().map(Vec::len).sum();
    v.insert(
        "matching.matches_per_event",
        total as f64 / evs.len() as f64,
    );
    let t = Instant::now();
    for e in evs {
        black_box(index.any_match(e, &mut scratch));
    }
    v.insert(
        "matching.any_match_ns_per_event",
        ns_per(t.elapsed(), evs.len()),
    );
    matched
}

fn storage(store: &StoreDir, evs: &[EventRef], v: &mut Values) -> Res<()> {
    let mut log = EventLog::open(
        store.factory("replay-log"),
        "events",
        VolumeConfig::default(),
    )?;
    let t = Instant::now();
    for e in evs {
        log.append(e)?;
    }
    v.insert(
        "storage.append_ns_per_event",
        ns_per(t.elapsed(), evs.len()),
    );
    log.sync()?;
    v.insert(
        "storage.bytes_per_event",
        log.stats().total_bytes as f64 / evs.len() as f64,
    );
    // One second of one pubend is 500 events, 2 ticks apart.
    let t = Instant::now();
    let read = log.read_range(PubendId(0), Timestamp(1), Timestamp(1_000))?;
    v.insert("storage.read_ns_per_event", ns_per(t.elapsed(), read.len()));
    let t = Instant::now();
    let mut chops = 0;
    for below in (250..=1_000).step_by(250) {
        for p in 0..PUBENDS {
            log.chop_below(PubendId(p), Timestamp(below))?;
            chops += 1;
        }
    }
    v.insert(
        "storage.chop_us_per_call",
        ns_per(t.elapsed(), chops) / 1_000.0,
    );
    drop(log);

    // The PHB's commit: one pubend's 4 ms of events through the
    // group-commit pipeline, on the store medium and on the real device.
    let commit_us = |factory: Box<dyn MediaFactory>, batches: usize| -> Res<Vec<f64>> {
        let pipe = CommitPipeline::new(EventLog::open(factory, "events", VolumeConfig::default())?);
        evs.chunks(COMMIT_BATCH.max(1))
            .take(batches)
            .map(|batch| {
                let t = Instant::now();
                pipe.commit_with(|log| batch.iter().try_for_each(|e| log.append(e).map(drop)))?;
                Ok(t.elapsed().as_nanos() as f64 / 1_000.0)
            })
            .collect()
    };
    let on_store = commit_us(store.factory("replay-commit"), 400)?;
    v.insert(
        "storage.commit_us_per_batch",
        on_store.iter().sum::<f64>() / on_store.len() as f64,
    );
    let device = FileFactory::new(store.path().join("replay-device"))?;
    v.insert(
        "storage.fsync_us_p50_disk",
        median(&commit_us(Box::new(device), 50)?),
    );

    let meta = SharedMetaTable::open(store.factory("replay-meta"), "meta", TableConfig::default())?;
    let t = Instant::now();
    let batches = 400;
    for i in 0..batches as u64 {
        let batch: Vec<(String, Option<Vec<u8>>)> = (0..5)
            .map(|k| (format!("ld/{k}"), Some((i + k).to_le_bytes().to_vec())))
            .collect();
        meta.commit(&batch)?;
    }
    v.insert(
        "storage.meta_commit_us_per_batch",
        ns_per(t.elapsed(), batches) / 1_000.0,
    );
    Ok(())
}

fn pfs(store: &StoreDir, evs: &[EventRef], matched: &[Vec<u32>], v: &mut Values) -> Res<()> {
    let mut pfs = Pfs::open(store.factory("replay-pfs"), "shb", PfsMode::Precise)?;
    let (mut write, mut sync) = (Duration::ZERO, Duration::ZERO);
    let (mut records, mut syncs) = (0usize, 0usize);
    for (i, (e, slots)) in evs.iter().zip(matched).enumerate() {
        if !slots.is_empty() {
            let t = Instant::now();
            pfs.write_slots(e.pubend, e.ts, slots, |i| (SubscriberId(i as u64 + 1), 0))?;
            write += t.elapsed();
            records += 1;
        }
        if (i + 1) % PFS_BATCH == 0 {
            let t = Instant::now();
            pfs.sync()?;
            sync += t.elapsed();
            syncs += 1;
        }
    }
    v.insert("pfs.write_ns_per_record", ns_per(write, records));
    v.insert("pfs.sync_us_per_batch", ns_per(sync, syncs) / 1_000.0);
    v.insert(
        "pfs.bytes_per_record",
        pfs.stats().total_bytes as f64 / records.max(1) as f64,
    );
    // A subscriber that was away for a second reads its filtered ticks
    // back: the busiest slot, pubend 0, ticks 1..=1000.
    let mut counts = std::collections::HashMap::<u32, usize>::new();
    for slots in matched {
        for &s in slots {
            *counts.entry(s).or_default() += 1;
        }
    }
    let slot = counts
        .into_iter()
        .max_by_key(|&(s, n)| (n, s))
        .map_or(0, |(s, _)| s);
    let t = Instant::now();
    let read = pfs.read_slot(
        PubendId(0),
        SubSlot::new(slot, 0),
        SubscriberId(slot as u64 + 1),
        Timestamp::ZERO,
        Timestamp(1_000),
        5_000,
    )?;
    v.insert(
        "pfs.read_ns_per_record",
        ns_per(t.elapsed(), read.records_visited),
    );
    Ok(())
}

fn streams(evs: &[EventRef], v: &mut Values) {
    // Pubend 0's knowledge as the PHB emits it: a data tick, then the
    // silent tick up to the next event.
    let parts: Vec<KnowledgePart> = evs
        .iter()
        .filter(|e| e.pubend == PubendId(0))
        .flat_map(|e| {
            [
                KnowledgePart::Data(e.clone()),
                KnowledgePart::Silence {
                    from: e.ts.next(),
                    to: e.ts.next(),
                },
            ]
        })
        .collect();
    let mut ks = KnowledgeStream::new();
    let t = Instant::now();
    for p in &parts {
        ks.apply(p);
    }
    v.insert(
        "streams.apply_ns_per_part",
        ns_per(t.elapsed(), parts.len()),
    );
    let ticks = parts.len();
    let t = Instant::now();
    black_box(ks.export_range(Timestamp(1), Timestamp(ticks as u64)));
    v.insert("streams.export_ns_per_tick", ns_per(t.elapsed(), ticks));
    let mut cs = CuriosityStream::new();
    let ranges = 1_000u64;
    let t = Instant::now();
    for i in 0..ranges {
        let (from, to) = (Timestamp(1 + i * 20), Timestamp(10 + i * 20));
        black_box(cs.add_wanted(from, to, i));
        cs.satisfy(from, to);
    }
    v.insert(
        "streams.curiosity_ns_per_range",
        ns_per(t.elapsed(), ranges as usize),
    );
}

/// Forwards to `next` if there is one, else counts.
struct Hop {
    next: Option<NodeId>,
    seen: Arc<AtomicU64>,
}

impl Node for Hop {
    fn on_message(&mut self, _from: NodeId, msg: NetMsg, ctx: &mut dyn NodeCtx) {
        match self.next {
            Some(next) => ctx.send(next, msg),
            None => {
                self.seen.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    fn on_timer(&mut self, _: TimerKey, _: &mut dyn NodeCtx) {}
}

fn net(evs: &[EventRef], v: &mut Values) {
    let msgs = || {
        evs.iter().map(|e| {
            NetMsg::Knowledge(gryphon_types::KnowledgeMsg {
                pubend: e.pubend,
                parts: vec![KnowledgePart::Data(e.clone())],
                nack_response: false,
                interest_version: 0,
            })
        })
    };
    // The channel every hop of the runtime rides on, same capacity.
    let (tx, rx) = crossbeam::channel::bounded::<NetMsg>(65_536);
    let n = evs.len();
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..n {
                black_box(rx.recv().expect("sender alive"));
            }
        });
        for m in msgs() {
            tx.send(m).expect("receiver alive");
        }
    });
    v.insert("net.chan_ns_per_msg", ns_per(t.elapsed(), n));

    let seen = Arc::new(AtomicU64::new(0));
    let mut b = gryphon_net::NetBuilder::new();
    let first = b.add_node(
        "hop-a",
        Hop {
            next: Some(NodeId(1)),
            seen: Arc::clone(&seen),
        },
    );
    b.add_node(
        "hop-b",
        Hop {
            next: None,
            seen: Arc::clone(&seen),
        },
    );
    let running = b.start();
    let t = Instant::now();
    for m in msgs() {
        running.inject(first.id(), m);
    }
    let deadline = t + Duration::from_secs(10);
    while seen.load(Ordering::Relaxed) < n as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
    }
    // Two hops per message: driver -> a, a -> b.
    v.insert("net.hop_ns_per_msg", ns_per(t.elapsed(), 2 * n));
    drop(running.stop());
}
