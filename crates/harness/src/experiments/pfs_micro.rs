//! §5.1.2 — the PFS microbenchmark.
//!
//! Paper: "800 events/s input rate, 100 subscribers, 200 events/s per
//! subscriber, 418 byte messages (250 byte payload). For each subscriber
//! both the PFS and the event log is synced every 200 events (every
//! second of the workload) and maintains information for the last 1000
//! events (the last 5 seconds). The benchmark represents 100 s of real
//! time. The PFS ran the benchmark in 11088 ms. Compared to event logging
//! for each subscriber, PFS logged 25× less data, and was over 5× faster."
//!
//! This is a *real-storage* benchmark: both sides run on actual files
//! (std::fs with `sync_data`) through the same `Media` abstraction.

use crate::report::{Report, Table};
use crate::topology::RunOptions;
use gryphon::{Pfs, PfsMode};
use gryphon_baseline::PerSubscriberLog;
use gryphon_storage::{FileFactory, MediaFactory};
use gryphon_types::{Event, EventRef, PubendId, SubscriberId, Timestamp};
use std::time::Instant;

struct WorkloadSpec {
    seconds: u64,
    input_rate: u64,
    subscribers: u64,
    classes: u64,
}

/// One synthetic event of the microbenchmark.
fn event_at(seq: u64, spec: &WorkloadSpec) -> EventRef {
    // 800 ev/s on the tick-ms line → 1.25 ms apart. The payload is 250
    // bytes and a header-filler attribute pads the wire size to the
    // paper's 418 bytes.
    let ts = Timestamp(1 + seq * 1_250 / 1_000);
    let e = Event::builder(PubendId(0))
        .attr("class", (seq % spec.classes) as i64)
        .attr("_hdr", "x".repeat(121))
        .payload(vec![0u8; 250])
        .build_ref(ts);
    debug_assert_eq!(e.encoded_len(), 418);
    e
}

/// Subscribers matching event `seq`: the class partition (25 of 100).
/// Subscriber `s` sits in slab slot `s`.
fn matching_slots(seq: u64, spec: &WorkloadSpec) -> Vec<u32> {
    (0..spec.subscribers as u32)
        .filter(|&s| u64::from(s) % spec.classes == seq % spec.classes)
        .collect()
}

fn run_pfs(dir: &std::path::Path, spec: &WorkloadSpec) -> (f64, u64, u64) {
    let factory = FileFactory::new(dir).expect("tmp dir");
    let mut pfs = Pfs::open(factory.clone_box(), "bench", PfsMode::Precise).expect("pfs");
    let total = spec.seconds * spec.input_rate;
    let sync_every = spec.input_rate; // once per workload second
    let retain_events = 1_000u64; // per subscriber ⇒ 5 s of stream
    let start = Instant::now();
    for seq in 0..total {
        let e = event_at(seq, spec);
        let slots = matching_slots(seq, spec);
        pfs.write_slots(PubendId(0), e.ts, &slots, |s| (SubscriberId(s.into()), 0))
            .expect("pfs write");
        if (seq + 1) % sync_every == 0 {
            pfs.sync().expect("pfs sync");
            // Retention: drop information older than 5 s of stream time.
            let floor = e.ts - retain_events * 5; // 1000 events/sub ≈ 5000 ticks
            if floor > Timestamp::ZERO {
                pfs.chop_below(PubendId(0), floor).expect("pfs chop");
            }
        }
    }
    pfs.sync().expect("final sync");
    let elapsed = start.elapsed().as_secs_f64() * 1_000.0;
    let stats = pfs.stats();
    (elapsed, stats.payload_bytes, stats.records)
}

fn run_event_log(dir: &std::path::Path, spec: &WorkloadSpec) -> (f64, u64, u64) {
    let factory = FileFactory::new(dir).expect("tmp dir");
    let mut log = PerSubscriberLog::open(Box::new(factory), "bench").expect("log");
    let total = spec.seconds * spec.input_rate;
    let sync_every = spec.input_rate;
    let start = Instant::now();
    for seq in 0..total {
        let e = event_at(seq, spec);
        for s in matching_slots(seq, spec) {
            log.append(SubscriberId(s.into()), &e).expect("append");
        }
        if (seq + 1) % sync_every == 0 {
            log.sync().expect("sync");
            // Retention: each subscriber keeps its last 1000 events.
            let floor = e.ts - 5_000;
            if floor > Timestamp::ZERO {
                for s in 0..spec.subscribers {
                    log.ack(SubscriberId(s), floor).expect("ack");
                }
            }
        }
    }
    log.sync().expect("final sync");
    let elapsed = start.elapsed().as_secs_f64() * 1_000.0;
    let stats = log.stats();
    (elapsed, stats.payload_bytes, stats.records)
}

/// Runs the microbenchmark on real files.
pub fn run(opts: &RunOptions) -> Report {
    let spec = WorkloadSpec {
        seconds: if opts.quick { 5 } else { 100 },
        input_rate: 800,
        subscribers: 100,
        classes: 4,
    };
    let base = std::env::temp_dir().join(format!("gryphon-pfs-micro-{}", std::process::id()));
    let pfs_dir = base.join("pfs");
    let log_dir = base.join("log");
    let (pfs_ms, pfs_bytes, pfs_records) = run_pfs(&pfs_dir, &spec);
    let (log_ms, log_bytes, log_records) = run_event_log(&log_dir, &spec);
    std::fs::remove_dir_all(&base).ok();

    let mut report = Report::new("pfs_micro");
    let mut t = Table::new(
        format!(
            "§5.1.2 PFS microbenchmark ({} s × 800 ev/s, 100 subscribers, real file I/O)",
            spec.seconds
        ),
        &["system", "wall time (ms)", "data logged (MB)", "records"],
    );
    t.row(&[
        "PFS (timestamp + matching-subscriber list)".into(),
        format!("{pfs_ms:.0}"),
        format!("{:.2}", pfs_bytes as f64 / 1e6),
        pfs_records.to_string(),
    ]);
    t.row(&[
        "per-subscriber event logging (418 B × n subscribers)".into(),
        format!("{log_ms:.0}"),
        format!("{:.2}", log_bytes as f64 / 1e6),
        log_records.to_string(),
    ]);
    report.table(t);
    report.note(format!(
        "data ratio: {:.1}× less data with the PFS (paper: 25×); wall-time ratio: {:.1}× faster \
         (paper: >5×)",
        log_bytes as f64 / pfs_bytes as f64,
        log_ms / pfs_ms,
    ));
    report.note(
        "record arithmetic: each event matches 25 subscribers ⇒ event logging writes \
         25 × 418 B ≈ 10.4 KB/event; the PFS writes one 8+16×25 = 408 B record",
    );
    // No simulator runs here (real file I/O); synthesize the metrics
    // snapshot so this experiment exports like the others.
    let mut metrics = gryphon_sim::Metrics::default();
    metrics.count("pfs_micro.pfs_wall_ms", pfs_ms);
    metrics.count("pfs_micro.pfs_bytes", pfs_bytes as f64);
    metrics.count("pfs_micro.pfs_records", pfs_records as f64);
    metrics.count("pfs_micro.log_wall_ms", log_ms);
    metrics.count("pfs_micro.log_bytes", log_bytes as f64);
    metrics.count("pfs_micro.log_records", log_records as f64);
    report.attach_metrics(&metrics);
    report
}
