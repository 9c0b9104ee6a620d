//! CI gate for the group-commit win (ISSUE 8 acceptance): with 8
//! concurrent committers on a device with a fixed modeled flush latency,
//! the pipeline must beat serialized per-caller sync by ≥ 3× in
//! committed-batches/sec.
//!
//! The modeled latency (800 µs per flush, slept outside the media's
//! namespace lock) dominates every other cost, so the ratio is stable
//! even on loaded CI machines: serial pays `commits × latency`, grouped
//! pays `fsyncs × latency` with `fsyncs ≪ commits`. One serial run against
//! one grouped run still read 2.91× on a loaded machine, so each side runs
//! `ROUNDS` times, interleaved, and the bar is on the ratio of medians. The
//! fsync count, over all rounds, is asserted too, as a
//! scheduler-independent backstop.

use gryphon_storage::{CommitPipeline, LogVolume, MemFactory, StreamId, VolumeConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const COMMITS_PER_THREAD: usize = 16;
const LATENCY_US: u64 = 800;
const ROUNDS: usize = 5;
const COMMITS_PER_ROUND: u64 = (THREADS * COMMITS_PER_THREAD) as u64;

fn volume(factory: MemFactory) -> LogVolume {
    LogVolume::create(Box::new(factory), "v", VolumeConfig::default()).unwrap()
}

fn run_threads(f: impl Fn(usize) + Send + Sync + 'static) {
    let f = Arc::new(f);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f(t))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Baseline: every committer locks the volume and pays its own flush.
fn serial_round() -> Duration {
    let serial = Arc::new(Mutex::new(volume(MemFactory::with_sync_latency_us(
        LATENCY_US,
    ))));
    let t0 = Instant::now();
    run_threads(move |t| {
        for i in 0..COMMITS_PER_THREAD {
            let mut vol = serial.lock().unwrap();
            vol.append(StreamId(t as u32), &[i as u8; 64]).unwrap();
            vol.sync().unwrap();
        }
    });
    t0.elapsed()
}

/// Pipeline: same workload, same modeled device, group commit. Returns
/// the elapsed time and how many flushes the round's commits took.
fn grouped_round() -> (Duration, u64) {
    let pipe = CommitPipeline::new(volume(MemFactory::with_sync_latency_us(LATENCY_US)));
    let t0 = Instant::now();
    {
        let pipe = pipe.clone();
        run_threads(move |t| {
            for i in 0..COMMITS_PER_THREAD {
                pipe.commit_with(|vol| vol.append(StreamId(t as u32), &[i as u8; 64]))
                    .unwrap();
            }
        });
    }
    let elapsed = t0.elapsed();
    let stats = pipe.stats();
    assert_eq!(stats.commits, COMMITS_PER_ROUND);
    (elapsed, stats.fsyncs)
}

fn median(runs: &[Duration]) -> Duration {
    let mut runs = runs.to_vec();
    runs.sort();
    runs[runs.len() / 2]
}

#[test]
fn eight_committers_beat_serial_sync_by_3x() {
    let mut serial = Vec::new();
    let mut grouped = Vec::new();
    let mut fsyncs = 0;
    for _ in 0..ROUNDS {
        serial.push(serial_round());
        let (elapsed, flushes) = grouped_round();
        grouped.push(elapsed);
        fsyncs += flushes;
    }
    let commits = ROUNDS as u64 * COMMITS_PER_ROUND;
    assert!(
        fsyncs * 3 <= commits,
        "grouping must cut flushes ≥ 3×: {fsyncs} fsyncs for {commits} commits"
    );
    let speedup = median(&serial).as_secs_f64() / median(&grouped).as_secs_f64();
    assert!(
        speedup >= 3.0,
        "expected ≥ 3× committed-batches/sec by medians ({speedup:.2}×): \
         serial {serial:?}, grouped {grouped:?}"
    );
}
