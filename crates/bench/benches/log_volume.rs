//! Log Volume benchmarks: append / read-by-index / chop on the in-memory
//! media (isolates the data-structure cost from disk latency).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gryphon_storage::{LogIndex, LogVolume, MemFactory, StreamId, VolumeConfig};
use std::time::{Duration, Instant};

fn bench_log_volume(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_volume");
    group.throughput(Throughput::Elements(1));

    group.bench_function("append_408B", |b| {
        let mut vol = LogVolume::create(
            Box::new(MemFactory::new()),
            "bench",
            VolumeConfig::default(),
        )
        .expect("volume");
        let payload = vec![7u8; 408]; // a 25-subscriber PFS record
        b.iter(|| std::hint::black_box(vol.append(StreamId(0), &payload).expect("append")));
    });

    group.bench_function("append_4KiB", |b| {
        // A `large_payload` event: 4 KiB of attribute bytes plus its
        // encoding, the frame the PHB logs per event there.
        let payload = vec![7u8; 4_140];
        b.iter_custom(|iters| {
            // A fresh volume per 1 000 appends keeps the in-memory media
            // at ~4 MiB; only the appends are timed.
            let mut elapsed = Duration::ZERO;
            let mut left = iters;
            while left > 0 {
                let n = left.min(1_000);
                let mut vol = LogVolume::create(
                    Box::new(MemFactory::new()),
                    "bench",
                    VolumeConfig::default(),
                )
                .expect("volume");
                let t0 = Instant::now();
                for _ in 0..n {
                    std::hint::black_box(vol.append(StreamId(0), &payload).expect("append"));
                }
                elapsed += t0.elapsed();
                left -= n;
            }
            elapsed
        });
    });

    group.bench_function("read_by_index", |b| {
        let mut vol = LogVolume::create(
            Box::new(MemFactory::new()),
            "bench",
            VolumeConfig::default(),
        )
        .expect("volume");
        let payload = vec![7u8; 408];
        let n = 10_000u64;
        for _ in 0..n {
            vol.append(StreamId(0), &payload).expect("append");
        }
        let mut i = 0u64;
        b.iter(|| {
            let idx = LogIndex(i % n);
            i = i.wrapping_add(2_654_435_761); // stride the index space
            std::hint::black_box(vol.read(StreamId(0), idx).expect("read"))
        });
    });

    group.bench_function("append_chop_cycle", |b| {
        let mut vol = LogVolume::create(
            Box::new(MemFactory::new()),
            "bench",
            VolumeConfig {
                segment_bytes: 64 * 1024,
                ..VolumeConfig::default()
            },
        )
        .expect("volume");
        let payload = vec![7u8; 408];
        b.iter(|| {
            let idx = vol.append(StreamId(0), &payload).expect("append");
            if idx.0 % 64 == 63 {
                vol.chop(StreamId(0), LogIndex(idx.0 - 32), 0)
                    .expect("chop");
            }
            std::hint::black_box(idx)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_log_volume);
criterion_main!(benches);
