//! Matching-engine benchmarks: access-predicate index vs naive scan (the
//! substrate ablation for Aguilera et al.-style matching).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gryphon_bench::bench_event;
use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
use gryphon_types::SubscriberId;

fn build_index(n: u64) -> SubscriptionIndex {
    (0..n)
        .map(|i| {
            // 3/4 equality partitions, 1/4 with an extra range predicate.
            let f = if i % 4 == 3 {
                format!("class = {} && _seq >= 0", i % 4)
            } else {
                format!("class = {}", i % 4)
            };
            (SubscriberId(i), Filter::parse(&f).expect("filter"))
        })
        .collect()
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for &n in &[100u64, 1_000, 10_000] {
        let index = build_index(n);
        let events: Vec<_> = (0..64).map(bench_event).collect();
        group.bench_with_input(BenchmarkId::new("access_index", n), &n, |b, _| {
            let mut out = Vec::new();
            let mut i = 0usize;
            b.iter(|| {
                index.matches_into(&events[i % events.len()], &mut MatchScratch, &mut out);
                i += 1;
                std::hint::black_box(out.len())
            });
        });
        // The naive scan becomes painful quickly; keep it to smaller sets.
        if n <= 1_000 {
            group.bench_with_input(BenchmarkId::new("naive_scan", n), &n, |b, _| {
                let mut i = 0usize;
                b.iter(|| {
                    let v = index.matches_naive(&events[i % events.len()]);
                    i += 1;
                    std::hint::black_box(v.len())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
