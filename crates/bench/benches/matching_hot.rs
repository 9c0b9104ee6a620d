//! Hot-path matching: the interned, generation-stamped counting index
//! with a reused `MatchScratch`, on owned events at 1 000 and 10 000
//! subscriptions (recorded in `BENCH_matching.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gryphon_bench::bench_event;
use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
use gryphon_types::{Event, SubscriberId};

fn filters(n: u64) -> Vec<(SubscriberId, Filter)> {
    (0..n)
        .map(|i| {
            let f = if i % 4 == 3 {
                format!("class = {} && _seq >= 0", i % 4)
            } else {
                format!("class = {}", i % 4)
            };
            (SubscriberId(i), Filter::parse(&f).expect("filter"))
        })
        .collect()
}

fn bench_matching_hot(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_hot");
    for &n in &[1_000u64, 10_000] {
        let index: SubscriptionIndex = filters(n).into_iter().collect();
        let events: Vec<Event> = (0..64).map(|i| Event::clone(&bench_event(i))).collect();
        group.bench_with_input(BenchmarkId::new("interned_scratch", n), &n, |b, _| {
            let mut out = Vec::new();
            let mut scratch = MatchScratch::new();
            let mut i = 0usize;
            b.iter(|| {
                index.matches_into(&events[i % events.len()], &mut scratch, &mut out);
                i += 1;
                std::hint::black_box(out.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching_hot);
criterion_main!(benches);
