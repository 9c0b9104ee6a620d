//! Hot-path matching: `matches_into` with a reused output buffer, on
//! owned events at 1 000 and 10 000 subscriptions (recorded in
//! `BENCH_matching.json`), for two filter shapes:
//!
//! * `class_partition` — `class = k` (a quarter with an extra range
//!   predicate), a quarter of all subscriptions matching each event;
//! * `selective` — the end-to-end benchmark's `selective` shape,
//!   `sym = 'S…' && price > t && region = r` with 20 subscriptions per
//!   symbol, ≈ 2 matching each event: the access-predicate index visits
//!   the event's symbol bucket only, so the cost should not grow with
//!   the subscription count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gryphon_bench::bench_event;
use gryphon_matching::{Filter, MatchScratch, SubscriptionIndex};
use gryphon_types::{Event, PubendId, SubscriberId, Timestamp};

fn class_partition(n: u64) -> SubscriptionIndex {
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

/// A cheap deterministic mix (splitmix64's finaliser).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `n` selective filters (20 per symbol, regions assigned in runs as the
/// benchmark's generator does) and 64 events, a sixth of whose symbols
/// have no subscriber.
fn selective(n: u64) -> (SubscriptionIndex, Vec<Event>) {
    let syms = n / 20;
    let index = (0..n)
        .map(|j| {
            let f = format!(
                "sym = 'S{}' && price > {} && region = {}",
                j % syms,
                mix(j) % 10_000,
                j / syms % 4
            );
            (SubscriberId(j), Filter::parse(&f).expect("filter"))
        })
        .collect();
    let events = (0..64u64)
        .map(|k| {
            let h = mix(k ^ 0x5e1);
            Event::builder(PubendId(0))
                .attr("_seq", k as i64)
                .attr("sym", format!("S{}", h % (syms * 6 / 5)))
                .attr("price", (h >> 20) as i64 % 10_000)
                .attr("region", (h >> 40) as i64 % 4)
                .attr("volume", (h >> 8) as i64 % 100_000)
                .attr(
                    "exch",
                    ["NYSE", "LSE", "TSE", "FWB"][(h >> 50) as usize % 4],
                )
                .attr("flag", h & 1 == 1)
                .attr("bid", ((h >> 20) % 10_000) as f64 - 0.25)
                .build(Timestamp(k + 1))
        })
        .collect();
    (index, events)
}

fn bench_matching_hot(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_hot");
    for &n in &[1_000u64, 10_000] {
        let class_events: Vec<Event> = (0..64).map(|i| Event::clone(&bench_event(i))).collect();
        let (sel_index, sel_events) = selective(n);
        let cases = [
            ("class_partition", class_partition(n), class_events),
            ("selective", sel_index, sel_events),
        ];
        for (name, index, events) in &cases {
            group.bench_with_input(BenchmarkId::new(*name, n), &n, |b, _| {
                let mut out = Vec::new();
                let mut i = 0usize;
                b.iter(|| {
                    index.matches_into(&events[i % events.len()], &mut MatchScratch, &mut out);
                    i += 1;
                    std::hint::black_box(out.len())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matching_hot);
criterion_main!(benches);
