//! Benchmark support library.
//!
//! The interesting entry points are:
//!
//! * the `xp` binary — regenerates every table and figure of the paper's
//!   evaluation (`cargo run -p gryphon-bench --release --bin xp -- all`);
//! * the Criterion benches (`cargo bench -p gryphon-bench`) covering the
//!   layers `perf_gate` guards — the matching engine, the log volume, the
//!   SHB subscriber slab. End-to-end numbers on the
//!   threaded runtime come from `benchmark/`, not from here.

/// Standard workload constants shared by benches (the paper's §5.1.2
/// microbenchmark setup).
pub mod constants {
    /// Input events per second.
    pub const INPUT_RATE: u64 = 800;
    /// Durable subscribers at the SHB.
    pub const SUBSCRIBERS: u64 = 100;
    /// Event classes (each subscriber matches one ⇒ 200 ev/s each).
    pub const CLASSES: u64 = 4;
    /// Application payload bytes (418 B on the wire with headers).
    pub const PAYLOAD: usize = 250;
}

/// Builds the synthetic event `seq` of the microbenchmark workload.
pub fn bench_event(seq: u64) -> gryphon_types::EventRef {
    // Padded to the paper's 418 wire bytes (250-byte payload + headers).
    gryphon_types::Event::builder(gryphon_types::PubendId(0))
        .attr("class", (seq % constants::CLASSES) as i64)
        .attr("_seq", seq as i64)
        .attr("_hdr", "x".repeat(103))
        .payload(vec![0u8; constants::PAYLOAD])
        .build_ref(gryphon_types::Timestamp(1 + seq * 1_250 / 1_000))
}

/// The subscribers matching event `seq` under the class partition.
pub fn bench_matches(seq: u64) -> Vec<gryphon_types::SubscriberId> {
    (0..constants::SUBSCRIBERS)
        .filter(|s| s % constants::CLASSES == seq % constants::CLASSES)
        .map(gryphon_types::SubscriberId)
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn workload_matches_quarter() {
        assert_eq!(super::bench_matches(0).len(), 25);
        assert_eq!(super::bench_matches(3).len(), 25);
        let e = super::bench_event(7);
        assert!(e.encoded_len() >= 274);
    }
}
