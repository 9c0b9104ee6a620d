//! Property tests for the fixed-bucket histogram: percentile estimates
//! must stay within the bucket scheme's documented error bound of the
//! exact sorted-slice answer, for arbitrary sample sets.

use gryphon_sim::Histogram;
use proptest::prelude::*;

/// Exact nearest-rank percentile on a sorted copy of the samples — the
/// oracle the histogram estimate is judged against.
fn exact_percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Buckets are quarter-powers of two, so an estimate can sit anywhere in
/// a bucket spanning a 2^0.25 ≈ 1.19× range; allow a little slack on top
/// for interpolation across the bucket the exact value borders.
const REL_TOLERANCE: f64 = 0.20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentile_tracks_sorted_slice_oracle(
        samples in prop::collection::vec(0.001f64..1e9, 1..400),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::default();
        for &s in &samples {
            h.observe(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);

        let est = h.percentile(q).unwrap();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(
            (min..=max).contains(&est),
            "estimate {} outside observed range [{}, {}]", est, min, max
        );

        let exact = exact_percentile(&samples, q);
        let rel = (est - exact).abs() / exact.abs().max(f64::MIN_POSITIVE);
        // The estimate may legitimately land one rank away from the
        // nearest-rank oracle (interpolation); accept if it is close to
        // either the exact answer or a neighboring sample rank.
        let n = samples.len() as f64;
        let lo = exact_percentile(&samples, (q - 1.5 / n).max(0.0));
        let hi = exact_percentile(&samples, (q + 1.5 / n).min(1.0));
        let rel_lo = (est - lo).abs() / lo.abs().max(f64::MIN_POSITIVE);
        let rel_hi = (est - hi).abs() / hi.abs().max(f64::MIN_POSITIVE);
        let within = rel < REL_TOLERANCE
            || rel_lo < REL_TOLERANCE
            || rel_hi < REL_TOLERANCE
            || (lo <= est && est <= hi);
        prop_assert!(
            within,
            "q={}: estimate {} too far from oracle {} (neighbors {} / {})",
            q, est, exact, lo, hi
        );
    }

    #[test]
    fn extremes_are_exact(samples in prop::collection::vec(0.001f64..1e9, 1..200)) {
        let mut h = Histogram::default();
        for &s in &samples {
            h.observe(s);
        }
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.min().unwrap(), min);
        prop_assert_eq!(h.max().unwrap(), max);
        prop_assert_eq!(h.percentile(1.0).unwrap(), max);
        prop_assert!((h.sum() - samples.iter().sum::<f64>()).abs() < 1e-6 * h.sum().abs().max(1.0));
    }

    #[test]
    fn percentiles_are_monotone_in_q(
        samples in prop::collection::vec(0.001f64..1e6, 2..200),
    ) {
        let mut h = Histogram::default();
        for &s in &samples {
            h.observe(s);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let p = h.percentile(q).unwrap();
            prop_assert!(p >= last, "percentile regressed at q={}: {} < {}", q, p, last);
            last = p;
        }
    }

    /// A weighted observe is `n` single observes: count, sum (whole
    /// numbers, as every stage latency is) and every bucket.
    #[test]
    fn observe_n_equals_n_single_observes(
        batches in prop::collection::vec((0u64..5_000_000, 0u64..70), 1..40),
    ) {
        let mut weighted = Histogram::default();
        let mut single = Histogram::default();
        for &(v, n) in &batches {
            weighted.observe_n(v as f64, n);
            for _ in 0..n {
                single.observe(v as f64);
            }
        }
        prop_assert_eq!(weighted, single);
    }
}
