//! Order statistics over small sample sets.

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0 when empty.
pub fn quantile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile<T: Copy + Into<f64> + PartialOrd>(samples: &mut [T], q: f64) -> f64 {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    quantile_sorted(samples, q)
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method): `(q1, q2, q3)`. Needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile_sorted::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}
