//! Order statistics over per-run samples.

/// Median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail percentile that the sample count supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Whole percent, above 50.
    pub percentile: u32,
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest whole percentile above the median that still has at least
/// `min_beyond` samples beyond it, by the nearest-rank rule (the p-th
/// percentile is the `ceil(p·n/100)`-th smallest sample). `None` when the
/// sample count supports no percentile above the median.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (51..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= min_beyond).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            beyond: n - rank,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<f64> {
        // Reverse order, to check the functions sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&samples(5)), Some(3.0));
        assert_eq!(median(&samples(4)), Some(2.5));
    }

    #[test]
    fn no_tail_until_more_than_twenty_samples() {
        // p > 50 needs rank > n/2 and at least ten beyond it.
        for n in 0..=20 {
            assert_eq!(tail(&samples(n), 10), None, "n = {n}");
        }
        let t = tail(&samples(21), 10).expect("21 samples support p52");
        assert_eq!(t.percentile, 52);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 11.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_beyond() {
        for n in 21..=1000 {
            let t = tail(&samples(n), 10).expect("supported");
            assert!(t.beyond >= 10, "n = {n}: {t:?}");
            // The next percentile up would leave fewer than ten.
            if t.percentile < 99 {
                let rank = ((t.percentile as usize + 1) * n).div_ceil(100);
                assert!(
                    n - rank < 10,
                    "n = {n}: p{} also qualifies",
                    t.percentile + 1
                );
            }
        }
        let t = tail(&samples(1000), 10).expect("supported");
        assert_eq!((t.percentile, t.beyond, t.value), (99, 10, 990.0));
    }
}
