//! Order statistics over small samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their nearest-rank percentile.
pub fn percentile<T: Copy + PartialOrd>(values: &mut [T], p: f64) -> T {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    percentile_sorted(values, p)
}

/// Mean of the samples from the `(p - w)`-th to the `(p + w)`-th percentile
/// (nearest rank, both included) of an ascending-sorted slice: a percentile
/// that moves smoothly where clock readings are whole nanoseconds and a
/// single order statistic would read the same on every run.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_band(sorted: &[u64], p: f64, w: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = |q: f64| ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let band = &sorted[rank(p - w) - 1..rank(p + w)];
    band.iter().sum::<u64>() as f64 / band.len() as f64
}

/// Whether a sample of `n` leaves at least ten values beyond percentile
/// `p` — the rule for which tail percentile a sample supports.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0
}

/// Which end of a per-round sample is its favourable one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// How far `b` is worse than `a`, as a share of `a` (negative when `b`
    /// is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    }
}

/// A per-round metric summarised across rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Across {
    /// Mean of the best fiftieth of the rounds (at least three): the
    /// fastest times, the highest rates. This host's noise only ever adds
    /// time, in slow phases that last from seconds to minutes; the further
    /// into the fast tail a statistic reaches, the less of it it sees (see
    /// README.md, "The statistic"). Averaging a few rounds instead of
    /// taking the single best keeps one lucky round, and whole-nanosecond
    /// percentiles, from deciding the value.
    pub best: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Rounds summarised.
    pub rounds: usize,
}

/// Summarises one value per round.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn across_rounds(per_round: &[f64], better: Better) -> Across {
    let mut v = per_round.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let k = v.len().div_ceil(50).max(3).min(v.len());
    let best = match better {
        Better::Lower => &v[..k],
        Better::Higher => &v[v.len() - k..],
    };
    Across {
        best: best.iter().sum::<f64>() / k as f64,
        q1: percentile_sorted(&v, 25.0),
        median: percentile_sorted(&v, 50.0),
        q3: percentile_sorted(&v, 75.0),
        rounds: v.len(),
    }
}

/// Quartiles by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns), so spreads printed here
/// match the driver's.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = v.len();
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Outside 0..=4 at the ends of a tiny sample: Python extrapolates.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 10.0), 10);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        // Five samples: p50 is the third, p10 the first, p99 the last.
        let mut w = [50, 10, 40, 20, 30];
        assert_eq!(percentile(&mut w, 50.0), 30);
        assert_eq!(percentile(&mut w, 10.0), 10);
        assert_eq!(percentile(&mut w, 99.0), 50);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn percentile_bands_average_around_the_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        // Ranks 450..=550 and 985..=995.
        assert_eq!(percentile_band(&v, 50.0, 5.0), 500.0);
        assert_eq!(percentile_band(&v, 99.0, 0.5), 990.0);
        // Four samples: the band is the two middle ones, the usual median.
        assert_eq!(percentile_band(&[1, 2, 4, 9], 50.0, 5.0), 3.0);
        assert_eq!(percentile_band(&[7], 99.0, 0.5), 7.0);
        // A band narrower than one rank is the nearest-rank percentile.
        assert_eq!(percentile_band(&v, 99.0, 0.0), 990.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
    }

    #[test]
    fn the_best_rounds_follow_the_direction() {
        let rounds: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = across_rounds(&rounds, Better::Lower);
        // A fiftieth of 200 rounds: the four fastest.
        assert_eq!(t.best, 2.5);
        assert_eq!((t.q1, t.median, t.q3, t.rounds), (50.0, 100.0, 150.0, 200));
        let r = across_rounds(&rounds, Better::Higher);
        assert_eq!(r.best, 198.5);
        // Never fewer than three rounds, nor more than there are.
        assert_eq!(across_rounds(&rounds[..20], Better::Lower).best, 2.0);
        assert_eq!(across_rounds(&[3.0, 1.0], Better::Lower).best, 2.0);
        // A slow phase covering most of the rounds moves the median, not
        // the best ones.
        let mut noisy = vec![10.0; 10];
        noisy.extend(vec![17.0; 40]);
        let n = across_rounds(&noisy, Better::Lower);
        assert_eq!(n.best, 10.0);
        assert_eq!(n.median, 17.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(Better::Lower.worsening(100.0, 110.0), 0.10);
        assert_eq!(Better::Higher.worsening(100.0, 90.0), 0.10);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
