//! Percentiles, the "ten samples beyond" rule, and median/IQR over rounds.

/// Samples that must lie beyond a reported percentile (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps a product like 0.99 * 1000 that lands a hair above
    // 990 from rounding up to the next rank.
    let r = (q * n as f64 - 1e-9).ceil().max(0.0) as usize;
    Some(r.clamp(1, n))
}

/// How many of `n` samples lie strictly beyond the `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    rank(n, q).map_or(0, |r| n - r)
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them, so spreads computed here match the ones
/// the driver computes. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One metric over the rounds of a run.
///
/// The reported `value` of a latency or a rate is the **best round** (the
/// lowest latency, the highest rate), not the median. Noise on this box is
/// one-sided and comes in states that last for seconds: the host slows down
/// for a while, and the allocator's layout makes single statements bi-stable
/// (`adhoc_short`'s neighbour list runs at 6.6 µs or at 9.5 µs for rounds on
/// end). A median over ten rounds lands in whichever state held for six of
/// them and repeated only to 14–25 % between runs; the best round repeats to
/// a few percent, and a change that makes the engine slower moves it just
/// the same. The median and the inter-quartile spread over the rounds are
/// kept beside the value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub iqr: f64,
    pub rounds: usize,
}

impl Summary {
    fn with_value(per_round: &[f64], value: f64) -> Summary {
        let (q1, q3) = quartiles(per_round);
        Summary {
            value,
            median: median(per_round),
            iqr: q3 - q1,
            rounds: per_round.len(),
        }
    }

    /// The best round is the value.
    pub fn best_of(per_round: &[f64], higher_is_better: bool) -> Summary {
        let best =
            per_round
                .iter()
                .copied()
                .reduce(if higher_is_better { f64::max } else { f64::min });
        Summary::with_value(per_round, best.unwrap_or(0.0))
    }

    /// The median is the value (set-up time, as the driver's contract asks).
    pub fn median_of(per_round: &[f64]) -> Summary {
        Summary::with_value(per_round, median(per_round))
    }

    /// A single measurement: no rounds to spread over.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            iqr: 0.0,
            rounds: 1,
        }
    }

    /// Inter-quartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.iqr / self.median).abs()
        }
    }
}

/// A latency percentile over rounds, with how it was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub summary: Summary,
    /// The percentile of each round (empty when pooled).
    pub per_round: Vec<f64>,
    /// The quantile actually reported: the requested one, or the highest of
    /// 0.95 / 0.9 / 0.5 that the sample supports.
    pub q: f64,
    /// True when single rounds were too short for `q` and the rounds were
    /// pooled into one sample (then `summary.iqr` is 0 and `rounds` is 1).
    pub pooled: bool,
    /// Samples in the smallest round (or in the pool).
    pub samples: usize,
    /// Samples beyond the percentile in the smallest round (or the pool).
    pub beyond: usize,
}

/// The `q` percentile per round, then the best (lowest) round — provided
/// every round leaves at least [`MIN_BEYOND`] samples beyond it. Otherwise the
/// rounds are pooled, and if even the pool is too small the quantile steps
/// down until the rule holds. Rounds are sorted in place.
pub fn tail(rounds: &mut [Vec<u64>], q: f64) -> Option<Tail> {
    for r in rounds.iter_mut() {
        r.sort_unstable();
    }
    let smallest = rounds.iter().map(Vec::len).min()?;
    if samples_beyond(smallest, q) >= MIN_BEYOND {
        let per_round: Vec<f64> = rounds
            .iter()
            .filter_map(|r| percentile(r, q))
            .map(|ns| ns as f64)
            .collect();
        return Some(Tail {
            summary: Summary::best_of(&per_round, false),
            per_round,
            q,
            pooled: false,
            samples: smallest,
            beyond: samples_beyond(smallest, q),
        });
    }
    let mut pool: Vec<u64> = rounds.iter().flatten().copied().collect();
    pool.sort_unstable();
    let q = [q, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(pool.len(), q) >= MIN_BEYOND)
        .unwrap_or(0.5);
    let value = percentile(&pool, q)? as f64;
    Some(Tail {
        summary: Summary::single(value),
        per_round: Vec::new(),
        q,
        pooled: true,
        samples: pool.len(),
        beyond: samples_beyond(pool.len(), q),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.99), Some(7));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        let enough = vec![(0..1000u64).collect::<Vec<_>>(); 3];
        let t = tail(&mut enough.clone(), 0.99).unwrap();
        assert!(!t.pooled);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.summary.median, 989.0);
        assert_eq!(t.summary.value, 989.0);

        // One short round forces pooling: 999 + 1000 + 1000 samples.
        let mut short = enough.clone();
        short[0].pop();
        let t = tail(&mut short, 0.99).unwrap();
        assert!(t.pooled);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.samples, 2999);
        assert!(t.beyond >= MIN_BEYOND);

        // A pool too small for p99 steps down to the highest supported one.
        let mut tiny = vec![(0..150u64).collect::<Vec<_>>()];
        let t = tail(&mut tiny, 0.99).unwrap();
        assert!(t.pooled);
        assert_eq!(t.q, 0.9);
        assert_eq!(t.beyond, 15);
        assert!(tail(&mut [], 0.99).is_none());
    }

    #[test]
    fn median_of_rounds_and_iqr() {
        let s = Summary::best_of(&[5.0, 1.0, 4.0, 2.0, 3.0], false);
        assert_eq!(s.median, 3.0);
        // The reported value is the best round: the lowest latency, the
        // highest rate; set-up time reports its median.
        assert_eq!(s.value, 1.0);
        assert_eq!(
            Summary::best_of(&[5.0, 1.0, 4.0, 2.0, 3.0], true).value,
            5.0
        );
        assert_eq!(Summary::median_of(&[5.0, 1.0, 4.0, 2.0, 3.0]).value, 3.0);
        // Python: statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(s.iqr, 3.0);
        assert_eq!(s.spread(), 1.0);
        // Python: quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(Summary::best_of(&[7.0], false).iqr, 0.0);
        assert_eq!(Summary::best_of(&[7.0], false).value, 7.0);
    }
}
