//! The benchmark's own seeded generator (SplitMix64) and a Zipf(1) sampler,
//! so the statement stream depends on `--seed` and nothing else.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf with exponent 1 over ranks `0..n`: rank `r` has weight `1/(r+1)`.
pub struct Zipf {
    /// Cumulative weights, normalised so the last entry is 1.
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..16).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..16).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_head_is_hot_and_tail_is_reached() {
        let z = Zipf::new(1000);
        let mut rng = Rng::new(1);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        // H(1000) ≈ 7.49, so rank 0 draws ≈ 13 % and rank 1 half of that.
        assert!((12_000..15_000).contains(&hits[0]), "{}", hits[0]);
        assert!(hits[0] > hits[1] && hits[1] > hits[9]);
        assert!(hits[500..].iter().sum::<u32>() > 5_000);
    }
}
