//! A seeded fold hasher for the hash maps probed once per row or per id.
//!
//! std's default SipHash-1-3 costs tens of nanoseconds per key — a
//! noticeable share of a hash-index probe, a GROUP BY row or an id→slot
//! hop. [`FoldState`] hashes each 64-bit word with one folded multiply (the
//! 128-bit product's two halves XORed together) and mixes once more in
//! `finish`. Every map draws its own seed from std's `RandomState`, so which
//! keys collide is unknown until the process runs and differs per map: the
//! served multi-tenant path keeps the flooding resistance SipHash gave it.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Odd 64-bit multipliers: the fractional digits of π (per word) and of
/// e (in `finish`).
const WORD: u64 = 0x243F_6A88_85A3_08D3;
const FINISH: u64 = 0xB7E1_5162_8AED_2A6B;

/// The high and low halves of the full product `a × b`, XORed together.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64) // cast-ok: keeps each 64-bit half of the product
}

/// Builds [`FoldHasher`]s from a seed drawn once per map.
#[derive(Debug, Clone)]
pub struct FoldState {
    seed: u64,
}

impl FoldState {
    /// A fresh seed: std's per-map random keys, passed through SipHash once.
    pub fn new() -> Self {
        FoldState {
            seed: RandomState::new().hash_one(WORD),
        }
    }
}

impl Default for FoldState {
    fn default() -> Self {
        FoldState::new()
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.seed,
            seed: self.seed,
        }
    }
}

/// One key's hash in progress (see [`FoldState`]).
#[derive(Debug, Clone)]
pub struct FoldHasher {
    acc: u64,
    seed: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = fold_mul(self.acc ^ word, WORD);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64); // cast-ok: usize is at most 64 bits wide
    }

    /// Bytes go in as little-endian words, the last one zero-padded, after
    /// their length (so a zero-padded tail cannot alias a longer input).
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold_mul(self.acc, self.seed ^ FINISH)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    use super::*;
    use crate::value::GroupKey;

    /// xorshift64*: a dependency-free, seeded stream of test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A key of every `GroupKey` variant, drawn from a small domain so the
    /// sequence revisits keys.
    fn key(rng: &mut Rng) -> GroupKey {
        let small = |rng: &mut Rng| i64::try_from(rng.below(64)).unwrap_or(0);
        match rng.below(6) {
            0 => GroupKey::Null,
            1 => GroupKey::Integer(small(rng) - 32),
            2 => GroupKey::Double((small(rng) as f64 / 4.0).to_bits()), // cast-ok: below 64
            3 => GroupKey::Boolean(rng.below(2) == 1),
            4 => GroupKey::Text(Arc::from("k".repeat(small(rng) as usize % 20))), // cast-ok: below 64
            _ => GroupKey::Path((0..rng.below(4)).map(|_| small(rng)).collect()),
        }
    }

    #[test]
    fn a_fold_map_agrees_with_std_over_random_operations() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut fold: HashMap<Vec<GroupKey>, u64, FoldState> = HashMap::default();
        let mut std_map: HashMap<Vec<GroupKey>, u64> = HashMap::new();
        for step in 0..20_000u64 {
            let k: Vec<GroupKey> = (0..1 + rng.below(2)).map(|_| key(&mut rng)).collect();
            match rng.below(3) {
                0 => assert_eq!(fold.insert(k.clone(), step), std_map.insert(k, step)),
                1 => assert_eq!(fold.remove(&k), std_map.remove(&k)),
                _ => assert_eq!(fold.get(&k), std_map.get(&k)),
            }
            assert_eq!(fold.len(), std_map.len());
        }
        assert!(
            fold.len() > 100,
            "the sequence should leave a populated map"
        );
        for (k, v) in &std_map {
            assert_eq!(fold.get(k), Some(v));
        }
    }

    /// A plain multiplicative hash keeps the low zero bits of `k << 20`, so
    /// all 4096 keys would share one of 4096 buckets; the fold spreads them.
    #[test]
    fn shifted_integer_keys_spread_over_low_bits() {
        let state = FoldState::new();
        let buckets: HashSet<u64> = (0..4096i64)
            .map(|k| state.hash_one(GroupKey::Integer(k << 20)) & 0xFFF)
            .collect();
        assert!(
            buckets.len() >= 2000,
            "only {} of 4096 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn each_map_draws_its_own_seed() {
        let (a, b) = (FoldState::new(), FoldState::new());
        let key = GroupKey::Integer(42);
        assert_ne!(a.hash_one(&key), b.hash_one(&key));
        // One map hashes a key the same way every time.
        assert_eq!(a.hash_one(&key), a.clone().hash_one(&key));
    }
}
