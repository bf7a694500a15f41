//! The workspace's one integer hasher, for maps keyed by values the program
//! made itself: guest addresses, frame offsets, term ids.
//!
//! `std`'s default SipHash resists keys crafted to collide, which buys
//! nothing for such keys and costs ~20 ns per lookup on paths that run once
//! per traced, verified or emulated instruction. Keys that arrive from
//! outside the process (symbol names, request fingerprints) stay on the
//! default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word hasher: one rotate, xor and multiply per word.
#[derive(Default, Clone, Copy)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    /// The product's entropy sits in its high bits — the low three bits of
    /// a hashed frame offset (a multiple of 8) are always zero — and the
    /// table picks its bucket from the low ones, so fold the halves.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// `BuildHasher` of [`WordHasher`].
pub type WordBuild = BuildHasherDefault<WordHasher>;
/// A `HashMap` on [`WordHasher`]; construct with `WordMap::default()`.
pub type WordMap<K, V> = HashMap<K, V, WordBuild>;
/// A `HashSet` on [`WordHasher`]; construct with `WordSet::default()`.
pub type WordSet<K> = HashSet<K, WordBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // 64 frame offsets, all multiples of 8, into 64 buckets: without the
        // fold every one of them lands in a bucket whose index is 0 mod 8.
        let mut buckets = [0u32; 64];
        for i in 0..64i64 {
            let h = WordBuild::default().hash_one(-8 * i);
            buckets[(h & 63) as usize] += 1;
        }
        let used = buckets.iter().filter(|&&n| n > 0).count();
        assert!(used >= 32, "only {used} of 64 buckets used");
        assert!(buckets.iter().all(|&n| n <= 4), "{buckets:?}");
    }
}
