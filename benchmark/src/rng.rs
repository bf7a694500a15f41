//! Seeded input generation: the benchmark's only randomness.
//!
//! The seed drives input generation alone (probe arguments, unknown memory
//! contents, zipf draws, kernel order); the program under test receives only
//! the generated inputs.

/// splitmix64 — small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `lane` (a reader thread, a kernel) derived
    /// from the same seed.
    pub fn fork(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// A double that sums exactly: a multiple of 0.25 in `0..16`, so every
    /// stencil and reduction result is bit-identical whatever order the
    /// additions run in.
    pub fn quarter(&mut self) -> f64 {
        self.below(64) as f64 * 0.25
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Keys in the zipf head.
pub const ZIPF_HEAD: usize = 8;
/// Share of draws that land in the head, in percent.
pub const ZIPF_HEAD_PCT: u64 = 90;

/// `len` draws over `keys` keys: 90 % land in an 8-key head weighted 1/rank,
/// the rest spread uniformly over the tail (the C5 serving mix). With no
/// tail every draw comes from the head.
pub fn zipf_stream(rng: &mut Rng, keys: usize, len: usize) -> Vec<u16> {
    assert!(keys > 0 && keys <= u16::MAX as usize);
    let head = ZIPF_HEAD.min(keys);
    let weights: Vec<u64> = (1..=head as u64).map(|r| 1_000_000 / r).collect();
    let total: u64 = weights.iter().sum();
    (0..len)
        .map(|_| {
            if keys > head && rng.below(100) >= ZIPF_HEAD_PCT {
                return (head + rng.below((keys - head) as u64) as usize) as u16;
            }
            let mut pick = rng.below(total);
            for (r, w) in weights.iter().enumerate() {
                if pick < *w {
                    return r as u16;
                }
                pick -= w;
            }
            (head - 1) as u16
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = zipf_stream(&mut Rng::new(7), 64, 4096);
        let b = zipf_stream(&mut Rng::new(7), 64, 4096);
        let c = zipf_stream(&mut Rng::new(8), 64, 4096);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_head_carries_its_mass() {
        let s = zipf_stream(&mut Rng::new(1), 64, 100_000);
        assert!(s.iter().all(|&k| (k as usize) < 64));
        let head = s.iter().filter(|&&k| (k as usize) < ZIPF_HEAD).count();
        let share = head as f64 / s.len() as f64;
        assert!((0.88..0.92).contains(&share), "head share {share}");
        let first = s.iter().filter(|&&k| k == 0).count();
        let last = s.iter().filter(|&&k| k as usize == ZIPF_HEAD - 1).count();
        assert!(first > 4 * last, "rank 1 ({first}) vs rank 8 ({last})");
    }

    #[test]
    fn zipf_without_tail_stays_in_range() {
        let s = zipf_stream(&mut Rng::new(3), 2, 1000);
        assert!(s.iter().all(|&k| k < 2));
        assert!(s.contains(&0) && s.contains(&1));
    }

    #[test]
    fn forks_differ_and_repeat() {
        let mut a = Rng::fork(5, 0);
        let mut b = Rng::fork(5, 1);
        let mut a2 = Rng::fork(5, 0);
        let (x, y, z) = (a.next(), b.next(), a2.next());
        assert_ne!(x, y);
        assert_eq!(x, z);
    }

    #[test]
    fn quarters_sum_exactly() {
        let mut r = Rng::new(11);
        let v: Vec<f64> = (0..1000).map(|_| r.quarter()).collect();
        let fwd: f64 = v.iter().sum();
        let rev: f64 = v.iter().rev().sum();
        assert_eq!(fwd.to_bits(), rev.to_bits());
    }
}
