//! Deterministic pseudo-random number generation.
//!
//! The workspace deliberately ships its own generator instead of depending
//! on the `rand` crate: a measurement-reproduction toolkit lives or dies by
//! bit-stable replays, and pinning the generator *in the repository* means a
//! seed printed in `EXPERIMENTS.md` will regenerate the same run forever.
//!
//! Two algorithms are provided:
//!
//! - [`SplitMix64`]: a tiny generator used to expand a single `u64` seed
//!   into independent state words (its intended purpose per Steele et al.).
//! - [`Xoshiro256`]: `xoshiro256**`, the general-purpose generator used for
//!   all simulation randomness. It is fast, passes BigCrush, and supports
//!   `jump()` for carving independent streams out of one seed.

use std::fmt;

/// SplitMix64 — a 64-bit generator mainly used for seeding.
///
/// Reference: Guy L. Steele Jr., Doug Lea, Christine H. Flood,
/// "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `xoshiro256**` — the workspace's general-purpose PRNG.
///
/// Reference: David Blackman and Sebastiano Vigna, "Scrambled linear
/// pseudorandom number generators" (2018). Period 2^256 − 1.
#[derive(Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl fmt::Debug for Xoshiro256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // State is deliberately summarized: printing 256 bits of state in
        // logs is noise, but the value must never be empty (C-DEBUG-NONEMPTY).
        write!(f, "Xoshiro256 {{ s0: {:#x}, .. }}", self.s[0])
    }
}

impl Xoshiro256 {
    /// Creates a generator by expanding `seed` through [`SplitMix64`].
    ///
    /// Any seed is acceptable, including zero (the expansion cannot produce
    /// the all-zero state).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256 { s }
    }

    /// Derives an independent child generator for a named subsystem.
    ///
    /// Mixing a label keeps subsystem streams decoupled: adding draws in one
    /// subsystem does not perturb any other, which keeps experiments
    /// comparable across code changes.
    pub fn fork(&mut self, label: &str) -> Xoshiro256 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Xoshiro256::seed_from_u64(self.next_u64() ^ h)
    }

    /// Returns the next 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits and scale by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in the open interval `(0, 1]` (never zero), suitable
    /// for `ln()` without domain errors.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// A uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        if lo == hi {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Returns `true` with probability `p`.
    ///
    /// `p <= 0` never fires; `p >= 1` always fires.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (Floyd's algorithm) into
    /// `out` (cleared first), so steady-state fan-out sampling reuses one
    /// allocation.
    ///
    /// Yields all of `0..n` (in random order is *not* guaranteed) when
    /// `k >= n`.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        out.clear();
        if k >= n {
            out.extend(0..n);
            return;
        }
        // Floyd's algorithm yields k distinct values without rejection.
        out.reserve(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix_reference_vectors() {
        // Reference values computed from the published SplitMix64 algorithm
        // (seed = 1234567). Pinning them here freezes the stream: any change
        // to the implementation is a breaking change for stored seeds.
        let mut sm = SplitMix64::new(1234567);
        let expected = [
            0x599e_d017_fb08_fc85u64,
            0x2c73_f084_5854_0fa5,
            0x883e_bce5_a3f2_7c77,
            0x3fbe_f740_e917_7b3f,
        ];
        for e in expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    #[test]
    fn xoshiro_reference_vectors() {
        // First outputs of xoshiro256** seeded through SplitMix64(42),
        // cross-computed from the published algorithm description.
        let mut rng = Xoshiro256::seed_from_u64(42);
        let expected = [
            0x1578_0b2e_0c2e_c716u64,
            0x6104_d986_6d11_3a7e,
            0xae17_5332_39e4_99a1,
            0xecb8_ad47_03b3_60a1,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        let mut c = Xoshiro256::seed_from_u64(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let v = rng.next_below(10) as usize;
            counts[v] += 1;
        }
        for &c in &counts {
            // Expected 10,000 per bucket; allow ±5%.
            assert!((9_500..=10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_helpers() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(rng.range_u64(5, 5), 5);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((24_000..=26_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        let mut s = vec![99];
        for _ in 0..100 {
            rng.sample_indices_into(50, 12, &mut s);
            assert_eq!(s.len(), 12);
            let set: HashSet<usize> = s.iter().copied().collect();
            assert_eq!(set.len(), 12);
            assert!(s.iter().all(|&i| i < 50));
        }
        rng.sample_indices_into(5, 10, &mut s);
        assert_eq!(s.len(), 5);
        rng.sample_indices_into(5, 5, &mut s);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn forked_streams_are_independent_of_label_order() {
        let mut root1 = Xoshiro256::seed_from_u64(100);
        let mut net1 = root1.fork("net");
        let mut root2 = Xoshiro256::seed_from_u64(100);
        let mut net2 = root2.fork("net");
        assert_eq!(net1.next_u64(), net2.next_u64());

        let mut root3 = Xoshiro256::seed_from_u64(100);
        let mut other = root3.fork("mining");
        assert_ne!(net1.next_u64(), other.next_u64());
    }

    #[test]
    fn debug_impl_is_nonempty() {
        let rng = Xoshiro256::seed_from_u64(1);
        assert!(!format!("{rng:?}").is_empty());
    }
}

/// [`WeightedIndex`]'s threshold table against the subtraction loop it
/// replaced, draw for draw and at every threshold.
#[cfg(test)]
mod chooser {
    use super::*;
    use crate::dist::WeightedIndex;

    /// The subtraction loop, verbatim: the index it picks for the scaled
    /// draw `x`.
    fn inline_index(weights: &[f64], mut x: f64) -> usize {
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// The draw the loop made: one uniform scaled by the slice-order sum.
    fn inline_choose_weighted(rng: &mut Xoshiro256, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must be non-empty with positive finite sum"
        );
        inline_index(weights, rng.next_f64() * total)
    }

    /// Random weight vectors of length 1–20, about a quarter of the weights
    /// zero and the rest spread over six orders of magnitude.
    fn weights(rng: &mut Xoshiro256) -> Vec<f64> {
        let len = 1 + rng.index(20);
        let mut w: Vec<f64> = (0..len)
            .map(|_| {
                if rng.chance(0.25) {
                    0.0
                } else {
                    rng.next_f64() * 10f64.powi(rng.range_u64(0, 5) as i32 - 2)
                }
            })
            .collect();
        if w.iter().all(|&x| x == 0.0) {
            let i = rng.index(len);
            w[i] = 1.0;
        }
        w
    }

    #[test]
    fn chooser_matches_the_inline_loop_draw_for_draw() {
        let mut gen = Xoshiro256::seed_from_u64(0x5eed);
        for case in 0..200u64 {
            let w = weights(&mut gen);
            let chooser = WeightedIndex::new(&w);
            let mut old = Xoshiro256::seed_from_u64(case);
            let mut new = old.clone();
            for draw in 0..10_000 {
                let expected = inline_choose_weighted(&mut old, &w);
                assert_eq!(
                    chooser.sample(&mut new),
                    expected,
                    "case {case} draw {draw}"
                );
            }
            assert_eq!(new, old, "case {case}: rng state");
        }
    }

    #[test]
    fn chooser_matches_the_inline_loop_at_every_threshold() {
        // A draw at a threshold and one at the float just below it fall on
        // either side of the loop's decision there: a threshold one bit
        // pattern off moves one of the two.
        let mut gen = Xoshiro256::seed_from_u64(0x5eed);
        for case in 0..200u64 {
            let w = weights(&mut gen);
            let chooser = WeightedIndex::new(&w);
            assert_eq!(chooser.thresholds.len(), w.len() - 1, "case {case}");
            for (j, &t) in chooser.thresholds.iter().enumerate() {
                let below = (t > 0.0).then(|| f64::from_bits(t.to_bits() - 1));
                for x in std::iter::once(t).chain(below) {
                    assert_eq!(
                        chooser.index_of(x),
                        inline_index(&w, x),
                        "case {case}: threshold {j} = {t:e}, x = {x:e}, weights {w:?}"
                    );
                }
            }
        }
    }
    /// The thresholds as the table first found them: a 63-step bisection
    /// of `[previous threshold, +∞]` per index.
    fn bisected_thresholds(weights: &[f64]) -> Vec<u64> {
        let (mut lo, inf) = (0u64, f64::INFINITY.to_bits());
        (0..weights.len() - 1)
            .map(|j| {
                let spent = |bits: u64| {
                    weights[..=j]
                        .iter()
                        .fold(f64::from_bits(bits), |x, w| x - w)
                        >= 0.0
                };
                let mut hi = inf;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if spent(mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            })
            .collect()
    }

    /// `len` weights drawn from one of several shapes: zeros among
    /// ordinary values, subnormals, ratios near the range of `f64`, equal
    /// weights, and a huge weight beside tiny ones. Never all zero.
    fn shaped_weights(rng: &mut Xoshiro256, len: usize, shape: u64) -> Vec<f64> {
        let mut w: Vec<f64> = (0..len)
            .map(|_| match shape {
                0 if rng.chance(0.3) => 0.0,
                0 => rng.next_f64() * 10f64.powi(rng.range_u64(0, 7) as i32 - 3),
                1 => f64::from_bits(rng.range_u64(0, 1 << 52)),
                2 if rng.chance(0.5) => rng.next_f64() * 1e-300,
                2 => rng.next_f64() * 1e300,
                3 => 0.25,
                _ if rng.chance(0.05) => 1e12,
                _ => f64::from_bits(rng.range_u64(0, 1 << 52)) + rng.next_f64() * 1e-3,
            })
            .collect();
        if w.iter().all(|&x| x == 0.0) {
            w[len - 1] = 1.0;
        }
        w
    }

    #[test]
    fn galloped_thresholds_are_the_bisected_ones_bit_for_bit() {
        let mut gen = Xoshiro256::seed_from_u64(0x9a11);
        let mut sizes: Vec<usize> = (1..=40).chain([63, 64, 65, 257, 1_024, 4_096]).collect();
        sizes.extend((0..12).map(|_| 1 + gen.index(1_500)));
        for (case, &len) in sizes.iter().enumerate() {
            let shape = case as u64 % 5;
            let w = shaped_weights(&mut gen, len, shape);
            let galloped: Vec<u64> = WeightedIndex::new(&w)
                .thresholds
                .iter()
                .map(|t| t.to_bits())
                .collect();
            assert_eq!(
                galloped,
                bisected_thresholds(&w),
                "case {case}: {len} weights of shape {shape}"
            );
        }
    }

    /// A generator whose next `next_f64` is the largest value below 1.
    fn next_draw_just_below_one() -> Xoshiro256 {
        // The inverse of an odd multiplier modulo 2^64, by Newton's method.
        let inverse = |a: u64| {
            (0..6).fold(a, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)))
            })
        };
        // `next_u64` returns `rotl(s1 * 5, 7) * 9`: solve it for all ones.
        let s1 = u64::MAX
            .wrapping_mul(inverse(9))
            .rotate_right(7)
            .wrapping_mul(inverse(5));
        let rng = Xoshiro256 { s: [1, s1, 2, 3] };
        assert_eq!(rng.clone().next_f64(), 1.0 - f64::EPSILON / 2.0);
        rng
    }

    #[test]
    fn a_draw_rounding_leaves_unspent_falls_to_the_last_index() {
        // 0.1 + 0.2 + 0.3 sums to 0.6000000000000001, and the top draw
        // scaled by it minus the three weights leaves exactly 0.0: no
        // weight took the draw, so the loop falls through to the last
        // index — here a zero weight no draw could otherwise reach.
        let w = [0.1, 0.2, 0.3, 0.0];
        let mut old = next_draw_just_below_one();
        let mut new = old.clone();
        assert_eq!(inline_choose_weighted(&mut old, &w), 3);
        assert_eq!(WeightedIndex::new(&w).sample(&mut new), 3);
        assert_eq!(new, old);
    }
}
