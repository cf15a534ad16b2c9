//! Probability distributions used by the network and mining models.
//!
//! Each distribution is a small value type with a `sample(&mut Xoshiro256)`
//! method. Implementations use standard textbook transforms (inverse CDF,
//! Marsaglia polar) so they are auditable without external references.
//!
//! | Distribution | Used for |
//! |---|---|
//! | [`Exp`] | inter-block mining times, burst gaps |
//! | [`Normal`] | clock-offset core, misc. noise |
//! | [`LogNormal`] | latency jitter, block validation times |
//! | [`Zipf`] | transaction-sender activity skew |
//! | [`Mixture2`] | NTP offsets (tight core + heavy tail) |
//! | [`WeightedIndex`] | miner draws by hash-power share, region placement |

use crate::rng::Xoshiro256;
use ethmeter_types::SimDuration;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    /// Creates an exponential distribution with the given rate (events per
    /// unit time).
    ///
    /// # Panics
    ///
    /// Panics unless `lambda` is finite and positive.
    pub fn with_rate(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "exponential rate must be positive, got {lambda}"
        );
        Exp { lambda }
    }

    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is finite and positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        Exp { lambda: 1.0 / mean }
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.lambda
    }

    /// Draws a sample (inverse-CDF method).
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }

    /// Draws a sample interpreted as seconds and converts it to a
    /// [`SimDuration`].
    #[inline]
    pub fn sample_duration(&self, rng: &mut Xoshiro256) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(rng))
    }
}

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters ({mean}, {std_dev})"
        );
        Normal { mean, std_dev }
    }

    /// Draws a sample using the Marsaglia polar method.
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std_dev * u * factor;
            }
        }
    }
}

/// Log-normal distribution, parameterized by the underlying normal's
/// `mu`/`sigma` (i.e. `exp(N(mu, sigma))`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Normal::new`].
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            norm: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal with the given *median* (`exp(mu)`) and shape
    /// `sigma`. The median parameterization is the natural one for latency:
    /// "median jitter 1.0×, occasionally much larger".
    ///
    /// # Panics
    ///
    /// Panics if `median` is not positive or `sigma` is negative.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(
            median.is_finite() && median > 0.0,
            "log-normal median must be positive, got {median}"
        );
        LogNormal::new(median.ln(), sigma)
    }

    /// Draws a sample.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Zipf distribution on ranks `1..=n` with exponent `s`.
///
/// Used for transaction-sender activity: a few accounts (exchanges,
/// token contracts) emit most traffic, which is what makes same-sender
/// nonce races — and hence out-of-order arrivals — common (§III-C2).
///
/// Sampling is by inverted CDF over precomputed cumulative weights, O(log n)
/// per draw.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "invalid Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there is only a single rank (always sampled).
    pub fn is_empty(&self) -> bool {
        false // by construction n > 0
    }

    /// Draws a 0-based rank (0 is the most popular).
    pub fn sample(&self, rng: &mut Xoshiro256) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("no NaN in cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// A two-component mixture: with probability `p_tail` sample from `tail`,
/// otherwise from `core`.
///
/// Models the paper's NTP error characterization: "offsets lesser than 10 ms
/// in 90% of cases and lesser than 100 ms in 99% of cases" — a tight core
/// plus a rare heavy tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mixture2 {
    core: Normal,
    tail: Normal,
    p_tail: f64,
}

impl Mixture2 {
    /// Creates a mixture of two normals.
    ///
    /// # Panics
    ///
    /// Panics if `p_tail` is outside `[0, 1]`.
    pub fn new(core: Normal, tail: Normal, p_tail: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_tail),
            "mixture probability must be in [0,1], got {p_tail}"
        );
        Mixture2 { core, tail, p_tail }
    }

    /// Draws a sample.
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        if rng.chance(self.p_tail) {
            self.tail.sample(rng)
        } else {
            self.core.sample(rng)
        }
    }
}

/// An index drawn with probability proportional to its weight.
///
/// A draw scales one uniform by the total weight, `x = next_f64() ·
/// total`, and subtracts the weights from `x` in slice order: the first
/// index whose weight takes `x` below zero is drawn, and if rounding
/// leaves `x` non-negative after the last weight, the last index is.
/// [`WeightedIndex::new`] turns that loop into a sorted threshold table
/// once, and [`WeightedIndex::sample`] reads the same index off it from the
/// same single draw.
///
/// Write `d_j(x)` for `x − w_0 − … − w_j`, subtracted left to right in
/// `f64`. Rounding to nearest is monotone, so subtracting a fixed operand
/// never reverses the order of two values: every `d_j` is non-decreasing
/// in `x`. Subtracting a non-negative weight never raises a value, so
/// `d_{j+1}(x) ≤ d_j(x)`. Hence `d_j(x) < 0` holds exactly for `x` below
/// a threshold `t_j`, the least non-negative `x` with `d_j(x) ≥ 0` (it
/// exists: `d_j(∞) = ∞`), and `t_j ≤ t_{j+1}`. The loop stops at the
/// first `j` with `x < t_j`, so the index it draws is the number of
/// `t_0, …, t_{n−2}` at or below `x`: the fall-through to the last index
/// is the case where all of them are. The bit patterns of non-negative
/// `f64` are ordered as their values, so each threshold is the least
/// pattern `d_j` accepts, found by a 63-step bisection of those integers
/// between `t_{j−1}` and +∞, at `j + 1` subtractions a step.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    /// `thresholds[j]` is `t_j`, for every index but the last.
    pub(crate) thresholds: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Builds the threshold table of non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty, any is negative, or they do not
    /// sum to a positive finite total.
    pub fn new(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must be non-empty with positive finite sum"
        );
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        // No threshold lies below the one before it.
        let (mut lo, inf) = (0u64, f64::INFINITY.to_bits());
        let thresholds = (0..weights.len() - 1)
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
                f64::from_bits(lo)
            })
            .collect();
        WeightedIndex { thresholds, total }
    }

    /// Draws an index: the one the subtraction loop picks for
    /// `next_f64() · total` (see the type's docs).
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> usize {
        self.index_of(rng.next_f64() * self.total)
    }

    /// The index the subtraction loop picks for the scaled draw `x`: how
    /// many thresholds are at or below it.
    #[inline]
    pub(crate) fn index_of(&self, x: f64) -> usize {
        self.thresholds.partition_point(|&t| t <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn exponential_moments() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let d = Exp::with_mean(13.3);
        let samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 13.3).abs() < 0.15, "mean {mean}");
        // Var = mean^2 for exponential.
        assert!(
            (var - 13.3 * 13.3).abs() / (13.3 * 13.3) < 0.05,
            "var {var}"
        );
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_rate_and_mean_agree() {
        let a = Exp::with_rate(0.5);
        let b = Exp::with_mean(2.0);
        assert_eq!(a, b);
        assert!((a.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exponential_duration_sampling() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let d = Exp::with_mean(1.0);
        let dur = d.sample_duration(&mut rng);
        assert!(dur > SimDuration::ZERO);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let d = Normal::new(5.0, 2.0);
        let samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 5.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn degenerate_normal_is_constant() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let d = Normal::new(7.0, 0.0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.0);
        }
    }

    #[test]
    fn lognormal_median() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let d = LogNormal::with_median(10.0, 0.5);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = samples[samples.len() / 2];
        assert!((median - 10.0).abs() < 0.3, "median {median}");
        assert!(samples[0] > 0.0);
    }

    #[test]
    fn zipf_rank_ordering() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let d = Zipf::new(100, 1.1);
        assert_eq!(d.len(), 100);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        // Rank 0 strictly more popular than rank 10, which beats rank 90.
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Everything in range.
        assert_eq!(counts.iter().sum::<usize>(), 100_000);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let d = Zipf::new(10, 0.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((9_000..=11_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn mixture_matches_ntp_spec() {
        // 90% of offsets under 10ms, 99% under 100ms (paper §II).
        let mut rng = Xoshiro256::seed_from_u64(10);
        let core = Normal::new(0.0, 4.0); // ms
        let tail = Normal::new(0.0, 40.0); // ms
        let mix = Mixture2::new(core, tail, 0.1);
        let mut under10 = 0usize;
        let mut under100 = 0usize;
        let n = 100_000;
        for _ in 0..n {
            let x = mix.sample(&mut rng).abs();
            if x < 10.0 {
                under10 += 1;
            }
            if x < 100.0 {
                under100 += 1;
            }
        }
        let f10 = under10 as f64 / n as f64;
        let f100 = under100 as f64 / n as f64;
        assert!(f10 > 0.85 && f10 < 0.97, "P(<10ms) = {f10}");
        assert!(f100 > 0.985, "P(<100ms) = {f100}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        let chooser = WeightedIndex::new(&[0.7, 0.2, 0.1]);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[chooser.sample(&mut rng)] += 1;
        }
        assert!((68_000..=72_000).contains(&counts[0]), "{counts:?}");
        assert!((18_000..=22_000).contains(&counts[1]), "{counts:?}");
        assert!((8_000..=12_000).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_index_rejects_negative_weights() {
        let _ = WeightedIndex::new(&[0.5, -0.1, 0.6]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exp_rejects_zero_rate() {
        let _ = Exp::with_rate(0.0);
    }

    #[test]
    fn exp_extreme_rates_convert_without_wrapping() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        // A rate of one event per ~32 simulated years stays representable
        // (u64 nanoseconds cover ~584 years): every draw must convert to
        // a finite, positive duration.
        let sparse = Exp::with_rate(1e-9);
        for _ in 0..1_000 {
            let d = sparse.sample_duration(&mut rng);
            assert!(d > SimDuration::ZERO && d < SimDuration::MAX);
        }
        // An ultra-high rate truncates many draws to the same nanosecond
        // but must never go negative or panic.
        let dense = Exp::with_rate(1e12);
        for _ in 0..1_000 {
            let d = dense.sample_duration(&mut rng);
            assert!(d < SimDuration::from_micros(10));
        }
    }

    // At truly degenerate rates the mean exceeds the representable range;
    // the checked conversion must clamp to `SimDuration::MAX` (debug
    // builds assert instead, so this contract only executes in release).
    #[cfg(not(debug_assertions))]
    #[test]
    fn exp_degenerate_rate_saturates_in_release() {
        let mut rng = Xoshiro256::seed_from_u64(32);
        let glacial = Exp::with_rate(1e-30);
        let mut saw_max = false;
        for _ in 0..64 {
            let d = glacial.sample_duration(&mut rng);
            saw_max |= d == SimDuration::MAX;
        }
        assert!(saw_max, "expected at least one clamped draw");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }
}
