//! Fixed-size streaming quantile sketch.
//!
//! Planet-scale campaigns produce delay samples far beyond what an exact
//! [`Cdf`](crate::Cdf) (which retains every value) can hold. [`QuantileSketch`]
//! is the out-of-core counterpart: a DDSketch-style log-bucketed counter
//! array of **fixed size** (~20 KiB regardless of sample count) whose
//! quantile answers carry a documented *relative* error bound.
//!
//! **Integer-only state** makes it safe inside the deterministic
//! pipeline: the sketch stores only `u64` bucket counts plus the exact
//! running `min`/`max` (`f64` min/max are exact, associative and
//! commutative). There is no floating-point running sum, so the sketch
//! of a sample never depends on the order its values were recorded in.
//!
//! # Error bound
//!
//! For samples `>= MIN_TRACKED` (1e-9), every quantile answer `e` satisfies
//!
//! ```text
//! exact <= e <= exact * GAMMA        (GAMMA = 1.02, i.e. <= 2% relative)
//! ```
//!
//! where `exact` is the nearest-rank quantile the exact [`Cdf`](crate::Cdf) would
//! return for the same sample (up to one `f64` ulp of slop from the log
//! bucketing). Samples in `[0, MIN_TRACKED)` are represented as `0.0`
//! (absolute error below 1e-9 — invisible at nanosecond granularity).
//! Samples above `MAX_TRACKED` clamp into the top bucket; the returned
//! estimate is still capped at the exact observed maximum.

use std::fmt;

/// Relative-accuracy base: bucket `i` spans `[γ^i, γ^{i+1})`.
pub const GAMMA: f64 = 1.02;

/// Smallest positive value resolved by the log buckets. Anything in
/// `[0, MIN_TRACKED)` lands in the dedicated low bucket and reads back
/// as `0.0`.
pub const MIN_TRACKED: f64 = 1e-9;

/// Largest value resolved by the log buckets; larger values clamp into
/// the top bucket (the estimate is still capped at the observed max).
#[cfg(test)]
const MAX_TRACKED: f64 = 1e12;

/// `-floor(ln(MIN_TRACKED) / ln(GAMMA))`: shifts bucket indices so that
/// `MIN_TRACKED` maps to index 0 (pinned by a unit test below).
const OFFSET: i64 = 1047;

/// Bucket count covering `[MIN_TRACKED, MAX_TRACKED]` with headroom.
const NUM_BUCKETS: usize = 2_500;

/// A fixed-size streaming quantile sketch.
///
/// See the [module docs](self) for the error bound and the determinism
/// argument. Construction and recording never allocate beyond the one
/// fixed bucket array.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Log-bucket counts: bucket `i` covers `[γ^{i-OFFSET}, γ^{i-OFFSET+1})`.
    buckets: Vec<u64>,
    /// Count of samples in `[0, MIN_TRACKED)`.
    low: u64,
    /// Total samples recorded.
    count: u64,
    /// Exact smallest sample (`f64::INFINITY` when empty).
    min: f64,
    /// Exact largest sample (`f64::NEG_INFINITY` when empty).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            buckets: vec![0; NUM_BUCKETS],
            low: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index of a value `>= MIN_TRACKED` (clamped to the top
    /// bucket above `MAX_TRACKED`).
    fn index_of(x: f64) -> usize {
        let idx = (x.ln() / GAMMA.ln()).floor() as i64 + OFFSET;
        idx.clamp(0, NUM_BUCKETS as i64 - 1) as usize
    }

    /// The upper edge `γ^{i-OFFSET+1}` of bucket `i` — the quantile
    /// representative guaranteeing `exact <= estimate <= exact * GAMMA`.
    fn upper_edge(i: usize) -> f64 {
        GAMMA.powi((i as i64 - OFFSET + 1) as i32)
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative, NaN, or infinite — the measurement
    /// pipeline only sketches non-negative delays and shares.
    pub fn record(&mut self, x: f64) {
        assert!(
            x.is_finite() && x >= 0.0,
            "sketch input must be finite and non-negative, got {x}"
        );
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x < MIN_TRACKED {
            self.low += 1;
        } else {
            self.buckets[Self::index_of(x)] += 1;
        }
    }

    /// Records every value of an iterator.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded sample.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile estimate, within the module's documented
    /// relative error (`GAMMA - 1`) of the exact [`Cdf`](crate::Cdf) answer (rank
    /// selection mirrors `Cdf::quantile`: rank `ceil(q*n)` clamped to
    /// `[1, n]`).
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty sketch");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if q == 0.0 {
            return self.min;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.low {
            return 0.0;
        }
        let mut cum = self.low;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // The exact rank-`rank` sample lies inside bucket `i`
                // (bucketing is monotone), so the upper edge over-estimates
                // it by at most a factor of GAMMA. Cap at the exact max so
                // q = 1 never overshoots the sample range.
                return Self::upper_edge(i).min(self.max);
            }
        }
        self.max
    }
}

impl fmt::Display for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "sketch(n=0)");
        }
        write!(
            f,
            "sketch(n={}, p10={:.3}, p50={:.3}, p90={:.3}, p99={:.3})",
            self.count,
            self.quantile(0.10),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdf;
    use proptest::prelude::*;

    #[test]
    fn offset_and_range_constants_are_consistent() {
        assert_eq!(-((MIN_TRACKED.ln() / GAMMA.ln()).floor() as i64), OFFSET);
        // MIN_TRACKED maps to the first bucket, MAX_TRACKED fits below the top.
        assert_eq!(QuantileSketch::index_of(MIN_TRACKED), 0);
        assert!(QuantileSketch::index_of(MAX_TRACKED) < NUM_BUCKETS - 1);
        // Upper edges bound their bucket contents.
        for x in [1e-9, 1e-3, 0.5, 1.0, 13.3, 400.0, 1e6, 9.9e11] {
            let i = QuantileSketch::index_of(x);
            let upper = QuantileSketch::upper_edge(i);
            assert!(x <= upper * (1.0 + 1e-12), "{x} above edge {upper}");
            assert!(
                upper <= x * GAMMA * (1.0 + 1e-12),
                "{x} edge {upper} too far"
            );
        }
    }

    #[test]
    fn quantiles_track_the_exact_cdf() {
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.37).collect();
        let mut s = QuantileSketch::new();
        s.record_all(values.iter().copied());
        let c = Cdf::from_values(values);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = c.quantile(q);
            let est = s.quantile(q);
            assert!(
                est >= exact * (1.0 - 1e-12) && est <= exact * GAMMA * (1.0 + 1e-12),
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(s.min(), Some(0.37));
        assert_eq!(s.max(), Some(3700.0));
        assert_eq!(s.count(), 10_000);
    }

    #[test]
    fn zero_and_subnormal_values_read_back_as_zero() {
        let mut s = QuantileSketch::new();
        s.record_all([0.0, 0.0, 5e-10, 1.0]);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.quantile(0.25), 0.0);
        assert!(s.quantile(1.0) >= 1.0);
        assert_eq!(s.min(), Some(0.0));
    }

    #[test]
    fn estimates_never_exceed_the_observed_max() {
        let mut s = QuantileSketch::new();
        s.record_all([2e12, 3e12]); // beyond MAX_TRACKED: clamped buckets
        assert_eq!(s.quantile(1.0), 3e12);
        assert!(s.quantile(0.5) <= 3e12);
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn empty_quantile_panics() {
        QuantileSketch::new().quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_input_rejected() {
        QuantileSketch::new().record(-1.0);
    }

    #[test]
    fn display_is_informative() {
        let mut s = QuantileSketch::new();
        s.record_all([1.0, 2.0, 3.0]);
        assert!(s.to_string().contains("n=3"));
        assert_eq!(QuantileSketch::new().to_string(), "sketch(n=0)");
    }

    proptest! {
        #[test]
        fn quantiles_within_documented_bound_vs_exact_cdf(
            values in proptest::collection::vec(0.0f64..1e7, 1..400),
            qs in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            let mut s = QuantileSketch::new();
            s.record_all(values.iter().copied());
            let c = Cdf::from_values(values.iter().copied());
            for &q in qs.iter().chain(&[1.0]) {
                let exact = c.quantile(q);
                let est = s.quantile(q);
                if exact < MIN_TRACKED {
                    prop_assert!(est <= MIN_TRACKED);
                } else {
                    prop_assert!(
                        est >= exact * (1.0 - 1e-12),
                        "q={} est {} below exact {}", q, est, exact
                    );
                    prop_assert!(
                        est <= exact * GAMMA * (1.0 + 1e-12),
                        "q={} est {} above bound for exact {}", q, est, exact
                    );
                }
            }
        }
    }
}
