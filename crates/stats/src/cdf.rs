//! Empirical cumulative distribution functions: the one exact sorted
//! sample behind every statistic of a report.
//!
//! Figures 4, 5 and 7 of the paper are CDF plots; [`Cdf`] supports both the
//! "fraction at or below x" query used to print those series and the inverse
//! quantile query used for headline numbers ("median waiting time for 12
//! blocks was 189 seconds"), plus the sample's mean, standard deviation and
//! extremes (Figure 1, Table II). [`Aggregate`] condenses one per-run
//! scalar across runs.

use std::fmt;

/// An empirical CDF over a finite sample.
///
/// Construction sorts a copy of the data once; quantile queries are then
/// O(1). Quantiles use the nearest-rank (inverted CDF) convention, matching
/// how the paper reports "the propagation delay of the 95% fastest blocks".
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from a sample.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN or infinite.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        assert!(
            sorted.iter().all(|v| v.is_finite()),
            "CDF input must be finite"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// True if the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean (0 for an empty sample).
    pub fn mean(&self) -> f64 {
        moments(&self.sorted).0
    }

    /// Population standard deviation (0 for an empty sample).
    pub fn std_dev(&self) -> f64 {
        moments(&self.sorted).1
    }

    /// Smallest value.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty sample")
    }

    /// Largest value.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty sample")
    }

    /// The median (0.5 quantile).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `P(X <= x)` under the empirical distribution (0 for empty sample).
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The smallest sample value `v` with `P(X <= v) >= q`.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Samples the CDF at `points` evenly spaced x-values across the data
    /// range, returning `(x, P(X <= x))` pairs — the plottable series.
    ///
    /// Returns an empty vector for an empty sample.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        if points == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.at(x))
            })
            .collect()
    }

    /// Borrow the sorted sample.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Mean and population standard deviation of an ascending sample, summed
/// in ascending order so the bits depend only on the multiset.
fn moments(sorted: &[f64]) -> (f64, f64) {
    if sorted.is_empty() {
        return (0.0, 0.0);
    }
    let n = sorted.len() as f64;
    let mean = sorted.iter().sum::<f64>() / n;
    let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Cross-run aggregation of one scalar statistic.
///
/// A grid produces one scalar per run (a median propagation delay, a fork
/// rate, a commit-time percentile); `Aggregate` condenses the per-run
/// values of one grid point into the row a results table prints: mean ±
/// stddev with the spread (min / p50 / p95 / max — the
/// percentile-of-percentiles convention when the scalar is itself a
/// percentile).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Number of runs aggregated (the default aggregates none, with
    /// every statistic 0).
    pub runs: usize,
    /// Mean of the per-run values.
    pub mean: f64,
    /// Population standard deviation of the per-run values.
    pub std_dev: f64,
    /// Smallest per-run value (0 when `runs == 0`).
    pub min: f64,
    /// Median per-run value (0 when `runs == 0`).
    pub p50: f64,
    /// 95th-percentile per-run value (0 when `runs == 0`).
    pub p95: f64,
    /// Largest per-run value (0 when `runs == 0`).
    pub max: f64,
}

impl Aggregate {
    /// Aggregates a set of per-run values.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN or infinite.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let s = Cdf::from_values(values);
        if s.is_empty() {
            return Aggregate::default();
        }
        let (mean, std_dev) = moments(&s.sorted);
        Aggregate {
            runs: s.count(),
            mean,
            std_dev,
            min: s.min(),
            p50: s.median(),
            p95: s.quantile(0.95),
            max: s.max(),
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.runs == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "{:.3} ± {:.3} (n={}, min {:.3}, p50 {:.3}, p95 {:.3}, max {:.3})",
            self.mean, self.std_dev, self.runs, self.min, self.p50, self.p95, self.max
        )
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "cdf(n=0)");
        }
        write!(
            f,
            "cdf(n={}, p10={:.3}, p50={:.3}, p90={:.3}, p99={:.3})",
            self.count(),
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

    #[test]
    fn at_is_fraction_at_or_below() {
        let c = Cdf::from_values([1.0, 2.0, 2.0, 4.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.0), 0.75);
        assert_eq!(c.at(3.0), 0.75);
        assert_eq!(c.at(4.0), 1.0);
    }

    #[test]
    fn quantile_inverts_at() {
        let c = Cdf::from_values((1..=1000).map(f64::from));
        assert_eq!(c.quantile(0.5), 500.0);
        assert_eq!(c.quantile(0.9), 900.0);
        assert_eq!(c.quantile(1.0), 1000.0);
        // at(quantile(q)) >= q for all q.
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            assert!(c.at(c.quantile(q)) >= q);
        }
    }

    #[test]
    fn series_is_monotone() {
        let c = Cdf::from_values([5.0, 1.0, 3.0, 2.0, 4.0]);
        let s = c.series(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 1.0);
        assert_eq!(s[10].0, 5.0);
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(s[10].1, 1.0);
    }

    #[test]
    fn degenerate_series() {
        let c = Cdf::from_values([7.0, 7.0]);
        assert_eq!(c.series(5), vec![(7.0, 1.0)]);
        let empty = Cdf::from_values(std::iter::empty());
        assert!(empty.series(5).is_empty());
        assert_eq!(empty.at(3.0), 0.0);
    }

    #[test]
    fn basic_moments() {
        let s = Cdf::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let s = Cdf::from_values((1..=100).map(f64::from));
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.95), 95.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.median(), 50.0);
    }

    #[test]
    fn quantile_single_element() {
        let s = Cdf::from_values([42.0]);
        for q in [0.0, 0.3, 0.5, 1.0] {
            assert_eq!(s.quantile(q), 42.0);
        }
    }

    #[test]
    fn empty_sample_behaviors() {
        let s = Cdf::from_values(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.at(1.0), 0.0);
        assert_eq!(s.to_string(), "cdf(n=0)");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = Cdf::from_values([1.0, f64::NAN]);
    }

    #[test]
    fn aggregate_condenses_per_run_values() {
        let a = Aggregate::from_values((1..=20).map(f64::from));
        assert_eq!(a.runs, 20);
        assert!((a.mean - 10.5).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.p50, 10.0);
        assert_eq!(a.p95, 19.0);
        assert_eq!(a.max, 20.0);
        assert!(a.to_string().contains("n=20"));
        let empty = Aggregate::from_values(std::iter::empty());
        assert_eq!(empty.runs, 0);
        assert_eq!(empty.to_string(), "n=0");
    }

    #[test]
    fn display_is_informative() {
        let c = Cdf::from_values([1.0, 2.0, 3.0]);
        assert!(c.to_string().contains("n=3"));
        let e = Cdf::from_values(std::iter::empty());
        assert_eq!(e.to_string(), "cdf(n=0)");
    }
}
