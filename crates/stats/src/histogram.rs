//! Fixed-width histograms with PDF normalization (Figure 1 of the paper is
//! a PDF histogram of block propagation delays).

use std::fmt;

/// A histogram over `[lo, hi)` with equal-width bins plus an overflow bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, the range is empty, or bounds are not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range [{lo}, {hi})"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            // Floating-point edge: clamp to last in-range bin.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Records every value of an iterator.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Number of bins (excluding under/overflow).
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total observations recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Raw count of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// The `[lo, hi)` edges of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// The in-range probability mass of bin `i` (sums to ≤ 1 over bins;
    /// the remainder is under/overflow).
    pub fn pdf(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

impl fmt::Display for Histogram {
    /// Renders a compact horizontal bar chart (one row per bin).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for i in 0..self.bins() {
            let (a, b) = self.bin_edges(i);
            let width = (self.counts[i] * 40 / max) as usize;
            writeln!(
                f,
                "[{a:8.1}, {b:8.1})  {:6.2}% |{}",
                self.pdf(i) * 100.0,
                "#".repeat(width)
            )?;
        }
        if self.overflow > 0 {
            writeln!(
                f,
                ">= {:8.1}        {:6.2}% (overflow)",
                self.hi,
                self.overflow as f64 / self.total.max(1) as f64 * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record_all([0.0, 1.9, 2.0, 5.5, 9.999]);
        assert_eq!(h.count(0), 2); // [0,2)
        assert_eq!(h.count(1), 1); // [2,4)
        assert_eq!(h.count(2), 1); // [4,6)
        assert_eq!(h.count(4), 1); // [8,10)
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-0.5);
        h.record(1.0);
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn pdf_sums_to_in_range_fraction() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..1000 {
            h.record(i as f64 / 10.0); // all in [0, 100)
        }
        let sum: f64 = (0..h.bins()).map(|i| h.pdf(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edges_cover_range() {
        let h = Histogram::new(0.0, 500.0, 50);
        assert_eq!(h.bin_edges(0), (0.0, 10.0));
        assert_eq!(h.bin_edges(49), (490.0, 500.0));
    }

    #[test]
    fn display_is_nonempty() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(1.0);
        assert!(h.to_string().contains('%'));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
