//! Figure 1: block propagation delay.
//!
//! The paper adapts Decker & Wattenhofer's method: "the propagation delay
//! of a block \[is\] the time difference between the first observation of
//! that block at any instance of a measurement node and the times of
//! arrival on the remaining measurement nodes" (§II). Delays are computed
//! from *local* (NTP-skewed) timestamps, exactly as in the real
//! experiment; the minuend is the minimum across observers, so all deltas
//! are non-negative by construction.

use std::fmt;

use ethmeter_measure::CampaignData;
use ethmeter_stats::{Cdf, Histogram};

/// Figure 1's data: the distribution of cross-observer arrival spreads.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationReport {
    /// Per-(block, trailing-observer) delays, milliseconds.
    pub delays: Cdf,
    /// Blocks observed by at least two observers.
    pub blocks_measured: u64,
}

impl PropagationReport {
    /// The PDF histogram of Figure 1 (0–500 ms, 25 bins) of
    /// [`PropagationReport::delays`].
    pub fn histogram(&self) -> Histogram {
        let mut histogram = Histogram::new(0.0, 500.0, 25);
        histogram.record_all(self.delays.sorted_values().iter().copied());
        histogram
    }
}

/// Computes Figure 1 from the campaign's main observers.
///
/// Consumes the logs through [`CampaignData::for_each_main_block`], so
/// spilled and in-memory campaigns produce bit-identical reports (the
/// delay multiset is the same, and [`Cdf`] sorts it).
pub fn analyze(data: &CampaignData) -> PropagationReport {
    let mut delays_ms: Vec<f64> = Vec::new();
    let mut blocks_measured = 0u64;
    let genesis = data.truth.tree.genesis_hash();
    let mut arrivals: Vec<f64> = Vec::new();
    data.for_each_main_block(|hash, group| {
        if hash == genesis || group.len() < 2 {
            return;
        }
        blocks_measured += 1;
        arrivals.clear();
        arrivals.extend(
            group
                .iter()
                .map(|(_, r)| r.first_local.as_nanos() as f64 / 1e6),
        );
        arrivals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let first = arrivals[0];
        for &t in &arrivals[1..] {
            delays_ms.push(t - first);
        }
    });
    PropagationReport {
        delays: Cdf::from_values(delays_ms),
        blocks_measured,
    }
}

impl fmt::Display for PropagationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 1 — block propagation delay (ms)")?;
        writeln!(
            f,
            "blocks measured: {}   samples: {}",
            self.blocks_measured,
            self.delays.count()
        )?;
        if !self.delays.is_empty() {
            writeln!(
                f,
                "median {:.0}ms  mean {:.0}ms  p95 {:.0}ms  p99 {:.0}ms   (paper: 74 / 109 / 211 / 317)",
                self.delays.median(),
                self.delays.mean(),
                self.delays.quantile(0.95),
                self.delays.quantile(0.99),
            )?;
        }
        write!(f, "{}", self.histogram())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ethmeter_types::SimDuration;

    #[test]
    fn delays_are_cross_observer_spreads() {
        // testutil places block arrivals at known offsets: the EA observer
        // sees each block first, NA +100ms, WE +40ms, CE +60ms.
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        let report = analyze(&data);
        assert_eq!(report.blocks_measured, testutil::BLOCKS as u64);
        // Three trailing observers per block.
        assert_eq!(report.delays.count(), 3 * testutil::BLOCKS);
        // Median of {100, 40, 60} per block = 60.
        assert!((report.delays.median() - 60.0).abs() < 1e-9);
        assert!((report.delays.max() - 100.0).abs() < 1e-9);
        assert!((report.delays.min() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn single_observer_blocks_are_skipped() {
        let mut data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        // Wipe three of the four observers' logs.
        for i in 1..4 {
            data.observers[i].1 = ethmeter_measure::ObserverLog::new();
        }
        let report = analyze(&data);
        assert_eq!(report.blocks_measured, 0);
        assert!(report.delays.is_empty());
    }

    #[test]
    fn histogram_mass_in_range() {
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        let report = analyze(&data);
        let histogram = report.histogram();
        let mass: f64 = (0..histogram.bins()).map(|i| histogram.pdf(i)).sum();
        assert!((mass - 1.0).abs() < 1e-9, "all spreads under 500ms");
        assert!(report.to_string().contains("Figure 1"));
    }

    #[test]
    fn clock_skew_does_not_produce_negative_delays() {
        // Even with adversarial skews the min-based definition keeps all
        // deltas non-negative.
        let data = testutil::campaign_with_block_spread_and_skew(
            &[0, 100, 40, 60],
            &[50_000_000, -50_000_000, 0, 10_000_000],
        );
        let report = analyze(&data);
        assert!(report.delays.min() >= 0.0);
        let _ = SimDuration::ZERO;
    }
}
