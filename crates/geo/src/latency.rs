//! Inter-region propagation latency.
//!
//! One-way base delays between the eight [`Region`]s, calibrated to public
//! backbone measurements (WonderNetwork/iPlane-style city-pair RTTs,
//! halved for one-way). Each sampled link delay is
//! `base * jitter` where `jitter ~ LogNormal(median = 1, sigma)`, so the
//! typical path sees the base delay and a heavy-ish tail models transient
//! congestion and detours.

use ethmeter_sim::dist::LogNormal;
use ethmeter_sim::Xoshiro256;
use ethmeter_types::{Region, SimDuration};

/// Base one-way delays in milliseconds between region pairs.
///
/// Row/column order follows [`Region::ALL`]:
/// NA, EA, WE, CE, EE, SA (South Asia), SAm (South America), OC (Oceania).
/// The matrix is symmetric; the diagonal is the intra-region delay.
const BASE_ONE_WAY_MS: [[f64; Region::COUNT]; Region::COUNT] = [
    //  NA     EA     WE     CE     EE     SA     SAm    OC
    [18.0, 75.0, 42.0, 50.0, 60.0, 95.0, 65.0, 80.0], // NA
    [75.0, 14.0, 95.0, 100.0, 85.0, 45.0, 140.0, 60.0], // EA
    [42.0, 95.0, 8.0, 12.0, 25.0, 70.0, 95.0, 130.0], // WE
    [50.0, 100.0, 12.0, 9.0, 18.0, 65.0, 105.0, 135.0], // CE
    [60.0, 85.0, 25.0, 18.0, 15.0, 55.0, 115.0, 120.0], // EE
    [95.0, 45.0, 70.0, 65.0, 55.0, 20.0, 160.0, 75.0], // SA
    [65.0, 140.0, 95.0, 105.0, 115.0, 160.0, 22.0, 150.0], // SAm
    [80.0, 60.0, 130.0, 135.0, 120.0, 75.0, 150.0, 16.0], // OC
];

/// Samples one-way network delays between regions.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    base_ms: [[f64; Region::COUNT]; Region::COUNT],
    jitter: LogNormal,
    /// Minimum floor applied to every sample, modeling last-mile and stack
    /// overheads that even co-located peers pay.
    floor: SimDuration,
}

impl LatencyModel {
    /// Creates a model with the built-in backbone matrix and the given
    /// jitter shape (`sigma` of a unit-median log-normal).
    ///
    /// # Panics
    ///
    /// Panics if `jitter_sigma` is negative.
    pub fn with_jitter(jitter_sigma: f64) -> Self {
        LatencyModel {
            base_ms: BASE_ONE_WAY_MS,
            jitter: LogNormal::with_median(1.0, jitter_sigma),
            floor: SimDuration::from_millis(1),
        }
    }

    /// Replaces the base matrix (for what-if topologies and tests).
    ///
    /// # Panics
    ///
    /// Panics if any entry is negative or the matrix is not symmetric.
    // detlint::allow(unread-pub, reason = "the exact gossip oracle (ROADMAP item 7) drives campaigns over chosen base matrices")
    pub fn with_base_matrix(mut self, base_ms: [[f64; Region::COUNT]; Region::COUNT]) -> Self {
        for (i, row) in base_ms.iter().enumerate() {
            for (j, &delay) in row.iter().enumerate() {
                assert!(delay >= 0.0, "negative base delay");
                assert!(
                    (delay - base_ms[j][i]).abs() < 1e-9,
                    "latency matrix must be symmetric"
                );
            }
        }
        self.base_ms = base_ms;
        self
    }

    /// The deterministic base one-way delay between two regions.
    pub fn base(&self, from: Region, to: Region) -> SimDuration {
        SimDuration::from_millis_f64(self.base_ms[from.index()][to.index()])
    }

    /// A hard lower bound on every delay this model can ever sample: the
    /// floor applied in [`LatencyModel::sample`]. The log-normal jitter is
    /// unbounded *below* (a multiplier arbitrarily close to zero), so the
    /// floor — not the base matrix — is the only sound bound. The parallel
    /// engine derives its conservative lookahead window from this: no
    /// cross-shard message can arrive sooner than `min_delay` plus fixed
    /// processing overheads, even on zero-latency what-if matrices.
    pub fn min_delay(&self) -> SimDuration {
        self.floor
    }

    /// Samples a one-way delay for a single message on the `from -> to`
    /// path: `max(floor, base * jitter)`.
    pub fn sample(&self, rng: &mut Xoshiro256, from: Region, to: Region) -> SimDuration {
        let base = self.base_ms[from.index()][to.index()];
        let jit = self.jitter.sample(rng);
        let ms = base * jit;
        let d = SimDuration::from_millis_f64(ms);
        if d < self.floor {
            self.floor
        } else {
            d
        }
    }
}

impl Default for LatencyModel {
    /// The calibrated default: backbone matrix with `sigma = 0.45` jitter
    /// (heavy enough that the p99 of a path is ~3x its median, matching
    /// the 74ms-median / 317ms-p99 spread of the paper's Figure 1).
    fn default() -> Self {
        LatencyModel::with_jitter(0.45)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matrix_is_symmetric_and_triangleish() {
        let m = LatencyModel::default();
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(m.base(a, b), m.base(b, a));
            }
        }
        // Intra-region is cheapest from each region.
        for a in Region::ALL {
            for b in Region::ALL {
                if a != b {
                    assert!(m.base(a, a) < m.base(a, b), "{a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn samples_center_on_base() {
        let m = LatencyModel::default();
        let mut rng = Xoshiro256::seed_from_u64(42);
        let base = m.base(Region::WesternEurope, Region::EasternAsia);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += m
                .sample(&mut rng, Region::WesternEurope, Region::EasternAsia)
                .as_millis_f64();
        }
        let mean = sum / n as f64;
        // Unit-median LogNormal(0, sigma) has mean exp(sigma^2/2); the
        // default model uses sigma = 0.45.
        let expected = base.as_millis_f64() * (0.45f64 * 0.45 / 2.0).exp();
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn floor_applies_to_tiny_links() {
        let mut m = LatencyModel::with_jitter(0.0);
        m.base_ms = [[0.0; Region::COUNT]; Region::COUNT];
        let mut rng = Xoshiro256::seed_from_u64(1);
        let d = m.sample(&mut rng, Region::NorthAmerica, Region::NorthAmerica);
        assert_eq!(d, SimDuration::from_millis(1));
    }

    #[test]
    fn vantage_pairs_match_paper_scale() {
        // Sanity: the four vantage regions should span ~10-100ms one-way,
        // the regime in which the paper's 74ms median propagation lives.
        let m = LatencyModel::default();
        for a in Region::VANTAGE {
            for b in Region::VANTAGE {
                if a != b {
                    let ms = m.base(a, b).as_millis_f64();
                    assert!((10.0..121.0).contains(&ms), "{a}->{b} = {ms}ms");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        let mut bad = BASE_ONE_WAY_MS;
        bad[0][1] += 1.0;
        let _ = LatencyModel::default().with_base_matrix(bad);
    }
}
