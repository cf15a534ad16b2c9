//! Decentralization scalars: Nakamoto coefficient, Gini, and HHI over
//! hash power, block production, first-observation share, and revenue.
//!
//! The paper's §IV discussion of mining-pool dominance is qualitative;
//! the follow-up literature quantifies it. Motepalli & Jacobsen
//! ("Analyzing Geospatial Distribution in Blockchains") ground
//! geographic decentralization in scalar indices, and Long et al.
//! ("Measuring Miner Decentralization in Proof-of-Work Blockchains")
//! apply the same three to miners. This module computes them over four
//! weight distributions of one campaign:
//!
//! - **hash power** — the configured pool shares (the input axis);
//! - **block production** — canonical blocks actually mined per pool;
//! - **first observation** — per-vantage new-block win shares (the
//!   measurement-side geographic axis of Figures 2/3);
//! - **revenue** — per-pool rewards under the canonical schedule.
//!
//! All three indices are pure functions of the weight multiset, never of
//! its order.

use std::fmt;

use ethmeter_measure::CampaignData;
use ethmeter_stats::table::Table;

use crate::{first_observation, rewards};

/// Concentration scalars of one non-negative weight distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Concentration {
    /// Participants with positive weight.
    pub n: usize,
    /// Nakamoto coefficient: the minimum number of participants jointly
    /// controlling strictly more than half the total weight (0 when the
    /// distribution is empty).
    pub nakamoto: u32,
    /// Gini coefficient in `[0, 1)` (population form; 0 = perfectly
    /// equal).
    pub gini: f64,
    /// Herfindahl–Hirschman index: the sum of squared shares, in
    /// `(0, 1]` (1 = monopoly; 0 for an empty distribution).
    pub hhi: f64,
}

impl Concentration {
    /// The all-zero scalars of an empty (or zero-weight) distribution.
    pub fn empty() -> Self {
        Concentration {
            n: 0,
            nakamoto: 0,
            gini: 0.0,
            hhi: 0.0,
        }
    }
}

/// Computes the three concentration scalars of a weight distribution.
/// Weights need not be normalized; zero weights drop out.
///
/// Deterministic: weights are sorted before any accumulation, so the
/// result depends only on the weight multiset, never on input order.
///
/// # Panics
///
/// Panics on negative or non-finite weights.
pub fn concentration(weights: &[f64]) -> Concentration {
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "concentration weights must be finite and non-negative"
    );
    let mut positive: Vec<f64> = weights.iter().copied().filter(|&w| w > 0.0).collect();
    if positive.is_empty() {
        return Concentration::empty();
    }
    positive.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = positive.len();
    let total: f64 = positive.iter().sum();

    // Nakamoto: walk from the largest weight down until the cumulative
    // share strictly exceeds one half.
    let mut nakamoto = 0u32;
    let mut cum = 0.0;
    for &w in positive.iter().rev() {
        cum += w;
        nakamoto += 1;
        if 2.0 * cum > total {
            break;
        }
    }

    // Gini over the ascending sample: G = (2 Σ i·x_i − (n+1) Σ x_i) / (n Σ x_i).
    let weighted_ranks: f64 = positive
        .iter()
        .enumerate()
        .map(|(i, &w)| (i + 1) as f64 * w)
        .sum();
    let gini = (2.0 * weighted_ranks - (n as f64 + 1.0) * total) / (n as f64 * total);

    let hhi = positive.iter().map(|&w| (w / total) * (w / total)).sum();

    Concentration {
        n,
        nakamoto,
        gini,
        hhi,
    }
}

/// The decentralization table of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DecentralizationReport {
    /// Concentration of the configured hash-power shares.
    pub hash_power: Concentration,
    /// Concentration of canonical blocks mined per pool.
    pub block_production: Concentration,
    /// Concentration of per-vantage first-observation win shares.
    pub first_observation: Concentration,
    /// Concentration of per-pool revenue.
    pub revenue: Concentration,
    /// Canonical blocks credited.
    pub blocks: u64,
}

impl DecentralizationReport {
    /// The axes as `(label, scalars)` rows, in display order.
    pub fn axes(&self) -> [(&'static str, &Concentration); 4] {
        [
            ("hash_power", &self.hash_power),
            ("block_production", &self.block_production),
            ("first_observation", &self.first_observation),
            ("revenue", &self.revenue),
        ]
    }

    /// Machine-readable form (schema `ethmeter-decentralization/v1`),
    /// consumed by the CI repro-smoke gate.
    pub fn to_json(&self) -> String {
        let axis = |c: &Concentration| {
            format!(
                "{{\"n\":{},\"nakamoto\":{},\"gini\":{},\"hhi\":{}}}",
                c.n, c.nakamoto, c.gini, c.hhi
            )
        };
        let axes = self
            .axes()
            .iter()
            .map(|(label, c)| format!("\"{label}\":{}", axis(c)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"ethmeter-decentralization/v1\",\"blocks\":{},{axes}}}",
            self.blocks
        )
    }
}

/// Computes the decentralization table of one campaign: the Figure 2
/// win shares and the revenue tallies, condensed into scalars.
pub fn analyze(data: &CampaignData) -> DecentralizationReport {
    let geo = first_observation::geo(data);
    let revenue = rewards::analyze(data);
    let first_obs: Vec<f64> = geo.per_vantage.iter().map(|(_, share, _)| *share).collect();
    let mined: Vec<f64> = revenue.rows.iter().map(|r| r.blocks as f64).collect();
    let rewards: Vec<f64> = revenue.rows.iter().map(|r| r.reward as f64).collect();
    DecentralizationReport {
        hash_power: concentration(&data.truth.pool_shares),
        block_production: concentration(&mined),
        first_observation: concentration(&first_obs),
        revenue: concentration(&rewards),
        blocks: revenue.total_blocks,
    }
}

impl fmt::Display for DecentralizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Decentralization — concentration scalars ({} canonical blocks)",
            self.blocks
        )?;
        let mut t = Table::new(vec!["Axis", "Participants", "Nakamoto", "Gini", "HHI"]);
        for (label, c) in self.axes() {
            t.row(vec![
                label.to_owned(),
                c.n.to_string(),
                c.nakamoto.to_string(),
                format!("{:.3}", c.gini),
                format!("{:.3}", c.hhi),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn concentration_matches_hand_computation() {
        let c = concentration(&[0.5, 0.3, 0.2]);
        assert_eq!(c.n, 3);
        // 0.5 alone is not *strictly* more than half; two are.
        assert_eq!(c.nakamoto, 2);
        assert!((c.hhi - 0.38).abs() < 1e-12, "hhi {}", c.hhi);
        // Ascending [0.2, 0.3, 0.5]: G = (2·2.3 − 4·1)/(3·1) = 0.2.
        assert!((c.gini - 0.2).abs() < 1e-12, "gini {}", c.gini);
        // Input order never matters.
        assert_eq!(c, concentration(&[0.2, 0.5, 0.3]));
    }

    #[test]
    fn concentration_edge_cases() {
        assert_eq!(concentration(&[]), Concentration::empty());
        assert_eq!(concentration(&[0.0, 0.0]), Concentration::empty());
        let single = concentration(&[7.0]);
        assert_eq!(single.n, 1);
        assert_eq!(single.nakamoto, 1);
        assert_eq!(single.gini, 0.0);
        assert!((single.hhi - 1.0).abs() < 1e-12);
        // Four equal participants: majority needs three, Gini 0, HHI 1/4.
        let equal = concentration(&[1.0; 4]);
        assert_eq!(equal.nakamoto, 3);
        assert!(equal.gini.abs() < 1e-12);
        assert!((equal.hhi - 0.25).abs() < 1e-12);
        // Weights need not be normalized (scalars agree up to rounding).
        let scaled = concentration(&[2.0, 6.0, 4.0]);
        let normalized = concentration(&[0.1, 0.3, 0.2]);
        assert_eq!(scaled.n, normalized.n);
        assert_eq!(scaled.nakamoto, normalized.nakamoto);
        assert!((scaled.gini - normalized.gini).abs() < 1e-12);
        assert!((scaled.hhi - normalized.hhi).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_panic() {
        let _ = concentration(&[0.5, -0.1]);
    }

    #[test]
    fn campaign_report_is_consistent() {
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        let r = analyze(&data);
        assert!(r.blocks > 0);
        // Two configured pools, both mining alternating blocks.
        assert_eq!(r.hash_power.n, 2);
        assert_eq!(r.block_production.n, 2);
        // EA wins every first observation: a one-vantage monopoly.
        assert_eq!(r.first_observation.n, 1);
        assert_eq!(r.first_observation.nakamoto, 1);
        assert!((r.first_observation.hhi - 1.0).abs() < 1e-12);
        // Revenue concentrates no harder than a monopoly.
        assert!(r.revenue.hhi <= 1.0 && r.revenue.hhi > 0.0);
        let shown = r.to_string();
        assert!(shown.contains("Decentralization"));
        assert!(shown.contains("hash_power"));
        let json = r.to_json();
        assert!(json.contains("\"schema\":\"ethmeter-decentralization/v1\""));
        assert!(json.contains("\"first_observation\":{\"n\":1,\"nakamoto\":1,"));
    }
}
