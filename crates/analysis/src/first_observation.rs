//! Figures 2 and 3: who sees new blocks first, and from which pools.
//!
//! Figure 2: "the proportion of times each of our measurement nodes was
//! the first to observe a new block", with NTP-uncertainty error bars.
//! Figure 3: the same wins broken down by the block's origin mining pool,
//! which reveals where each pool's gateways sit.

use std::collections::BTreeMap;
use std::fmt;

use ethmeter_measure::CampaignData;
use ethmeter_stats::table::{pct, Table};
use ethmeter_types::PoolId;

/// NTP envelope used for the error bars: the paper's "offset under 10ms in
/// 90% of cases".
const NTP_MARGIN_NANOS: u64 = 10_000_000;

/// Figure 2: per-vantage first-observation shares.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoReport {
    /// `(vantage name, share of wins, uncertainty)` — uncertainty is the
    /// fraction of this vantage's wins decided by a margin under the NTP
    /// envelope (could flip under clock error).
    pub per_vantage: Vec<(String, f64, f64)>,
    /// Blocks observed by at least two vantages.
    pub blocks: u64,
}

/// Computes Figure 2.
pub fn geo(data: &CampaignData) -> GeoReport {
    let wins = Wins::count(data);
    let per_vantage = wins
        .vantages
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let share = wins.wins[i] as f64 / wins.blocks.max(1) as f64;
            let unc = wins.narrow_wins[i] as f64 / wins.blocks.max(1) as f64;
            (name, share, unc)
        })
        .collect();
    GeoReport {
        per_vantage,
        blocks: wins.blocks,
    }
}

impl fmt::Display for GeoReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 — first new-block observations per vantage ({} blocks)",
            self.blocks
        )?;
        let mut t = Table::new(vec!["Vantage", "First observations", "± (NTP)"]);
        for (name, share, unc) in &self.per_vantage {
            t.row(vec![name.clone(), pct(*share), pct(*unc)]);
        }
        writeln!(f, "{t}")?;
        write!(f, "(paper: EA ~40%, NA ~4x less, WE/CE between)")
    }
}

/// One pool's row in Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolFirstObs {
    /// The pool.
    pub pool: PoolId,
    /// Display name.
    pub name: String,
    /// Hash-power share (the percentage in Figure 3's labels).
    pub hash_share: f64,
    /// Blocks from this pool that were raced by ≥2 observers.
    pub blocks: u64,
    /// Win share per vantage, aligned with [`PoolReport::vantages`].
    pub vantage_shares: Vec<f64>,
}

/// Figure 3: first observations split by origin pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    /// Vantage names (column order of `vantage_shares`).
    pub vantages: Vec<String>,
    /// Rows, ordered by descending hash share (top pools first).
    pub pools: Vec<PoolFirstObs>,
}

/// Computes Figure 3, keeping the `top_n` pools by hash share and folding
/// the rest into a synthetic "Remaining" row.
pub fn by_pool(data: &CampaignData, top_n: usize) -> PoolReport {
    let wins = Wins::count(data);
    let share = |pool: PoolId| data.truth.pool_share(pool);
    // Order pools by hash share descending; fold the tail.
    let mut pool_ids: Vec<PoolId> = wins.pools.keys().copied().collect();
    pool_ids.sort_by(|a, b| {
        share(*b)
            .partial_cmp(&share(*a))
            .expect("finite shares")
            .then(a.cmp(b))
    });
    let mut pools = Vec::new();
    let mut rest_wins = vec![0u64; wins.vantages.len()];
    let mut rest_blocks = 0u64;
    let mut rest_share = 0.0;
    for (rank, pool) in pool_ids.iter().enumerate() {
        let (b, w) = &wins.pools[pool];
        let b = *b;
        if rank < top_n {
            pools.push(PoolFirstObs {
                pool: *pool,
                name: data.truth.pool_name(*pool),
                hash_share: share(*pool),
                blocks: b,
                vantage_shares: w.iter().map(|&x| x as f64 / b.max(1) as f64).collect(),
            });
        } else {
            for (i, &x) in w.iter().enumerate() {
                rest_wins[i] += x;
            }
            rest_blocks += b;
            rest_share += share(*pool);
        }
    }
    if rest_blocks > 0 {
        pools.push(PoolFirstObs {
            pool: PoolId(u16::MAX),
            name: "Remaining miners".into(),
            hash_share: rest_share,
            blocks: rest_blocks,
            vantage_shares: rest_wins
                .iter()
                .map(|&x| x as f64 / rest_blocks as f64)
                .collect(),
        });
    }
    PoolReport {
        vantages: wins.vantages,
        pools,
    }
}

/// First-observation tallies of one campaign, shared by Figures 2 and 3.
struct Wins {
    /// Main vantage names, in observer order.
    vantages: Vec<String>,
    /// Per-vantage wins.
    wins: Vec<u64>,
    /// Per-vantage wins by a margin under the NTP envelope.
    narrow_wins: Vec<u64>,
    /// Blocks observed by at least two vantages.
    blocks: u64,
    /// Per-pool `(raced blocks, per-vantage wins)`.
    pools: BTreeMap<PoolId, (u64, Vec<u64>)>,
}

impl Wins {
    /// One streaming merge-join over the observer scans (works for
    /// spilled and in-memory logs alike); the truth tree supplies the
    /// origin pool per observed hash.
    fn count(data: &CampaignData) -> Self {
        let vantages: Vec<String> = data.main_observers().map(|(v, _)| v.name.clone()).collect();
        let mut wins = vec![0; vantages.len()];
        let mut narrow_wins = vec![0; vantages.len()];
        let mut blocks = 0;
        let mut pools: BTreeMap<PoolId, (u64, Vec<u64>)> = BTreeMap::new();
        let tree = &data.truth.tree;
        let genesis = tree.genesis_hash();
        data.for_each_main_block(|hash, group| {
            if hash == genesis || group.len() < 2 {
                return;
            }
            let Some(block) = tree.get(hash) else {
                return;
            };
            blocks += 1;
            let (winner, t_first) = group
                .iter()
                .map(|&(i, r)| (i, r.first_local.as_nanos()))
                .min_by_key(|&(_, t)| t)
                .expect("non-empty");
            wins[winner] += 1;
            let runner_up = group
                .iter()
                .filter(|&&(i, _)| i != winner)
                .map(|&(_, r)| r.first_local.as_nanos())
                .min()
                .expect("two arrivals");
            if runner_up - t_first < NTP_MARGIN_NANOS {
                narrow_wins[winner] += 1;
            }
            let entry = pools
                .entry(block.miner())
                .or_insert_with(|| (0, vec![0; vantages.len()]));
            entry.0 += 1;
            entry.1[winner] += 1;
        });
        Wins {
            vantages,
            wins,
            narrow_wins,
            blocks,
            pools,
        }
    }
}

impl fmt::Display for PoolReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3 — first observation per origin pool (rows: pools, cols: vantages)"
        )?;
        let mut headers = vec!["Pool (hash share)".to_owned(), "Blocks".to_owned()];
        headers.extend(self.vantages.iter().cloned());
        let mut t = Table::new(headers);
        for p in &self.pools {
            let mut row = vec![
                format!("{} ({})", p.name, pct(p.hash_share)),
                p.blocks.to_string(),
            ];
            row.extend(p.vantage_shares.iter().map(|&s| pct(s)));
            t.row(row);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn ea_wins_everything_in_synthetic_spread() {
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        let r = geo(&data);
        assert_eq!(r.blocks, testutil::BLOCKS as u64);
        let ea = r
            .per_vantage
            .iter()
            .find(|(n, ..)| n == "EA")
            .expect("EA present");
        assert!((ea.1 - 1.0).abs() < 1e-9, "EA wins all: {}", ea.1);
        // Margin to runner-up is 40ms > 10ms NTP envelope: no uncertainty.
        assert_eq!(ea.2, 0.0);
        let na = r
            .per_vantage
            .iter()
            .find(|(n, ..)| n == "NA")
            .expect("NA present");
        assert_eq!(na.1, 0.0);
    }

    #[test]
    fn narrow_margins_flagged_as_uncertain() {
        // WE trails EA by only 5ms: every EA win is uncertain.
        let data = testutil::campaign_with_block_spread(&[0, 100, 5, 60]);
        let r = geo(&data);
        let ea = r
            .per_vantage
            .iter()
            .find(|(n, ..)| n == "EA")
            .expect("EA present");
        assert!((ea.2 - 1.0).abs() < 1e-9, "uncertainty {}", ea.2);
    }

    #[test]
    fn shares_sum_to_one() {
        let data = testutil::campaign_with_block_spread(&[0, 30, 40, 60]);
        let r = geo(&data);
        let total: f64 = r.per_vantage.iter().map(|(_, s, _)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pool_breakdown_aligns_with_miners() {
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        let r = by_pool(&data, 15);
        // Two pools, alternating blocks; every block won by EA.
        assert_eq!(r.pools.len(), 2);
        assert_eq!(r.pools[0].name, "Ethermine"); // larger share first
        for p in &r.pools {
            assert_eq!(p.blocks, testutil::BLOCKS as u64 / 2);
            let ea_idx = r.vantages.iter().position(|v| v == "EA").expect("EA");
            assert!((p.vantage_shares[ea_idx] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_folds_into_remaining() {
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        let r = by_pool(&data, 1);
        assert_eq!(r.pools.len(), 2);
        assert_eq!(r.pools[1].name, "Remaining miners");
        assert_eq!(r.pools[1].blocks, testutil::BLOCKS as u64 / 2);
    }

    #[test]
    fn displays_render() {
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        assert!(geo(&data).to_string().contains("Figure 2"));
        assert!(by_pool(&data, 15).to_string().contains("Figure 3"));
    }
}
