//! Per-pool revenue: block + uncle rewards vs hash-power share.
//!
//! The economics behind every adversarial behavior the paper documents —
//! and the yardstick of the selfish-mining experiments: a strategy "pays"
//! exactly when a pool's *revenue share* exceeds its *hash-power share*
//! (relative revenue gain > 1). Revenue follows the post-Constantinople
//! schedule in [`ethmeter_chain::rewards`]: 2 ETH per canonical block,
//! `(8-k)/8` of that for a gap-`k` uncle, `1/32` per referenced uncle for
//! the nephew, plus a flat per-transaction fee.

use std::collections::BTreeMap;
use std::fmt;

use ethmeter_chain::rewards::{tx_fees, uncle_reward, MilliEther, BLOCK_REWARD, NEPHEW_REWARD};
use ethmeter_measure::CampaignData;
use ethmeter_stats::table::{pct, Table};
use ethmeter_types::PoolId;

/// One pool's revenue line.
#[derive(Debug, Clone, PartialEq)]
pub struct RevenueRow {
    /// The pool.
    pub pool: PoolId,
    /// Display name.
    pub name: String,
    /// Hash-power share.
    pub hash_share: f64,
    /// Canonical blocks mined.
    pub blocks: u64,
    /// Blocks credited as uncles (referenced by a canonical block).
    pub uncles: u64,
    /// Total revenue, in milli-ether.
    pub reward: MilliEther,
}

impl RevenueRow {
    /// This pool's slice of the total revenue issued.
    pub fn revenue_share(&self, total: MilliEther) -> f64 {
        self.reward as f64 / total.max(1) as f64
    }

    /// Revenue share divided by hash-power share — the profitability
    /// statistic of the selfish-mining literature. `> 1` means the pool
    /// earns more than its fair share.
    pub fn relative_revenue(&self, total: MilliEther) -> f64 {
        if self.hash_share <= 0.0 {
            return 0.0;
        }
        self.revenue_share(total) / self.hash_share
    }
}

/// The per-pool revenue breakdown of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RevenueReport {
    /// Per-pool rows, ordered by descending hash share (ties by id).
    pub rows: Vec<RevenueRow>,
    /// Canonical blocks credited.
    pub total_blocks: u64,
    /// Total revenue issued, in milli-ether.
    pub total_reward: MilliEther,
}

impl RevenueReport {
    /// The row of one pool, if it earned anything.
    pub fn row(&self, pool: PoolId) -> Option<&RevenueRow> {
        self.rows.iter().find(|r| r.pool == pool)
    }

    /// Relative revenue gain of one pool (0 when it never earned).
    pub fn relative_revenue(&self, pool: PoolId) -> f64 {
        self.row(pool)
            .map_or(0.0, |r| r.relative_revenue(self.total_reward))
    }
}

/// Computes the revenue breakdown of one campaign.
pub fn analyze(data: &CampaignData) -> RevenueReport {
    // Per-pool `(canonical blocks, uncles credited, reward)`.
    let mut pools: BTreeMap<PoolId, (u64, u64, MilliEther)> = BTreeMap::new();
    let mut total_blocks = 0u64;
    let mut total_reward: MilliEther = 0;
    let tree = &data.truth.tree;
    // The reward schedule is consensus-dependent: engines without
    // uncle semantics (pure longest-chain) pay no nephew or uncle
    // rewards — blocks and fees only.
    let uncles_pay = tree.consensus().rewards_uncles();
    for block in tree.canonical_blocks() {
        if block.number() == 0 {
            continue;
        }
        total_blocks += 1;
        let entry = pools.entry(block.miner()).or_default();
        entry.0 += 1;
        let nephew = if uncles_pay {
            NEPHEW_REWARD * block.uncles().len() as MilliEther
        } else {
            0
        };
        let reward = BLOCK_REWARD + nephew + tx_fees(block.txs().len());
        entry.2 += reward;
        total_reward += reward;
        if !uncles_pay {
            continue;
        }
        // Uncle credits: only references from canonical blocks pay.
        for &u in block.uncles() {
            let Some(uncle) = tree.get(u) else {
                continue;
            };
            let credit = uncle_reward(block.number(), uncle.number());
            let e = pools.entry(uncle.miner()).or_default();
            e.1 += 1;
            e.2 += credit;
            total_reward += credit;
        }
    }
    let share = |pool: PoolId| data.truth.pool_share(pool);
    let mut ids: Vec<PoolId> = pools.keys().copied().collect();
    ids.sort_by(|a, b| {
        share(*b)
            .partial_cmp(&share(*a))
            .expect("finite")
            .then(a.cmp(b))
    });
    let rows = ids
        .into_iter()
        .map(|pool| {
            let (blocks, uncles, reward) = pools[&pool];
            RevenueRow {
                pool,
                name: data.truth.pool_name(pool),
                hash_share: share(pool),
                blocks,
                uncles,
                reward,
            }
        })
        .collect();
    RevenueReport {
        rows,
        total_blocks,
        total_reward,
    }
}

impl fmt::Display for RevenueReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Revenue — {} canonical blocks, {} mETH issued",
            self.total_blocks, self.total_reward
        )?;
        let mut t = Table::new(vec![
            "Pool",
            "Hash share",
            "Blocks",
            "Uncles",
            "Reward (mETH)",
            "Rev share",
            "Rel. revenue",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                pct(r.hash_share),
                r.blocks.to_string(),
                r.uncles.to_string(),
                r.reward.to_string(),
                pct(r.revenue_share(self.total_reward)),
                format!("{:.3}", r.relative_revenue(self.total_reward)),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ethmeter_chain::block::BlockBuilder;
    use ethmeter_chain::tree::BlockTree;
    use ethmeter_types::{SimTime, TxId};

    /// genesis -> a1 -> a2(ref u1) -> a3; u1 is pool 1's orphan at height
    /// 1; a-blocks are pool 0's, a1 carries two transactions.
    fn campaign() -> CampaignData {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let a1 = BlockBuilder::new(g, 1, PoolId(0))
            .mined_at(SimTime::from_secs(13))
            .txs(vec![TxId(1), TxId(2)])
            .salt(1)
            .build();
        let a1h = a1.hash();
        tree.insert(a1).expect("ok");
        let u1 = BlockBuilder::new(g, 1, PoolId(1)).salt(2).build();
        let u1h = u1.hash();
        tree.insert(u1).expect("ok");
        let a2 = BlockBuilder::new(a1h, 2, PoolId(0))
            .uncles(vec![u1h])
            .salt(3)
            .build();
        let a2h = a2.hash();
        tree.insert(a2).expect("ok");
        let a3 = BlockBuilder::new(a2h, 3, PoolId(0)).salt(4).build();
        tree.insert(a3).expect("ok");
        CampaignData {
            observers: vec![],
            truth: testutil::truth(tree, Default::default()),
        }
    }

    #[test]
    fn schedule_is_applied_exactly() {
        let r = analyze(&campaign());
        assert_eq!(r.total_blocks, 3);
        let ethermine = r.row(PoolId(0)).expect("mined");
        let spark = r.row(PoolId(1)).expect("uncled");
        // Pool 0: three blocks + one nephew bonus + 2 tx fees.
        assert_eq!(
            ethermine.reward,
            3 * BLOCK_REWARD + NEPHEW_REWARD + tx_fees(2)
        );
        assert_eq!(ethermine.blocks, 3);
        assert_eq!(ethermine.uncles, 0);
        // Pool 1: one gap-1 uncle (7/8 of a block reward).
        assert_eq!(spark.reward, uncle_reward(2, 1));
        assert_eq!(spark.uncles, 1);
        assert_eq!(spark.blocks, 0);
        assert_eq!(r.total_reward, ethermine.reward + spark.reward);
    }

    #[test]
    fn one_pool_accumulates_blocks_nephew_bonuses_fees_and_uncles() {
        // genesis -> a1 (two txs) -> a2 (empty, refs u1 and u2); a1, u1
        // and u2 are all pool 0's height-1 blocks.
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let a1 = BlockBuilder::new(g, 1, PoolId(0))
            .txs(vec![TxId(1), TxId(2)])
            .salt(1)
            .build();
        let a1h = a1.hash();
        tree.insert(a1).expect("ok");
        let mut uncles = Vec::new();
        for salt in [2, 3] {
            let u = BlockBuilder::new(g, 1, PoolId(0)).salt(salt).build();
            uncles.push(u.hash());
            tree.insert(u).expect("ok");
        }
        let a2 = BlockBuilder::new(a1h, 2, PoolId(0))
            .uncles(uncles)
            .salt(4)
            .build();
        tree.insert(a2).expect("ok");
        let r = analyze(&CampaignData {
            observers: vec![],
            truth: testutil::truth(tree, Default::default()),
        });
        let row = r.row(PoolId(0)).expect("mined");
        assert_eq!((row.blocks, row.uncles), (2, 2));
        assert_eq!(
            row.reward,
            2 * BLOCK_REWARD + 2 * NEPHEW_REWARD + tx_fees(2) + 2 * uncle_reward(2, 1)
        );
        assert_eq!(r.total_reward, row.reward);
        assert_eq!(r.rows.len(), 1, "pools that earned nothing get no row");
        assert!(r.row(PoolId(9)).is_none());
    }

    #[test]
    fn relative_revenue_compares_to_hash_share() {
        let r = analyze(&campaign());
        // Pool 0 (55% hash) won everything but the uncle: rel > 1.
        assert!(r.relative_revenue(PoolId(0)) > 1.0);
        // Pool 1 (45% hash) got only an uncle: rel < 1.
        let rel = r.relative_revenue(PoolId(1));
        assert!(rel > 0.0 && rel < 1.0, "rel {rel}");
        // Unknown pools earn nothing.
        assert_eq!(r.relative_revenue(PoolId(9)), 0.0);
    }

    #[test]
    fn display_renders() {
        let s = analyze(&campaign()).to_string();
        assert!(s.contains("Revenue"));
        assert!(s.contains("Rel. revenue"));
    }
}
