//! Figure 6: empty blocks per mining pool.
//!
//! "We measure the number of empty blocks in the network, and the mining
//! pools from which they originate" (§III-C3). The report also surfaces
//! the paper's anecdote: miners **all** of whose blocks were empty.

use std::collections::BTreeMap;
use std::fmt;

use ethmeter_measure::CampaignData;
use ethmeter_stats::table::{pct, Table};
use ethmeter_types::PoolId;

/// One pool's row in Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct EmptyBlockRow {
    /// The pool.
    pub pool: PoolId,
    /// Display name.
    pub name: String,
    /// Hash-power share.
    pub hash_share: f64,
    /// Canonical blocks mined during the campaign.
    pub blocks: u64,
    /// Canonical blocks with zero transactions.
    pub empty: u64,
}

impl EmptyBlockRow {
    /// Fraction of this pool's blocks that were empty.
    pub fn empty_fraction(&self) -> f64 {
        self.empty as f64 / self.blocks.max(1) as f64
    }
}

/// Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct EmptyBlockReport {
    /// Per-pool rows, ordered by descending hash share, tail folded into a
    /// "Remaining pools" row.
    pub rows: Vec<EmptyBlockRow>,
    /// Total canonical blocks.
    pub total_blocks: u64,
    /// Total empty canonical blocks.
    pub total_empty: u64,
    /// Pools whose every block was empty (with ≥1 block) — the paper's
    /// always-empty miner.
    pub all_empty_miners: Vec<(String, u64)>,
}

impl EmptyBlockReport {
    /// Overall empty fraction (paper: 1.45%).
    pub fn empty_fraction(&self) -> f64 {
        self.total_empty as f64 / self.total_blocks.max(1) as f64
    }
}

/// Computes Figure 6 over the canonical chain, keeping `top_n` pools.
pub fn analyze(data: &CampaignData, top_n: usize) -> EmptyBlockReport {
    // Per-pool `(canonical blocks, empty blocks)`.
    let mut pools: BTreeMap<PoolId, (u64, u64)> = BTreeMap::new();
    let mut total_blocks = 0u64;
    let mut total_empty = 0u64;
    for block in data.truth.tree.canonical_blocks() {
        if block.number() == 0 {
            continue;
        }
        total_blocks += 1;
        let e = pools.entry(block.miner()).or_default();
        e.0 += 1;
        if block.is_empty() {
            e.1 += 1;
            total_empty += 1;
        }
    }
    let share = |pool: PoolId| data.truth.pool_share(pool);
    let mut pool_ids: Vec<PoolId> = pools.keys().copied().collect();
    pool_ids.sort_by(|a, b| {
        share(*b)
            .partial_cmp(&share(*a))
            .expect("finite")
            .then(a.cmp(b))
    });
    let mut rows = Vec::new();
    let mut rest = (0u64, 0u64);
    let mut rest_share = 0.0;
    let mut all_empty_miners = Vec::new();
    for (rank, pool) in pool_ids.iter().enumerate() {
        let (b, e) = pools[pool];
        let name = data.truth.pool_name(*pool);
        if e == b && b > 0 {
            all_empty_miners.push((name.clone(), b));
        }
        if rank < top_n {
            rows.push(EmptyBlockRow {
                pool: *pool,
                name,
                hash_share: share(*pool),
                blocks: b,
                empty: e,
            });
        } else {
            rest.0 += b;
            rest.1 += e;
            rest_share += share(*pool);
        }
    }
    if rest.0 > 0 {
        rows.push(EmptyBlockRow {
            pool: PoolId(u16::MAX),
            name: "Remaining pools".into(),
            hash_share: rest_share,
            blocks: rest.0,
            empty: rest.1,
        });
    }
    EmptyBlockReport {
        rows,
        total_blocks,
        total_empty,
        all_empty_miners,
    }
}

impl fmt::Display for EmptyBlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6 — empty blocks per pool: {} of {} main blocks empty ({}; paper: 1.45%)",
            self.total_empty,
            self.total_blocks,
            pct(self.empty_fraction())
        )?;
        let mut t = Table::new(vec!["Pool", "Share", "Blocks", "Empty", "Empty %"]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                pct(r.hash_share),
                r.blocks.to_string(),
                r.empty.to_string(),
                pct(r.empty_fraction()),
            ]);
        }
        write!(f, "{t}")?;
        for (name, b) in &self.all_empty_miners {
            writeln!(f)?;
            write!(f, "note: {name} mined {b} blocks, all empty")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ethmeter_chain::block::BlockBuilder;
    use ethmeter_chain::tree::BlockTree;
    use ethmeter_measure::CampaignData;
    use ethmeter_types::{SimTime, TxId};

    /// Chain where pool 0 mines blocks with txs, pool 1 mines empty ones.
    fn campaign() -> CampaignData {
        let mut tree = BlockTree::new();
        let mut parent = tree.genesis_hash();
        for i in 0..10u64 {
            let miner = PoolId((i % 2) as u16);
            let txs = if miner == PoolId(0) {
                vec![TxId(i)]
            } else {
                vec![]
            };
            let b = BlockBuilder::new(parent, i + 1, miner)
                .mined_at(SimTime::from_secs(i))
                .txs(txs)
                .salt(i)
                .build();
            parent = b.hash();
            tree.insert(b).expect("ok");
        }
        CampaignData {
            observers: vec![],
            truth: testutil::truth(tree, Default::default()),
        }
    }

    #[test]
    fn per_pool_counts() {
        let r = analyze(&campaign(), 15);
        assert_eq!(r.total_blocks, 10);
        assert_eq!(r.total_empty, 5);
        assert!((r.empty_fraction() - 0.5).abs() < 1e-9);
        let ethermine = r.rows.iter().find(|x| x.name == "Ethermine").expect("row");
        assert_eq!(ethermine.blocks, 5);
        assert_eq!(ethermine.empty, 0);
        let spark = r.rows.iter().find(|x| x.name == "Sparkpool").expect("row");
        assert_eq!(spark.empty, 5);
        assert!((spark.empty_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_empty_miner_flagged() {
        let r = analyze(&campaign(), 15);
        assert_eq!(r.all_empty_miners, vec![("Sparkpool".to_owned(), 5)]);
        assert!(r.to_string().contains("all empty"));
    }

    #[test]
    fn tail_folding() {
        let r = analyze(&campaign(), 1);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1].name, "Remaining pools");
        assert_eq!(r.rows[1].blocks, 5);
    }

    #[test]
    fn display_renders() {
        assert!(analyze(&campaign(), 15).to_string().contains("Figure 6"));
    }
}
