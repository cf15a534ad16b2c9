//! Table III and §III-C5: forks, their recognition, and one-miner forks.

use std::fmt;

use ethmeter_chain::forks::{
    census, extract_forks, fork_length_table, one_miner_groups, BlockCensus, ForkLengthTable,
};
use ethmeter_measure::CampaignData;
use ethmeter_stats::table::{grouped, pct, Table};

/// §III-C5's aggregation of one-miner fork groups.
#[derive(Debug, Clone, PartialEq)]
pub struct OneMinerReport {
    /// Count of groups by size: `tuples[k]` = number of (k+2)-sized groups
    /// (index 0 = pairs, 1 = triples, ...).
    pub tuples: Vec<u64>,
    /// Fraction of duplicate (non-canonical same-miner) blocks that were
    /// recognized as uncles (paper: 98%).
    pub recognized_fraction: f64,
    /// Fraction of groups whose blocks share a transaction set (paper:
    /// 56%).
    pub same_txset_fraction: f64,
    /// Fraction of all forks that are same-miner divergences (paper:
    /// "more than 11%").
    pub fraction_of_forks: f64,
}

/// The fork analysis bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkReport {
    /// Block-level census (main / recognized uncles / unrecognized).
    pub census: BlockCensus,
    /// Table III.
    pub table: ForkLengthTable,
    /// §III-C5.
    pub one_miner: OneMinerReport,
    /// Total forks found.
    pub total_forks: u64,
}

/// Computes Table III and the one-miner fork statistics from ground truth.
pub fn analyze(data: &CampaignData) -> ForkReport {
    let tree = &data.truth.tree;
    let forks = extract_forks(tree);
    let groups = one_miner_groups(tree);
    let mut tuples: Vec<u64> = Vec::new();
    let (mut duplicates, mut recognized, mut same_txset) = (0u64, 0u64, 0u64);
    for g in &groups {
        let idx = g.size() - 2;
        if tuples.len() <= idx {
            tuples.resize(idx + 1, 0);
        }
        tuples[idx] += 1;
        duplicates += g.duplicates;
        recognized += g.recognized_duplicates;
        if g.same_tx_set {
            same_txset += 1;
        }
    }
    // A fork is a one-miner divergence when its first block's miner
    // also mined the canonical block at the same height.
    let one_miner_forks = forks
        .iter()
        .filter(|f| {
            let Some(&first) = f.blocks.first() else {
                return false;
            };
            let Some(fork_block) = tree.get(first) else {
                return false;
            };
            tree.canonical_hash(f.start_number)
                .and_then(|h| tree.get(h))
                .is_some_and(|main| main.miner() == fork_block.miner())
        })
        .count();
    ForkReport {
        census: census(tree),
        table: fork_length_table(&forks),
        one_miner: OneMinerReport {
            tuples,
            recognized_fraction: recognized as f64 / duplicates.max(1) as f64,
            same_txset_fraction: same_txset as f64 / groups.len().max(1) as f64,
            fraction_of_forks: one_miner_forks as f64 / forks.len().max(1) as f64,
        },
        total_forks: forks.len() as u64,
    }
}

impl fmt::Display for ForkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table III — fork types and lengths")?;
        let total = self.census.total();
        writeln!(
            f,
            "blocks: {} main ({}), {} recognized uncles ({}), {} unrecognized ({})",
            grouped(self.census.main),
            pct(self.census.main as f64 / total.max(1) as f64),
            grouped(self.census.recognized_uncles),
            pct(self.census.recognized_uncles as f64 / total.max(1) as f64),
            grouped(self.census.unrecognized),
            pct(self.census.unrecognized as f64 / total.max(1) as f64),
        )?;
        writeln!(f, "(paper: 92.81% / 6.97% / 0.22%)")?;
        let mut t = Table::new(vec!["Fork Length", "Total", "Recognized", "Unrecognized"]);
        for &(len, total, rec, unrec) in &self.table.rows {
            t.row(vec![
                len.to_string(),
                grouped(total),
                grouped(rec),
                grouped(unrec),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "(paper: len1 15,171/15,100; len2 404/0; len3 10/0)")?;
        writeln!(f, "One-miner forks (§III-C5):")?;
        for (i, &count) in self.one_miner.tuples.iter().enumerate() {
            if count > 0 {
                writeln!(f, "  {}-tuples: {}", i + 2, grouped(count))?;
            }
        }
        writeln!(
            f,
            "  duplicates recognized as uncles: {} (paper: 98%)",
            pct(self.one_miner.recognized_fraction)
        )?;
        writeln!(
            f,
            "  same tx-set groups: {} (paper: 56%)",
            pct(self.one_miner.same_txset_fraction)
        )?;
        write!(
            f,
            "  one-miner share of all forks: {} (paper: >11%)",
            pct(self.one_miner.fraction_of_forks)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ethmeter_chain::block::BlockBuilder;
    use ethmeter_chain::tree::BlockTree;
    use ethmeter_measure::CampaignData;
    use ethmeter_types::{BlockHash, PoolId, TxId};

    /// Main chain of 10 by pool 0. Fork blocks:
    /// - height 1: duplicate by pool 0 (one-miner pair, same empty txset),
    ///   recognized as uncle by block 3;
    /// - height 4: fork by pool 1 (different-miner), never recognized.
    fn campaign() -> CampaignData {
        let mut tree = BlockTree::new();
        let mut parent = tree.genesis_hash();
        let mut hashes: Vec<BlockHash> = Vec::new();
        let mut dup_hash = None;
        for i in 0..10u64 {
            let mut builder = BlockBuilder::new(parent, i + 1, PoolId(0)).salt(i);
            if i == 2 {
                // Block 3 references the duplicate as uncle.
                builder = builder.uncles(vec![dup_hash.expect("dup exists")]);
            }
            let b = builder.build();
            parent = b.hash();
            hashes.push(parent);
            tree.insert(b).expect("main");
            if i == 0 {
                // Duplicate at height 1 by the same miner.
                let dup = BlockBuilder::new(tree.genesis_hash(), 1, PoolId(0))
                    .salt(1000)
                    .build();
                dup_hash = Some(dup.hash());
                tree.insert(dup).expect("dup");
            }
            if i == 3 {
                // Different-miner fork at height 4 with a tx.
                let fork = BlockBuilder::new(hashes[2], 4, PoolId(1))
                    .txs(vec![TxId(9)])
                    .salt(2000)
                    .build();
                tree.insert(fork).expect("fork");
            }
        }
        CampaignData {
            observers: vec![],
            truth: testutil::truth(tree, Default::default()),
        }
    }

    #[test]
    fn census_counts() {
        let r = analyze(&campaign());
        assert_eq!(r.census.main, 10);
        assert_eq!(r.census.recognized_uncles, 1);
        assert_eq!(r.census.unrecognized, 1);
        assert_eq!(r.census.total(), 12);
    }

    #[test]
    fn fork_table_rows() {
        let r = analyze(&campaign());
        assert_eq!(r.total_forks, 2);
        assert_eq!(r.table.rows, vec![(1, 2, 1, 1)]);
    }

    #[test]
    fn one_miner_stats() {
        let r = analyze(&campaign());
        // One pair, no triples.
        assert_eq!(r.one_miner.tuples, vec![1]);
        // The single duplicate was recognized.
        assert!((r.one_miner.recognized_fraction - 1.0).abs() < 1e-9);
        // The pair shares the (empty) tx set.
        assert!((r.one_miner.same_txset_fraction - 1.0).abs() < 1e-9);
        // 1 of 2 forks is a one-miner divergence.
        assert!((r.one_miner.fraction_of_forks - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_renders() {
        let s = analyze(&campaign()).to_string();
        assert!(s.contains("Table III"));
        assert!(s.contains("2-tuples: 1"));
    }
}
