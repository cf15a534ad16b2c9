//! Fork extraction and classification (Table III, §III-C4/C5).
//!
//! Vocabulary follows the paper:
//!
//! - a **fork** is a maximal branch of non-canonical blocks hanging off the
//!   canonical chain; its **length** is the branch's depth;
//! - a fork is **recognized** when its blocks were referenced as uncles by
//!   main-chain blocks ("forks of length one are very likely to become
//!   recognized ... not a single fork longer than 1 became recognized");
//! - a **one-miner fork** is a set of blocks at the same height produced by
//!   the same miner (§III-C5's pairs/triples/tuples).

use std::collections::BTreeMap;

use ethmeter_types::{BlockHash, BlockNumber, PoolId};

use crate::tree::BlockTree;

/// One fork: a branch of non-canonical blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkRecord {
    /// The canonical block the branch forks from.
    pub branch_point: BlockHash,
    /// Height of the first fork block (`branch_point.number + 1`).
    pub start_number: BlockNumber,
    /// Every block in the branch subtree.
    pub blocks: Vec<BlockHash>,
    /// Depth of the branch (1 = a single competing block).
    pub length: usize,
    /// True if *every* block of the branch was referenced as an uncle.
    /// Blocks at depth ≥ 2 are structurally unreferenceable (their parent
    /// is off-chain), so only length-1 forks can be recognized.
    pub recognized: bool,
}

/// Extracts all forks from a tree.
///
/// Each non-canonical child of a canonical block roots one fork; the fork's
/// blocks are that root's whole non-canonical subtree and its length is the
/// subtree's depth.
pub fn extract_forks(tree: &BlockTree) -> Vec<ForkRecord> {
    let mut forks = Vec::new();
    for canonical in tree.canonical_blocks() {
        for &child in tree.children_of(canonical.hash()) {
            if tree.is_canonical(child) {
                continue;
            }
            // Walk the subtree rooted at `child`.
            let mut blocks = Vec::new();
            let mut depth = 0usize;
            let mut frontier = vec![(child, 1usize)];
            while let Some((h, d)) = frontier.pop() {
                blocks.push(h);
                depth = depth.max(d);
                for &c in tree.children_of(h) {
                    frontier.push((c, d + 1));
                }
            }
            blocks.sort_unstable();
            let recognized = blocks.iter().all(|&h| tree.is_recognized_uncle(h));
            forks.push(ForkRecord {
                branch_point: canonical.hash(),
                start_number: canonical.number() + 1,
                blocks,
                length: depth,
                recognized,
            });
        }
    }
    forks.sort_by_key(|f| (f.start_number, f.blocks.first().copied()));
    forks
}

/// Table III's aggregation: counts of forks by length, split by
/// recognition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForkLengthTable {
    /// `(length, total, recognized, unrecognized)` rows, ascending length.
    pub rows: Vec<(usize, u64, u64, u64)>,
}

/// Builds Table III from extracted forks.
pub fn fork_length_table(forks: &[ForkRecord]) -> ForkLengthTable {
    let mut by_len: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for f in forks {
        let e = by_len.entry(f.length).or_default();
        e.0 += 1;
        if f.recognized {
            e.1 += 1;
        }
    }
    let mut rows: Vec<(usize, u64, u64, u64)> = by_len
        .into_iter()
        .map(|(len, (total, rec))| (len, total, rec, total - rec))
        .collect();
    rows.sort_unstable();
    ForkLengthTable { rows }
}

/// Block-level census: the paper's "92.81% ... became part of the main
/// chain, 6.97% became uncles ... 0.22% ... unrecognized uncles".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCensus {
    /// Canonical (main-chain) blocks, excluding genesis.
    pub main: u64,
    /// Non-canonical blocks referenced as uncles.
    pub recognized_uncles: u64,
    /// Non-canonical blocks never referenced.
    pub unrecognized: u64,
}

impl BlockCensus {
    /// All captured blocks.
    pub fn total(&self) -> u64 {
        self.main + self.recognized_uncles + self.unrecognized
    }
}

/// Classifies every non-genesis block in the tree.
pub fn census(tree: &BlockTree) -> BlockCensus {
    let mut c = BlockCensus::default();
    for b in tree.all_blocks() {
        if b.number() == 0 {
            continue; // genesis
        }
        if tree.is_canonical(b.hash()) {
            c.main += 1;
        } else if tree.is_recognized_uncle(b.hash()) {
            c.recognized_uncles += 1;
        } else {
            c.unrecognized += 1;
        }
    }
    c
}

/// A one-miner fork group: several blocks at one height by one miner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneMinerGroup {
    /// The miner.
    pub miner: PoolId,
    /// The contested height.
    pub number: BlockNumber,
    /// All the miner's blocks at this height (canonical one included if it
    /// exists), sorted by hash.
    pub blocks: Vec<BlockHash>,
    /// How many of the group's non-canonical blocks were uncle-recognized.
    pub recognized_duplicates: u64,
    /// Count of non-canonical blocks in the group.
    pub duplicates: u64,
    /// True if all blocks in the group carry the same transaction multiset
    /// ("in 56% of cases, mining pools appeared to be using their full
    /// mining power for mining distinct versions of the same block").
    pub same_tx_set: bool,
}

impl OneMinerGroup {
    /// Group size (2 = pair, 3 = triple, ...).
    pub fn size(&self) -> usize {
        self.blocks.len()
    }
}

/// Finds all one-miner fork groups in the tree.
pub fn one_miner_groups(tree: &BlockTree) -> Vec<OneMinerGroup> {
    let mut by_key: BTreeMap<(PoolId, BlockNumber), Vec<BlockHash>> = BTreeMap::new();
    for b in tree.all_blocks() {
        if b.number() == 0 {
            continue;
        }
        by_key
            .entry((b.miner(), b.number()))
            .or_default()
            .push(b.hash());
    }
    let mut groups: Vec<OneMinerGroup> = by_key
        .into_iter()
        .filter(|(_, v)| v.len() >= 2)
        .map(|((miner, number), mut blocks)| {
            blocks.sort_unstable();
            let mut recognized = 0u64;
            let mut duplicates = 0u64;
            for &h in &blocks {
                if !tree.is_canonical(h) {
                    duplicates += 1;
                    if tree.is_recognized_uncle(h) {
                        recognized += 1;
                    }
                }
            }
            let same_tx_set = {
                let first = sorted_txs(tree, blocks[0]);
                blocks[1..].iter().all(|&h| sorted_txs(tree, h) == first)
            };
            OneMinerGroup {
                miner,
                number,
                blocks,
                recognized_duplicates: recognized,
                duplicates,
                same_tx_set,
            }
        })
        .collect();
    groups.sort_by_key(|g| (g.number, g.miner));
    groups
}

fn sorted_txs(tree: &BlockTree, hash: BlockHash) -> Vec<ethmeter_types::TxId> {
    let mut txs = tree.get(hash).map(|b| b.txs().to_vec()).unwrap_or_default();
    txs.sort_unstable();
    txs
}

/// The canonical chain's miner sequence, excluding genesis, in height
/// order — the input to Figure 7's run-length fold.
pub fn miner_sequence(tree: &BlockTree) -> impl Iterator<Item = PoolId> + '_ {
    tree.canonical_blocks()
        .filter(|b| b.number() > 0)
        .map(|b| b.miner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use ethmeter_types::TxId;

    /// Builds a main chain of `len` blocks by miner 0, returning hashes.
    fn main_chain(tree: &mut BlockTree, len: u64) -> Vec<BlockHash> {
        let mut out = Vec::new();
        let mut cur = tree.genesis_hash();
        for i in 0..len {
            let b = BlockBuilder::new(cur, i + 1, PoolId(0)).salt(i).build();
            cur = b.hash();
            out.push(cur);
            tree.insert(b).expect("insert main");
        }
        out
    }

    #[test]
    fn no_forks_in_linear_chain() {
        let mut tree = BlockTree::new();
        main_chain(&mut tree, 5);
        assert!(extract_forks(&tree).is_empty());
        let c = census(&tree);
        assert_eq!(c.main, 5);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn single_fork_block_recognized() {
        let mut tree = BlockTree::new();
        let main = main_chain(&mut tree, 2);
        // Fork block at height 1.
        let f = BlockBuilder::new(tree.genesis_hash(), 1, PoolId(1))
            .salt(100)
            .build();
        let fh = f.hash();
        tree.insert(f).expect("ok");
        // Nephew at height 3 references it.
        let nephew = BlockBuilder::new(main[1], 3, PoolId(0))
            .uncles(vec![fh])
            .salt(3)
            .build();
        tree.insert(nephew).expect("ok");

        let forks = extract_forks(&tree);
        assert_eq!(forks.len(), 1);
        assert_eq!(forks[0].length, 1);
        assert!(forks[0].recognized);
        assert_eq!(forks[0].start_number, 1);
        assert_eq!(forks[0].blocks, vec![fh]);

        let table = fork_length_table(&forks);
        assert_eq!(table.rows, vec![(1, 1, 1, 0)]);

        let c = census(&tree);
        assert_eq!(c.main, 3);
        assert_eq!(c.recognized_uncles, 1);
        assert_eq!(c.unrecognized, 0);
    }

    #[test]
    fn length_two_fork_cannot_be_recognized() {
        let mut tree = BlockTree::new();
        let main = main_chain(&mut tree, 4);
        let f1 = BlockBuilder::new(tree.genesis_hash(), 1, PoolId(1))
            .salt(100)
            .build();
        let f1h = f1.hash();
        tree.insert(f1).expect("ok");
        let f2 = BlockBuilder::new(f1h, 2, PoolId(1)).salt(101).build();
        let f2h = f2.hash();
        tree.insert(f2).expect("ok");
        // Even if someone references f1, f2 cannot be referenced, so the
        // fork as a unit stays unrecognized (Table III row: len 2, 0 rec).
        let nephew = BlockBuilder::new(main[3], 5, PoolId(0))
            .uncles(vec![f1h])
            .salt(5)
            .build();
        tree.insert(nephew).expect("ok");

        let forks = extract_forks(&tree);
        assert_eq!(forks.len(), 1);
        assert_eq!(forks[0].length, 2);
        assert!(!forks[0].recognized);
        assert_eq!(forks[0].blocks.len(), 2);
        assert!(forks[0].blocks.contains(&f2h));

        let table = fork_length_table(&forks);
        assert_eq!(table.rows, vec![(2, 1, 0, 1)]);
    }

    #[test]
    fn sibling_forks_counted_separately() {
        let mut tree = BlockTree::new();
        main_chain(&mut tree, 2);
        for salt in [100, 101] {
            let f = BlockBuilder::new(tree.genesis_hash(), 1, PoolId(1))
                .salt(salt)
                .build();
            tree.insert(f).expect("ok");
        }
        let forks = extract_forks(&tree);
        assert_eq!(forks.len(), 2);
        assert!(forks.iter().all(|f| f.length == 1));
    }

    #[test]
    fn one_miner_pair_detection() {
        let mut tree = BlockTree::new();
        let main = main_chain(&mut tree, 2);
        // Miner 0 also mines a duplicate at height 1 with the same (empty)
        // tx set.
        let dup = BlockBuilder::new(tree.genesis_hash(), 1, PoolId(0))
            .salt(500)
            .build();
        let duph = dup.hash();
        tree.insert(dup).expect("ok");
        // It gets recognized.
        let nephew = BlockBuilder::new(main[1], 3, PoolId(0))
            .uncles(vec![duph])
            .salt(3)
            .build();
        tree.insert(nephew).expect("ok");

        let groups = one_miner_groups(&tree);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.miner, PoolId(0));
        assert_eq!(g.number, 1);
        assert_eq!(g.size(), 2);
        assert_eq!(g.duplicates, 1);
        assert_eq!(g.recognized_duplicates, 1);
        assert!(g.same_tx_set);
    }

    #[test]
    fn one_miner_group_distinct_tx_sets() {
        let mut tree = BlockTree::new();
        main_chain(&mut tree, 1);
        // Replace: canonical block at height 1 is empty; duplicate carries
        // a tx -> different tx sets.
        let dup = BlockBuilder::new(tree.genesis_hash(), 1, PoolId(0))
            .txs(vec![TxId(9)])
            .salt(500)
            .build();
        tree.insert(dup).expect("ok");
        let groups = one_miner_groups(&tree);
        assert_eq!(groups.len(), 1);
        assert!(!groups[0].same_tx_set);
    }

    #[test]
    fn different_miners_not_grouped() {
        let mut tree = BlockTree::new();
        main_chain(&mut tree, 1);
        let other = BlockBuilder::new(tree.genesis_hash(), 1, PoolId(1))
            .salt(7)
            .build();
        tree.insert(other).expect("ok");
        assert!(one_miner_groups(&tree).is_empty());
    }

    #[test]
    fn miner_sequence_follows_canonical_chain() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let a = BlockBuilder::new(g, 1, PoolId(3)).salt(1).build();
        let ah = a.hash();
        tree.insert(a).expect("ok");
        let b = BlockBuilder::new(ah, 2, PoolId(5)).salt(2).build();
        tree.insert(b).expect("ok");
        assert_eq!(
            miner_sequence(&tree).collect::<Vec<_>>(),
            vec![PoolId(3), PoolId(5)]
        );
    }
}
