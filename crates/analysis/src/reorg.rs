//! Reorg-depth analysis: `P(revert ≥ k)` versus the confirmation policy.
//!
//! The double-spend question behind every confirmation rule: a client
//! that accepts a transaction after `k` confirmations loses iff the block
//! carrying it is later reverted by a branch at least `k` deep. This
//! module measures that risk from ground truth — no estimator model, the
//! simulator knows exactly which blocks were abandoned and how deep the
//! branch on top of them grew.
//!
//! **Revert depth** of an abandoned block `b`: the height of the tallest
//! block in `b`'s (entirely non-canonical) subtree minus `b`'s height,
//! plus one — i.e. the maximum confirmation count a transaction in `b`
//! ever exhibited before the branch lost. A client on a `k`-confirmation
//! policy accepted from `b` iff `depth(b) ≥ k`.
//!
//! **At-risk set** for `k`: every block that ever reached `k`
//! confirmations — the abandoned blocks with `depth ≥ k` plus the
//! canonical blocks with at least `k` blocks on top (a chain of length
//! `N` has `N − k + 1` of those). Then
//!
//! ```text
//! P(revert ≥ k) = reverted_ge(k) / (reverted_ge(k) + canonical_ge(k))
//! ```
//!
//! the fraction of `k`-confirmed accept decisions that were later
//! reverted. Under attack scenarios (an eclipsed pool mining an island
//! chain that loses on release) the numerator grows with the eclipse
//! duration.

use std::fmt;

use ethmeter_measure::CampaignData;
use ethmeter_types::{BlockHash, BlockNumber, FxHashMap};

/// Depths beyond this are clamped into the last bucket; the report
/// prints `k ∈ 1..=MAX_K`.
pub const MAX_K: usize = 12;

/// Internal histogram width (one spare bucket above [`MAX_K`] so the
/// clamp is visible as `≥`).
const BUCKETS: usize = MAX_K + 1;

/// One row of the `P(revert ≥ k)` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevertRow {
    /// The confirmation policy (accept after `k` confirmations).
    pub k: u32,
    /// Abandoned blocks whose branch reached depth `≥ k` (reverted
    /// `k`-confirmed accepts).
    pub reverted: u64,
    /// All blocks that ever reached `k` confirmations (reverted +
    /// canonical survivors).
    pub at_risk: u64,
    /// `reverted / at_risk` (0 when nothing was ever `k`-confirmed).
    pub p_revert: f64,
}

/// The reorg-depth report of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ReorgReport {
    /// `P(revert ≥ k)` rows for `k ∈ 1..=MAX_K`.
    pub rows: Vec<RevertRow>,
    /// Canonical blocks (genesis excluded).
    pub canonical_blocks: u64,
    /// Abandoned (non-canonical) blocks.
    pub abandoned_blocks: u64,
    /// The deepest revert observed (clamped at [`MAX_K`] `+ 1`).
    pub max_depth: u32,
    /// The engine's safe-confirmation depth — the `k` row a "safe"
    /// client reads.
    pub safe_depth: u64,
    /// The engine's finalized-confirmation depth.
    pub finalized_depth: u64,
}

impl ReorgReport {
    /// `P(revert ≥ k)` for a policy `k`, 0.0 outside the table.
    pub fn p_revert(&self, k: u32) -> f64 {
        self.rows
            .iter()
            .find(|r| r.k == k)
            .map_or(0.0, |r| r.p_revert)
    }

    /// Machine-readable form (schema `ethmeter-reorg/v1`), consumed by
    /// the CI dynamics-smoke gate.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"k\":{},\"reverted\":{},\"at_risk\":{},\"p_revert\":{}}}",
                    r.k, r.reverted, r.at_risk, r.p_revert
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"ethmeter-reorg/v1\",\"canonical_blocks\":{},\"abandoned_blocks\":{},\"max_depth\":{},\"safe_depth\":{},\"finalized_depth\":{},\"rows\":[{rows}]}}",
            self.canonical_blocks,
            self.abandoned_blocks,
            self.max_depth,
            self.safe_depth,
            self.finalized_depth
        )
    }
}

impl fmt::Display for ReorgReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Reorg depth: {} canonical, {} abandoned, deepest revert {}",
            self.canonical_blocks, self.abandoned_blocks, self.max_depth
        )?;
        writeln!(
            f,
            "{:>4} {:>10} {:>10} {:>12}",
            "k", "reverted", "at-risk", "P(revert>=k)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>4} {:>10} {:>10} {:>12.6}",
                r.k, r.reverted, r.at_risk, r.p_revert
            )?;
        }
        Ok(())
    }
}

/// Computes the reorg-depth table of one campaign.
pub fn analyze(data: &CampaignData) -> ReorgReport {
    let tree = &data.truth.tree;
    // `reverted_ge[k]` = abandoned blocks with revert depth `≥ k` (index
    // 0 unused).
    let mut reverted_ge = [0u64; BUCKETS + 1];
    let mut max_depth = 0u32;

    // Revert depths: every descendant of a non-canonical block is
    // itself non-canonical, so one height-descending sweep propagates
    // each subtree's max height to its root — by the time a block is
    // visited, all its children already carry their subtree maxima.
    // The sweep order is fully determined by `(height desc, hash)`,
    // independent of the tree's internal map order.
    let mut abandoned: Vec<(BlockNumber, BlockHash)> = tree
        .non_canonical_blocks()
        .map(|b| (b.number(), b.hash()))
        .collect();
    abandoned.sort_by_key(|&(n, h)| (std::cmp::Reverse(n), h));
    let mut subtree_max: FxHashMap<BlockHash, BlockNumber> = FxHashMap::default();
    for &(number, hash) in &abandoned {
        let mut max = number;
        for &child in tree.children_of(hash) {
            max = max.max(subtree_max[&child]);
        }
        subtree_max.insert(hash, max);
        let depth = (max - number + 1).min(BUCKETS as u64) as usize;
        for count in &mut reverted_ge[1..=depth] {
            *count += 1;
        }
        max_depth = max_depth.max(depth as u32);
    }

    // Canonical survivors: a chain of length n has n − k + 1 blocks
    // with ≥ k confirmations (counting the block itself).
    let n = tree.head_number();
    let rows = (1..=MAX_K as u32)
        .map(|k| {
            let reverted = reverted_ge[k as usize];
            let at_risk = reverted + (n + 1).saturating_sub(u64::from(k));
            RevertRow {
                k,
                reverted,
                at_risk,
                p_revert: if at_risk == 0 {
                    0.0
                } else {
                    reverted as f64 / at_risk as f64
                },
            }
        })
        .collect();
    ReorgReport {
        rows,
        canonical_blocks: n,
        abandoned_blocks: abandoned.len() as u64,
        max_depth,
        safe_depth: tree.consensus().safe_depth(),
        finalized_depth: tree.consensus().finalized_depth(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ethmeter_chain::block::BlockBuilder;
    use ethmeter_chain::tree::BlockTree;
    use ethmeter_types::PoolId;

    /// Main chain of 10 blocks by pool 0, plus a 3-deep losing branch by
    /// pool 1 rooted at height 4 (branch heights 4-5-6 on top of main
    /// block 3). Revert depths are exactly 3, 2, 1 for the branch blocks
    /// bottom-up.
    fn campaign_with_fork() -> CampaignData {
        let mut tree = BlockTree::new();
        let mut parent = tree.genesis_hash();
        let mut hashes: Vec<BlockHash> = Vec::new();
        for i in 0..10u64 {
            let b = BlockBuilder::new(parent, i + 1, PoolId(0)).salt(i).build();
            parent = b.hash();
            hashes.push(parent);
            tree.insert(b).expect("main");
        }
        let mut fork_parent = hashes[2];
        for (j, h) in (4u64..=6).enumerate() {
            let b = BlockBuilder::new(fork_parent, h, PoolId(1))
                .salt(1000 + j as u64)
                .build();
            fork_parent = b.hash();
            tree.insert(b).expect("branch");
        }
        CampaignData {
            observers: vec![],
            truth: testutil::truth(tree, Default::default()),
        }
    }

    #[test]
    fn revert_depths_are_exact() {
        let data = campaign_with_fork();
        let report = analyze(&data);
        assert_eq!(report.canonical_blocks, 10);
        assert_eq!(report.abandoned_blocks, 3);
        assert_eq!(report.max_depth, 3);
        // reverted_ge = [3, 2, 1, 0, ...]; canonical_ge(k) = 10 − k + 1.
        let expect = [(1u32, 3u64, 13u64), (2, 2, 11), (3, 1, 9), (4, 0, 7)];
        for (k, reverted, at_risk) in expect {
            let row = report.rows[(k - 1) as usize];
            assert_eq!((row.k, row.reverted, row.at_risk), (k, reverted, at_risk));
            assert!((row.p_revert - reverted as f64 / at_risk as f64).abs() < 1e-15);
        }
    }

    #[test]
    fn json_carries_the_schema_and_rows() {
        let report = analyze(&campaign_with_fork());
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"ethmeter-reorg/v1\""));
        assert!(json.contains("\"k\":1"));
        assert!(json.contains(&format!("\"k\":{MAX_K}")));
        assert!(json.contains("\"abandoned_blocks\":3"));
        // Confirmation depths of the default heaviest engine.
        assert!(json.contains("\"safe_depth\":6"));
        assert!(json.contains("\"finalized_depth\":12"));
    }
}
