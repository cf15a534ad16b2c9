//! Uncle validity and reference policies.
//!
//! Ethereum rewards "uncles" — valid blocks that lost a fork race — to
//! compensate miners for propagation unfairness. The paper shows the
//! mechanism is being gamed: "the uncle block rewarding system, which was
//! intentionally meant to help less powerful miners, is effectively helping
//! the most powerful mining pools to unethically profit from multiple
//! rewards, by mining multiple versions of the highest block in parallel"
//! (§III-C5). §V proposes forbidding uncles mined by a miner that already
//! mined the same-height main block; [`UnclePolicy::ForbidSameMinerHeight`]
//! implements that mitigation for the ablation experiment.

use ethmeter_types::{BlockHash, BlockNumber, PoolId};

use crate::headertree::HeaderTree;

/// Maximum uncles one block may reference (yellow paper).
pub const MAX_UNCLES: usize = 2;

/// Maximum generation gap between an uncle and its nephew: an uncle's
/// height must satisfy `nephew.number - uncle.number <= MAX_UNCLE_DEPTH`.
pub const MAX_UNCLE_DEPTH: u64 = 6;

/// Which uncles a miner will reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnclePolicy {
    /// Standard Ethereum rules.
    #[default]
    Standard,
    /// The paper's §V mitigation: additionally reject an uncle whose miner
    /// also mined the canonical block at the uncle's height ("the Ethereum
    /// protocol should forbid referencing uncles mined by miners that have
    /// already mined a main block of the same height").
    ForbidSameMinerHeight,
}

impl HeaderTree {
    /// Checks whether `uncle` may be referenced by a block extending
    /// `parent` at height `parent.number + 1`, under Ethereum's rules:
    ///
    /// 1. the uncle is attached and is **not** an ancestor of the new block;
    /// 2. the uncle's *parent* is an ancestor of the new block (so the uncle
    ///    is a "sibling branch" of length exactly one — this is what makes
    ///    deeper fork blocks structurally unreferenceable, Table III);
    /// 3. the generation gap is at most [`MAX_UNCLE_DEPTH`];
    /// 4. the uncle has not been referenced before (per the tree's records).
    ///
    /// Ancestry is always the *parent's*, never the current head's: a miner
    /// building on a side tip may reference the canonical sibling.
    /// [`UnclePolicy::ForbidSameMinerHeight`] adds the §V restriction.
    pub fn is_valid_uncle(&self, parent: BlockHash, uncle: BlockHash, policy: UnclePolicy) -> bool {
        let (Some(u), Some(p)) = (self.entry(uncle), self.entry(parent)) else {
            return false;
        };
        let new_number: BlockNumber = p.number + 1;
        // Generation gap: 1 <= gap <= MAX_UNCLE_DEPTH.
        if u.number >= new_number || new_number - u.number > MAX_UNCLE_DEPTH {
            return false;
        }
        if self.is_recognized_uncle(uncle) {
            return false;
        }
        // The new block's own ancestor at the uncle's height (unknown once
        // the walk leaves a windowed tree's horizon).
        let on_chain = self.ancestor_entry(p, u.number);
        if on_chain.is_some_and(|a| a.hash == uncle)
            || self
                .ancestor_entry(p, u.number.saturating_sub(1))
                .map(|a| a.hash)
                != Some(u.parent)
        {
            return false;
        }
        policy == UnclePolicy::Standard || on_chain.is_none_or(|main| main.miner != u.miner)
    }

    /// Selects up to [`MAX_UNCLES`] referenceable uncles for a block
    /// extending `parent`, from every attached header in the depth range
    /// (see [`HeaderTree::select_uncles_among`]).
    pub fn select_uncles(&self, parent: BlockHash, policy: UnclePolicy) -> Vec<BlockHash> {
        let Some(p) = self.entry(parent) else {
            return Vec::new();
        };
        let new_number = p.number + 1;
        let min_number = new_number.saturating_sub(MAX_UNCLE_DEPTH);
        let in_range = self
            .attached()
            .filter(|e| e.number >= min_number && e.number < new_number)
            .map(|e| e.hash);
        self.select_uncles_among(parent, in_range, policy)
    }

    /// Selects up to [`MAX_UNCLES`] of `candidates` that
    /// [`HeaderTree::is_valid_uncle`] accepts for a block extending
    /// `parent`, ordered recent-first (the oldest uncles claim the smallest
    /// reward, so real miners prefer recent ones) with ties broken by hash
    /// for determinism.
    ///
    /// The parent's ancestry is walked once, [`MAX_UNCLE_DEPTH`]` + 1`
    /// heights deep (an uncle's height and its parent's), and every
    /// candidate is tested against that table: an ancestor costs no
    /// lookup, any other candidate at most two (its header and the
    /// referenced-uncle record). Candidates that are not attached are
    /// skipped.
    pub fn select_uncles_among(
        &self,
        parent: BlockHash,
        candidates: impl IntoIterator<Item = BlockHash>,
        policy: UnclePolicy,
    ) -> Vec<BlockHash> {
        let Some(p) = self.entry(parent) else {
            return Vec::new();
        };
        // ancestry[d] = the parent's ancestor `d` heights below it (hash,
        // miner); `None` once the walk leaves a windowed tree's horizon,
        // exactly where `ancestor_at` gives up.
        const SPAN: usize = MAX_UNCLE_DEPTH as usize + 1;
        let mut ancestry: [Option<(BlockHash, PoolId)>; SPAN] = [None; SPAN];
        let mut cur = Some(p);
        for row in &mut ancestry {
            let Some(e) = cur else {
                break;
            };
            *row = Some((e.hash, e.miner));
            cur = self.parent_entry(e);
        }
        let ancestor_at = |number: BlockNumber| {
            ancestry
                .get(usize::try_from(p.number - number).ok()?)
                .copied()
                .flatten()
        };
        let new_number = p.number + 1;
        let mut picked: Vec<(BlockNumber, BlockHash)> = candidates
            .into_iter()
            .filter_map(|h| {
                // Not an ancestor. Checked first and without a lookup: a
                // candidate list near the head is mostly the parent's own
                // chain. (An ancestry entry more than MAX_UNCLE_DEPTH below
                // the new block fails the gap test anyway.)
                if ancestry.iter().flatten().any(|&(a, _)| a == h) {
                    return None;
                }
                let u = self.entry(h)?;
                // Generation gap: 1 <= gap <= MAX_UNCLE_DEPTH.
                if u.number >= new_number || new_number - u.number > MAX_UNCLE_DEPTH {
                    return None;
                }
                let valid = ancestor_at(u.number.saturating_sub(1)).map(|(a, _)| a)
                    == Some(u.parent)
                    && !self.is_recognized_uncle(h)
                    && (policy == UnclePolicy::Standard
                        || ancestor_at(u.number).is_none_or(|(_, miner)| miner != u.miner));
                valid.then_some((u.number, h))
            })
            .collect();
        picked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        picked.truncate(MAX_UNCLES);
        picked.into_iter().map(|(_, h)| h).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::tree::BlockTree;
    use ethmeter_types::PoolId;

    /// Builds: genesis -> a1 -> a2 -> ... (main, miner 0) with a fork block
    /// f1 (miner 1) competing with a1.
    fn forked_tree(main_len: u64) -> (BlockTree, Vec<BlockHash>, BlockHash) {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let mut main = Vec::new();
        let mut cur = g;
        for i in 0..main_len {
            let b = BlockBuilder::new(cur, i + 1, PoolId(0)).salt(i).build();
            cur = b.hash();
            main.push(cur);
            tree.insert(b).expect("ok");
        }
        let f1 = BlockBuilder::new(g, 1, PoolId(1)).salt(999).build();
        let f1h = f1.hash();
        tree.insert(f1).expect("ok");
        (tree, main, f1h)
    }

    #[test]
    fn sibling_fork_block_is_valid_uncle() {
        let (tree, main, f1) = forked_tree(1);
        assert!(tree.is_valid_uncle(main[0], f1, UnclePolicy::Standard));
        let picked = tree.select_uncles(main[0], UnclePolicy::Standard);
        assert_eq!(picked, vec![f1]);
    }

    #[test]
    fn side_tip_may_reference_its_canonical_sibling() {
        // g -> a1 -> a2 canonical, f1 a sibling of a1. Eligibility follows
        // the *parent's* ancestry: mining on f1 makes a1 the uncle, even
        // though a1 is canonical from the head's point of view.
        let (tree, main, f1) = forked_tree(2);
        assert!(tree.is_canonical(main[0]) && !tree.is_canonical(f1));
        assert!(tree.is_valid_uncle(f1, main[0], UnclePolicy::Standard));
        let picked = tree.select_uncles(f1, UnclePolicy::Standard);
        assert_eq!(picked, vec![main[0]]);
        // Selection and validity agree on every attached block.
        for b in tree.all_blocks() {
            assert_eq!(
                picked.contains(&b.hash()),
                tree.is_valid_uncle(f1, b.hash(), UnclePolicy::Standard),
                "{}",
                b.hash()
            );
        }
    }

    #[test]
    fn ancestor_cannot_be_uncle() {
        let (tree, main, _) = forked_tree(3);
        assert!(!tree.is_valid_uncle(main[2], main[1], UnclePolicy::Standard));
    }

    #[test]
    fn depth_window_enforced() {
        // Fork at height 1, main chain grows: referencing from height 8
        // means gap 7 > 6 -> invalid.
        let (tree, main, f1) = forked_tree(7);
        // Parent = main[5] => new block number 7, gap = 6: valid.
        assert!(tree.is_valid_uncle(main[5], f1, UnclePolicy::Standard));
        // Parent = main[6] => new block number 8, gap = 7: invalid.
        assert!(!tree.is_valid_uncle(main[6], f1, UnclePolicy::Standard));
    }

    #[test]
    fn second_block_of_length_two_fork_is_structurally_invalid() {
        // This is the mechanism behind Table III's "0 recognized" for
        // length >= 2 forks.
        let (mut tree, main, f1) = forked_tree(3);
        let f2 = BlockBuilder::new(f1, 2, PoolId(1)).salt(1000).build();
        let f2h = f2.hash();
        tree.insert(f2).expect("ok");
        // f1's parent (genesis) is an ancestor of main -> f1 valid.
        assert!(tree.is_valid_uncle(main[2], f1, UnclePolicy::Standard));
        // f2's parent (f1) is NOT an ancestor of main -> f2 invalid, at any
        // parent.
        for &p in &main {
            assert!(!tree.is_valid_uncle(p, f2h, UnclePolicy::Standard));
        }
    }

    #[test]
    fn already_included_uncle_rejected() {
        let (mut tree, main, f1) = forked_tree(2);
        let nephew = BlockBuilder::new(main[1], 3, PoolId(0))
            .uncles(vec![f1])
            .salt(5)
            .build();
        let nh = nephew.hash();
        tree.insert(nephew).expect("ok");
        assert!(!tree.is_valid_uncle(nh, f1, UnclePolicy::Standard));
        assert!(tree.select_uncles(nh, UnclePolicy::Standard).is_empty());
    }

    #[test]
    fn unknown_blocks_are_invalid() {
        let (tree, main, _) = forked_tree(1);
        assert!(!tree.is_valid_uncle(main[0], BlockHash(424242), UnclePolicy::Standard));
        assert!(!tree.is_valid_uncle(BlockHash(424242), main[0], UnclePolicy::Standard));
    }

    #[test]
    fn forbid_same_miner_policy_blocks_one_miner_forks() {
        // Miner 0 mines both the canonical block at height 1 and a
        // competing block at height 1 (a one-miner fork).
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let a1 = BlockBuilder::new(g, 1, PoolId(0)).salt(1).build();
        let a1h = a1.hash();
        tree.insert(a1).expect("ok");
        let dup = BlockBuilder::new(g, 1, PoolId(0)).salt(2).build();
        let duph = dup.hash();
        tree.insert(dup).expect("ok");

        // Standard Ethereum accepts the duplicate as an uncle...
        assert!(tree.is_valid_uncle(a1h, duph, UnclePolicy::Standard));
        // ...the paper's mitigation rejects it.
        assert!(!tree.is_valid_uncle(a1h, duph, UnclePolicy::ForbidSameMinerHeight));
        // A different miner's fork block is still fine under the policy.
        let other = BlockBuilder::new(g, 1, PoolId(1)).salt(3).build();
        let otherh = other.hash();
        tree.insert(other).expect("ok");
        assert!(tree.is_valid_uncle(a1h, otherh, UnclePolicy::ForbidSameMinerHeight));
    }

    #[test]
    fn select_uncles_caps_at_two_and_prefers_recent() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        // Main chain of 3 (miner 0); forks at heights 1, 2, 3 (miner 1..3).
        let mut main = Vec::new();
        let mut cur = g;
        for i in 0..3u64 {
            let b = BlockBuilder::new(cur, i + 1, PoolId(0)).salt(i).build();
            cur = b.hash();
            main.push(cur);
            tree.insert(b).expect("ok");
        }
        let mut fork_hashes = Vec::new();
        for i in 0..3u64 {
            let parent = if i == 0 { g } else { main[(i - 1) as usize] };
            let f = BlockBuilder::new(parent, i + 1, PoolId(1 + i as u16))
                .salt(100 + i)
                .build();
            fork_hashes.push(f.hash());
            tree.insert(f).expect("ok");
        }
        let picked = tree.select_uncles(main[2], UnclePolicy::Standard);
        assert_eq!(picked.len(), 2);
        // Most recent fork (height 3) must be picked first.
        assert_eq!(picked[0], fork_hashes[2]);
    }
}
