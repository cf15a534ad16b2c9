//! The block tree: every observed block, with engine-driven fork choice.
//!
//! Matches the Ethereum yellow paper's view of a "block tree" over which a
//! fork is "a disagreement between nodes as to which root-to-leaf path down
//! the block tree is the best blockchain" (§III-C4). The measurement
//! pipeline builds a global one from ground truth; the chain-only
//! experiments grow one directly.
//!
//! Everything that is fork choice — scores, the head, the canonical index,
//! orphan buffering, ancestry, the referenced-uncle record — is the
//! embedded unbounded [`HeaderTree`], the same core a gossip node's header
//! view is. `BlockTree` adds only what needs block *bodies*: the blocks
//! themselves and each block's children.

use std::collections::hash_map::Entry as Slot;
use std::ops::Deref;
use std::sync::Arc;

use ethmeter_types::{BlockHash, FxHashMap};

use crate::block::{Block, BlockBuilder};
use crate::consensus::{Consensus, HeaviestChain};
use crate::headertree::HeaderTree;
pub use crate::headertree::{InsertError, InsertOutcome, GENESIS_MINER};

/// A block's children in arrival order. Nearly every block has exactly
/// one, kept inline: no allocation per block on the insert path.
#[derive(Debug, Clone)]
enum Children {
    One(BlockHash),
    Many(Vec<BlockHash>),
}

/// A tree of blocks with canonical-chain tracking.
#[derive(Debug, Clone)]
pub struct BlockTree {
    /// Fork choice over the headers of `blocks`: same keys, always.
    headers: HeaderTree,
    blocks: FxHashMap<BlockHash, Block>,
    children: FxHashMap<BlockHash, Children>,
    /// Bodies of the headers `headers` has buffered, by their own hash.
    orphans: FxHashMap<BlockHash, Block>,
}

impl BlockTree {
    /// Creates a tree containing only the genesis block, under the default
    /// [`HeaviestChain`] engine (bit-identical to the historical rule).
    pub fn new() -> Self {
        Self::with_consensus(Arc::new(HeaviestChain))
    }

    /// Creates a genesis-only tree driven by `engine`.
    pub fn with_consensus(engine: Arc<dyn Consensus>) -> Self {
        let genesis = BlockBuilder::new(BlockHash::ZERO, 0, GENESIS_MINER).build();
        let gh = genesis.hash();
        let mut blocks = FxHashMap::default();
        blocks.insert(gh, genesis);
        BlockTree {
            headers: HeaderTree::unbounded(gh, engine),
            blocks,
            children: FxHashMap::default(),
            orphans: FxHashMap::default(),
        }
    }

    /// The hash every [`BlockTree::new`] roots at, without building a
    /// tree. Drivers that materialize their ground-truth tree only at the
    /// campaign boundary still need this hash at construction time.
    pub fn shared_genesis_hash() -> BlockHash {
        BlockBuilder::new(BlockHash::ZERO, 0, GENESIS_MINER)
            .build()
            .hash()
    }

    /// Looks up a block.
    pub fn get(&self, hash: BlockHash) -> Option<&Block> {
        self.blocks.get(&hash)
    }

    /// Blocks of the canonical chain in height order (including genesis).
    pub fn canonical_blocks(&self) -> impl Iterator<Item = &Block> + '_ {
        self.headers
            .canonical()
            .map(move |h| self.blocks.get(&h).expect("canonical entries attached"))
    }

    /// All attached blocks in arbitrary (but deterministic) order.
    /// Consumers that produce output must sort or fold commutatively.
    pub fn all_blocks(&self) -> impl Iterator<Item = &Block> + '_ {
        // detlint::allow(unordered-iter, reason = "documented-unordered accessor; FxHashMap order is deterministic per process and every consumer sorts or folds commutatively")
        self.blocks.values()
    }

    /// Attached blocks not on the canonical chain (fork blocks), excluding
    /// genesis, in arbitrary (but deterministic) order.
    pub fn non_canonical_blocks(&self) -> impl Iterator<Item = &Block> + '_ {
        self.blocks
            // detlint::allow(unordered-iter, reason = "documented-unordered accessor; FxHashMap order is deterministic per process and every consumer sorts or folds commutatively")
            .values()
            .filter(move |b| self.canonical_hash(b.number()) != Some(b.hash()))
    }

    /// Children of a block.
    pub fn children_of(&self, hash: BlockHash) -> &[BlockHash] {
        match self.children.get(&hash) {
            None => &[],
            Some(Children::One(child)) => std::slice::from_ref(child),
            Some(Children::Many(children)) => children,
        }
    }

    /// True if `ancestor` is an ancestor of (or equal to) `descendant`.
    pub fn is_ancestor(&self, ancestor: BlockHash, descendant: BlockHash) -> bool {
        self.number_of(ancestor)
            .is_some_and(|n| self.ancestor_at(descendant, n) == Some(ancestor))
    }

    /// Confirmations of a canonical block: `head_number - number`.
    /// `None` if the block is unknown or currently off-chain.
    pub fn confirmations(&self, hash: BlockHash) -> Option<u64> {
        let n = self.number_of(hash)?;
        (self.canonical_hash(n) == Some(hash)).then(|| self.head_number() - n)
    }

    /// Inserts a block.
    ///
    /// Unknown-parent blocks are buffered ([`InsertOutcome::Orphaned`]) and
    /// automatically connected when the parent arrives — mirroring Geth's
    /// fetcher queue.
    ///
    /// # Errors
    ///
    /// [`InsertError::Duplicate`] if the hash is already attached or
    /// buffered; any error from the engine's [`Consensus::validate`] hook
    /// (by default [`InsertError::HeightMismatch`] if `number` disagrees
    /// with the parent).
    pub fn insert(&mut self, block: Block) -> Result<InsertOutcome, InsertError> {
        let hash = block.hash();
        let outcome = self.headers.insert(
            hash,
            block.parent(),
            block.number(),
            block.miner(),
            block.header().difficulty(),
            block.uncles(),
        )?;
        match &outcome {
            InsertOutcome::Orphaned => {
                self.orphans.insert(hash, block);
            }
            InsertOutcome::Attached {
                connected_orphans, ..
            } => {
                // Bodies follow their headers in connection order, so
                // `blocks` (and `all_blocks()`) sees the same insertion
                // sequence whatever the arrival order was.
                self.attach_body(block);
                for h in connected_orphans {
                    let orphan = self.orphans.remove(h).expect("buffered with its header");
                    self.attach_body(orphan);
                }
                // A body still waiting on an attached parent had its
                // header refused by the cascade: drop it too.
                if !self.orphans.is_empty() {
                    let headers = &self.headers;
                    self.orphans.retain(|_, b| !headers.contains(b.parent()));
                }
            }
        }
        Ok(outcome)
    }

    fn attach_body(&mut self, block: Block) {
        match self.children.entry(block.parent()) {
            Slot::Vacant(slot) => {
                slot.insert(Children::One(block.hash()));
            }
            Slot::Occupied(mut slot) => match slot.get_mut() {
                Children::One(first) => {
                    *slot.get_mut() = Children::Many(vec![*first, block.hash()])
                }
                Children::Many(children) => children.push(block.hash()),
            },
        }
        self.blocks.insert(block.hash(), block);
    }
}

/// Every read-only fork-choice query — `head`, `safe`, `finalized`,
/// `score`, `canonical_hash`, `is_canonical`, `ancestor_at`,
/// `is_valid_uncle`, `select_uncles`, `reorg_count`, … — is the embedded
/// [`HeaderTree`]'s, with the same meaning (`len`/`contains` included: a
/// header is attached iff its body is). Deliberately not `DerefMut`:
/// headers only enter through [`BlockTree::insert`], with their bodies.
impl Deref for BlockTree {
    type Target = HeaderTree;

    fn deref(&self) -> &HeaderTree {
        &self.headers
    }
}

impl Default for BlockTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethmeter_types::{PoolId, TxId};

    fn child(tree: &BlockTree, parent: BlockHash, miner: u16, salt: u64) -> Block {
        let number = tree.get(parent).expect("parent").number() + 1;
        BlockBuilder::new(parent, number, PoolId(miner))
            .salt(salt)
            .build()
    }

    fn extend(tree: &mut BlockTree, parent: BlockHash, miner: u16, salt: u64) -> BlockHash {
        let b = child(tree, parent, miner, salt);
        let h = b.hash();
        match tree.insert(b) {
            Ok(InsertOutcome::Attached { .. }) => h,
            other => panic!("unexpected insert outcome: {other:?}"),
        }
    }

    #[test]
    fn linear_chain_extends_head() {
        let mut tree = BlockTree::new();
        let mut cur = tree.genesis_hash();
        for i in 0..10 {
            cur = extend(&mut tree, cur, 0, i);
            assert_eq!(tree.head(), cur);
            assert_eq!(tree.head_number(), i + 1);
            assert!(tree.is_canonical(cur));
        }
        assert_eq!(tree.len(), 11);
        assert_eq!(tree.reorg_count(), 0);
        assert_eq!(tree.canonical_blocks().count(), 11);
    }

    #[test]
    fn fork_does_not_displace_equal_td_head() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let a = extend(&mut tree, g, 0, 1);
        // Competing block at the same height: same TD, head must stay.
        let b = child(&tree, tree.genesis_hash(), 1, 2);
        let bh = b.hash();
        let out = tree.insert(b).expect("attached");
        assert!(matches!(
            out,
            InsertOutcome::Attached {
                new_head: false,
                ..
            }
        ));
        assert_eq!(tree.head(), a);
        assert!(!tree.is_canonical(bh));
        assert_eq!(tree.non_canonical_blocks().count(), 1);
    }

    #[test]
    fn longer_fork_triggers_reorg() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let a1 = extend(&mut tree, g, 0, 1);
        let _a2 = extend(&mut tree, a1, 0, 2);
        // Fork from genesis, three blocks long: must displace the 2-chain.
        let b1 = extend(&mut tree, g, 1, 3);
        assert_eq!(tree.head_number(), 2, "2-chain still best");
        let b2 = extend(&mut tree, b1, 1, 4);
        assert_eq!(tree.head_number(), 2, "tie keeps incumbent");
        let b3 = extend(&mut tree, b2, 1, 5);
        assert_eq!(tree.head(), b3);
        assert_eq!(tree.head_number(), 3);
        assert!(tree.is_canonical(b1) && tree.is_canonical(b2));
        assert!(!tree.is_canonical(a1));
        assert_eq!(tree.reorg_count(), 1);
        assert_eq!(tree.canonical_hash(1), Some(b1));
    }

    #[test]
    fn reorg_depth_is_reported() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let a1 = extend(&mut tree, g, 0, 1);
        let _a2 = extend(&mut tree, a1, 0, 2);
        let b1 = extend(&mut tree, g, 1, 3);
        let b2 = extend(&mut tree, b1, 1, 4);
        let b3 = child(&tree, b2, 1, 5);
        match tree.insert(b3).expect("ok") {
            InsertOutcome::Attached {
                new_head,
                reorg_depth,
                ..
            } => {
                assert!(new_head);
                assert_eq!(reorg_depth, 2); // a1, a2 replaced
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn orphans_buffer_and_connect() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let b1 = child(&tree, g, 0, 1);
        let b1h = b1.hash();
        let b2 = BlockBuilder::new(b1h, 2, PoolId(0)).salt(2).build();
        let b2h = b2.hash();
        let b3 = BlockBuilder::new(b2h, 3, PoolId(0)).salt(3).build();
        let b3h = b3.hash();

        // Arrive out of order: 3, 2, then 1.
        assert_eq!(tree.insert(b3).expect("ok"), InsertOutcome::Orphaned);
        assert_eq!(tree.insert(b2).expect("ok"), InsertOutcome::Orphaned);
        assert_eq!(tree.orphan_count(), 2);
        match tree.insert(b1).expect("ok") {
            InsertOutcome::Attached {
                new_head,
                connected_orphans,
                ..
            } => {
                assert!(new_head);
                assert_eq!(connected_orphans, vec![b2h, b3h]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(tree.orphan_count(), 0);
        assert_eq!(tree.head(), b3h);
        assert_eq!(tree.head_number(), 3);
    }

    #[test]
    fn duplicate_rejected_even_while_orphaned() {
        let mut tree = BlockTree::new();
        let stranger = BlockBuilder::new(BlockHash(123), 5, PoolId(0)).build();
        assert_eq!(
            tree.insert(stranger.clone()).expect("ok"),
            InsertOutcome::Orphaned
        );
        assert!(matches!(
            tree.insert(stranger.clone()),
            Err(InsertError::Duplicate(_))
        ));
        // Also duplicate of an attached block.
        let g = tree.genesis_hash();
        let b = child(&tree, g, 0, 1);
        tree.insert(b.clone()).expect("ok");
        assert!(matches!(tree.insert(b), Err(InsertError::Duplicate(_))));
    }

    #[test]
    fn mismatched_orphan_is_dropped_with_its_body() {
        let mut tree = BlockTree::new();
        let b1 = child(&tree, tree.genesis_hash(), 0, 1);
        // Buffered on b1 but claiming the wrong height.
        let bad = BlockBuilder::new(b1.hash(), 5, PoolId(0)).build();
        assert_eq!(tree.insert(bad.clone()), Ok(InsertOutcome::Orphaned));
        match tree.insert(b1).expect("ok") {
            InsertOutcome::Attached {
                connected_orphans, ..
            } => assert!(connected_orphans.is_empty()),
            other => panic!("{other:?}"),
        }
        assert_eq!(tree.orphan_count(), 0);
        assert!(tree.orphans.is_empty(), "the refused header's body leaked");
        assert!(tree.get(bad.hash()).is_none());
        assert!(matches!(
            tree.insert(bad),
            Err(InsertError::HeightMismatch { .. })
        ));
    }

    #[test]
    fn height_mismatch_rejected() {
        let mut tree = BlockTree::new();
        let bad = BlockBuilder::new(tree.genesis_hash(), 5, PoolId(0)).build();
        match tree.insert(bad) {
            Err(InsertError::HeightMismatch { expected, got, .. }) => {
                assert_eq!(expected, 1);
                assert_eq!(got, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ancestry_queries() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let b1 = extend(&mut tree, g, 0, 1);
        let b2 = extend(&mut tree, b1, 0, 2);
        let b3 = extend(&mut tree, b2, 0, 3);
        assert_eq!(tree.ancestor_at(b3, 1), Some(b1));
        assert_eq!(tree.ancestor_at(b3, 3), Some(b3));
        assert_eq!(tree.ancestor_at(b1, 3), None);
        assert!(tree.is_ancestor(b1, b3));
        assert!(tree.is_ancestor(b3, b3));
        assert!(!tree.is_ancestor(b3, b1));
        assert!(tree.is_ancestor(g, b3));
    }

    #[test]
    fn confirmations_track_head() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let b1 = extend(&mut tree, g, 0, 1);
        assert_eq!(tree.confirmations(b1), Some(0));
        let mut cur = b1;
        for i in 0..12 {
            cur = extend(&mut tree, cur, 0, 100 + i);
        }
        assert_eq!(tree.confirmations(b1), Some(12));
        // A fork block has no confirmations.
        let f = child(&tree, g, 9, 999);
        let fh = f.hash();
        tree.insert(f).expect("ok");
        assert_eq!(tree.confirmations(fh), None);
    }

    #[test]
    fn uncle_bookkeeping() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let a1 = extend(&mut tree, g, 0, 1);
        let f1 = child(&tree, g, 1, 2);
        let f1h = f1.hash();
        tree.insert(f1).expect("ok");
        assert!(!tree.is_recognized_uncle(f1h));
        // a2 references f1 as uncle.
        let a2 = BlockBuilder::new(a1, 2, PoolId(0))
            .uncles(vec![f1h])
            .build();
        let a2h = a2.hash();
        tree.insert(a2).expect("ok");
        assert!(tree.is_recognized_uncle(f1h));
        assert_eq!(tree.uncle_included_in(f1h), Some(a2h));
    }

    #[test]
    fn tx_accessors_preserved_through_tree() {
        let mut tree = BlockTree::new();
        let g = tree.genesis_hash();
        let b = BlockBuilder::new(g, 1, PoolId(4))
            .txs(vec![TxId(1), TxId(2)])
            .build();
        let h = b.hash();
        tree.insert(b).expect("ok");
        assert_eq!(tree.get(h).expect("present").txs(), &[TxId(1), TxId(2)]);
    }

    #[test]
    fn default_is_new() {
        let tree = BlockTree::default();
        assert!(tree.is_empty());
        assert_eq!(tree.head(), tree.genesis_hash());
    }
}
