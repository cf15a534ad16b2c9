//! The one fork-choice core: a header-only block tree.
//!
//! [`HeaderTree`] is the single owner of everything chain selection needs
//! and nothing it does not: per-block `{hash, parent, number, miner,
//! score}`, head selection under a pluggable [`Consensus`] engine (the default
//! [`HeaviestChain`] reproduces total difficulty with first-seen
//! tie-breaking), the canonical index, the orphan buffer and its cascade,
//! the ancestor walk, the referenced-uncle record, and an optional pruning
//! window. The `safe`/`finalized` markers are derived from the canonical
//! index and the engine's confirmation depths, never stored. Uncle
//! eligibility over the same state lives in [`crate::uncles`].
//!
//! Headers live in slots of one `Vec`, each linked to its parent's slot.
//! A query probes the one hash→slot index once, for the hash it is handed;
//! ancestry, head switches and uncle checks then walk slots. The canonical
//! index holds slots too, so reading the chain by height makes no probe at
//! all. A prune frees the slots at or below the window's cutoff and
//! repairs no link, so a link counts only while its slot is live and still
//! holds the parent's hash: a freed or reused slot ends a walk exactly
//! where the pruned parent would have.
//!
//! Both consumers are this type: a gossip node's view of the chain is a
//! windowed tree (`ethmeter_net::HeaderView`, so per-node memory stays
//! constant however long the simulation runs), and the ground-truth
//! [`crate::tree::BlockTree`] is an unbounded one with block bodies kept
//! beside it.

use std::collections::hash_map::Entry::Vacant;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ethmeter_types::{BlockHash, BlockNumber, FxHashMap, PoolId};

use crate::consensus::{Consensus, HeaviestChain, Score};
use crate::uncles::MAX_UNCLE_DEPTH;

/// Miner id used for the synthetic genesis block.
pub const GENESIS_MINER: PoolId = PoolId(u16::MAX);

/// Why a header could not join the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// A header with this hash is already attached or buffered.
    Duplicate(BlockHash),
    /// The parent is not attached. Only the strict [`HeaderTree::attach`]
    /// reports this; [`HeaderTree::insert`] buffers the header instead.
    UnknownParent {
        /// The rejected header.
        hash: BlockHash,
        /// The parent it referenced.
        parent: BlockHash,
    },
    /// `number` is not `parent.number + 1`.
    HeightMismatch {
        /// The offending header.
        hash: BlockHash,
        /// Height the parent implies.
        expected: BlockNumber,
        /// Height the header claims.
        got: BlockNumber,
    },
    /// The header lies at or below a windowed tree's pruning horizon.
    TooOld {
        /// The rejected header.
        hash: BlockHash,
        /// Height the header claims.
        number: BlockNumber,
    },
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::Duplicate(hash) => write!(f, "duplicate block {hash}"),
            InsertError::UnknownParent { hash, parent } => {
                write!(f, "block {hash} references unknown parent {parent}")
            }
            InsertError::HeightMismatch {
                hash,
                expected,
                got,
            } => write!(
                f,
                "block {hash} claims height {got}, parent implies {expected}"
            ),
            InsertError::TooOld { hash, number } => {
                write!(f, "block {hash} at height {number} is below the window")
            }
        }
    }
}

impl Error for InsertError {}

/// Result of a successful [`HeaderTree::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The block attached to the tree.
    Attached {
        /// True if this block (or an orphan it connected) became the head.
        new_head: bool,
        /// Number of canonical blocks replaced (0 for a plain extension;
        /// the deepest replacement when a cascade moved the head twice).
        reorg_depth: u64,
        /// Hashes of previously orphaned blocks that this insertion
        /// connected (in connection order, not including the block itself).
        connected_orphans: Vec<BlockHash>,
    },
    /// The parent is unknown; the block was buffered and will connect
    /// automatically when its parent arrives.
    Orphaned,
}

/// What [`HeaderTree::insert`] returns.
pub type HeaderInsert = Result<InsertOutcome, InsertError>;

/// What the tree keeps per attached header. Packed to 8-byte alignment
/// because the `u128` score would otherwise pad every slot from 48 to 64
/// bytes — per header, in 10,000 views and every ground-truth tree.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(8))]
pub(crate) struct Entry {
    pub(crate) hash: BlockHash,
    pub(crate) parent: BlockHash,
    /// [`FREE`] while the slot holds no header.
    pub(crate) number: BlockNumber,
    /// Fork-choice score under the tree's engine.
    pub(crate) score: Score,
    /// The slot `parent` was attached in ([`NO_SLOT`] for the root). See
    /// [`HeaderTree::parent_entry`] for when it may be followed.
    parent_slot: u32,
    pub(crate) miner: PoolId,
}

/// The height a free slot claims: no header can reach it.
const FREE: BlockNumber = BlockNumber::MAX;

/// The root's parent slot: there is nothing to follow.
const NO_SLOT: u32 = u32::MAX;

/// A buffered header. Its difficulty and uncle list are only needed until
/// the parent attaches and the header can be scored.
#[derive(Debug, Clone)]
struct Orphan {
    hash: BlockHash,
    number: BlockNumber,
    miner: PoolId,
    difficulty: u64,
    uncles: Vec<BlockHash>,
}

/// A header-only block tree with engine-driven fork choice.
#[derive(Debug, Clone)]
pub struct HeaderTree {
    engine: Arc<dyn Consensus>,
    /// Attached headers by slot, free slots among them.
    entries: Vec<Entry>,
    /// hash -> slot of every attached header: the tree's one hash index.
    index: FxHashMap<BlockHash, u32>,
    /// Slots freed by pruning, reused newest first.
    free: Vec<u32>,
    /// `canonical[i]` is the slot of the canonical header at height
    /// `base + i`; the back is the head. Canonical slots are always live,
    /// so two of them are equal exactly when their hashes are.
    canonical: VecDeque<u32>,
    /// Lowest height the canonical index still covers (0 until pruned).
    base: BlockNumber,
    head_score: Score,
    genesis: BlockHash,
    /// uncle hash -> the block that referenced it first.
    referenced: FxHashMap<BlockHash, BlockHash>,
    /// parent hash -> headers waiting for that parent.
    orphans: FxHashMap<BlockHash, Vec<Orphan>>,
    /// Heights of history kept behind the head; `None` keeps everything.
    window: Option<u64>,
    reorg_count: u64,
}

impl HeaderTree {
    /// A tree rooted at `genesis` that keeps `window` heights of history,
    /// under the default [`HeaviestChain`] engine.
    ///
    /// # Panics
    ///
    /// Panics if `window` is smaller than the uncle depth (pruning would
    /// break uncle selection).
    pub fn new(genesis: BlockHash, window: u64) -> Self {
        Self::with_consensus(genesis, window, Arc::new(HeaviestChain))
    }

    /// A windowed tree rooted at `genesis` whose fork choice is driven by
    /// `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is smaller than the uncle depth.
    pub fn with_consensus(genesis: BlockHash, window: u64, engine: Arc<dyn Consensus>) -> Self {
        Self::rooted(genesis, Some(window), engine)
    }

    /// A tree rooted at `genesis` that never prunes.
    pub fn unbounded(genesis: BlockHash, engine: Arc<dyn Consensus>) -> Self {
        Self::rooted(genesis, None, engine)
    }

    fn rooted(genesis: BlockHash, window: Option<u64>, engine: Arc<dyn Consensus>) -> Self {
        let mut tree = HeaderTree {
            engine,
            // Only the root until a block arrives: a view that never sees
            // one (a tx-only campaign's 10,000 nodes) stays one slot big.
            entries: Vec::with_capacity(1),
            index: FxHashMap::default(),
            free: Vec::new(),
            canonical: VecDeque::new(),
            base: 0,
            head_score: 0,
            genesis,
            referenced: FxHashMap::default(),
            orphans: FxHashMap::default(),
            window,
            reorg_count: 0,
        };
        tree.reroot(genesis, window);
        tree
    }

    /// Rewinds a windowed tree to a fresh root under `engine`, keeping
    /// every container's allocation. Behaviorally identical to
    /// [`HeaderTree::with_consensus`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is smaller than the uncle depth.
    pub fn reset_with(&mut self, genesis: BlockHash, window: u64, engine: Arc<dyn Consensus>) {
        self.engine = engine;
        self.reroot(genesis, Some(window));
    }

    fn reroot(&mut self, genesis: BlockHash, window: Option<u64>) {
        assert!(
            window.is_none_or(|w| w > MAX_UNCLE_DEPTH + 1),
            "window must exceed the uncle depth"
        );
        self.entries.clear();
        self.index.clear();
        self.free.clear();
        self.canonical.clear();
        self.referenced.clear();
        self.orphans.clear();
        self.entries.push(Entry {
            hash: genesis,
            parent: BlockHash::ZERO,
            number: 0,
            score: 0,
            parent_slot: NO_SLOT,
            miner: GENESIS_MINER,
        });
        self.index.insert(genesis, 0);
        self.canonical.push_back(0);
        (self.base, self.head_score, self.reorg_count) = (0, 0, 0);
        self.genesis = genesis;
        self.window = window;
    }

    /// The consensus engine driving this tree's fork choice.
    pub fn consensus(&self) -> &Arc<dyn Consensus> {
        &self.engine
    }

    /// The current best block.
    pub fn head(&self) -> BlockHash {
        let head = self
            .canonical
            .back()
            .expect("the canonical index holds the head");
        self.entries[*head as usize].hash
    }

    /// The current best height.
    pub fn head_number(&self) -> BlockNumber {
        self.base + self.canonical.len() as BlockNumber - 1
    }

    /// The newest canonical block at least [`Consensus::safe_depth`]
    /// confirmations behind the head (the oldest retained one on short or
    /// pruned chains).
    pub fn safe(&self) -> BlockHash {
        self.canonical_behind_head(self.engine.safe_depth())
    }

    /// The newest canonical block at least
    /// [`Consensus::finalized_depth`] confirmations behind the head (the
    /// oldest retained one on short or pruned chains).
    pub fn finalized(&self) -> BlockHash {
        self.canonical_behind_head(self.engine.finalized_depth())
    }

    fn canonical_behind_head(&self, depth: u64) -> BlockHash {
        let last = self.canonical.len() - 1;
        let slot =
            self.canonical[last.saturating_sub(usize::try_from(depth).unwrap_or(usize::MAX))];
        self.entries[slot as usize].hash
    }

    /// The genesis hash this tree was rooted at.
    pub fn genesis_hash(&self) -> BlockHash {
        self.genesis
    }

    /// True if the tree has this header attached (orphans don't count).
    pub fn contains(&self, hash: BlockHash) -> bool {
        self.index.contains_key(&hash)
    }

    /// Number of attached headers currently retained, the root included.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if only the root is attached.
    pub fn is_empty(&self) -> bool {
        self.index.len() <= 1
    }

    /// Number of headers buffered waiting for a parent.
    pub fn orphan_count(&self) -> usize {
        self.orphans.values().map(Vec::len).sum()
    }

    /// How many reorgs (head switches replacing ≥1 canonical block) have
    /// happened.
    pub fn reorg_count(&self) -> u64 {
        self.reorg_count
    }

    /// The canonical hash at `number`, if the chain reaches that height
    /// and the window still covers it.
    pub fn canonical_hash(&self, number: BlockNumber) -> Option<BlockHash> {
        self.canonical_slot(number)
            .map(|slot| self.entries[slot].hash)
    }

    /// The retained canonical chain in height order, head last.
    pub fn canonical(&self) -> impl Iterator<Item = BlockHash> + '_ {
        self.canonical_slots().map(|slot| self.entries[slot].hash)
    }

    /// True if `hash` is attached and canonical at its height.
    pub fn is_canonical(&self, hash: BlockHash) -> bool {
        self.slot_of(hash)
            .is_some_and(|slot| self.canonical_slot(self.entries[slot].number) == Some(slot))
    }

    /// The slot of the canonical header at `number`, if retained.
    pub(crate) fn canonical_slot(&self, number: BlockNumber) -> Option<usize> {
        let i = number.checked_sub(self.base)?;
        let slot = self.canonical.get(usize::try_from(i).ok()?)?;
        Some(*slot as usize)
    }

    /// The slots of [`HeaderTree::canonical`], in the same order.
    pub(crate) fn canonical_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.canonical.iter().map(|&slot| slot as usize)
    }

    /// Makes room for `additional` more headers without regrowing the slot
    /// `Vec` or rehashing the index.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
        self.index.reserve(additional);
    }

    /// The height of an attached header.
    pub fn number_of(&self, hash: BlockHash) -> Option<BlockNumber> {
        self.entry(hash).map(|e| e.number)
    }

    /// Fork-choice score of an attached header under this tree's engine.
    pub fn score(&self, hash: BlockHash) -> Option<Score> {
        self.entry(hash).map(|e| e.score)
    }

    /// The block that first referenced `hash` as an uncle, if any. A
    /// windowed tree may remember references to headers it has pruned.
    pub fn uncle_included_in(&self, hash: BlockHash) -> Option<BlockHash> {
        self.referenced.get(&hash).copied()
    }

    /// True if `hash` has been referenced as an uncle by any attached
    /// header.
    pub fn is_recognized_uncle(&self, hash: BlockHash) -> bool {
        self.referenced.contains_key(&hash)
    }

    /// The slot of an attached header: the one hash probe of a query.
    pub(crate) fn slot_of(&self, hash: BlockHash) -> Option<usize> {
        self.index.get(&hash).map(|&slot| slot as usize)
    }

    pub(crate) fn entry(&self, hash: BlockHash) -> Option<&Entry> {
        self.slot_of(hash).map(|slot| &self.entries[slot])
    }

    /// The slot the parent of the header in `slot` was attached in.
    pub(crate) fn parent_slot(&self, slot: usize) -> usize {
        self.entries[slot].parent_slot as usize
    }

    /// `e`'s parent, if it is still attached. The link counts only if its
    /// slot is live and holds the parent's hash: a prune frees slots
    /// without repairing the links into them, and a newer header may have
    /// taken the slot since.
    pub(crate) fn parent_entry(&self, e: &Entry) -> Option<&Entry> {
        let p = self.entries.get(e.parent_slot as usize)?;
        (p.number != FREE && p.hash == e.parent).then_some(p)
    }

    /// Every attached header, in slot order.
    pub(crate) fn attached(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.entries.iter().filter(|e| e.number != FREE)
    }

    /// The ancestor of `hash` at height `number`, walking parent links;
    /// `None` once the walk leaves the window.
    pub fn ancestor_at(&self, hash: BlockHash, number: BlockNumber) -> Option<BlockHash> {
        self.ancestor_entry(self.entry(hash)?, number)
            .map(|a| a.hash)
    }

    /// [`HeaderTree::ancestor_at`] from an entry already in hand.
    pub(crate) fn ancestor_entry<'a>(
        &'a self,
        mut e: &'a Entry,
        number: BlockNumber,
    ) -> Option<&'a Entry> {
        if number > e.number {
            return None;
        }
        while e.number > number {
            e = self.parent_entry(e)?;
        }
        Some(e)
    }

    /// Offers a header. `difficulty` is the header's own difficulty (fed
    /// to the engine's scoring); `uncles` are the hashes the block
    /// references (recorded once it attaches, to prevent double
    /// inclusion).
    ///
    /// An unknown-parent header is buffered ([`InsertOutcome::Orphaned`])
    /// and connected automatically when the parent arrives — mirroring
    /// Geth's fetcher queue. Buffered headers that turn out not to fit
    /// their parent are discarded silently: they can only come from a
    /// corrupted producer, which the simulator never creates.
    ///
    /// # Errors
    ///
    /// [`InsertError::Duplicate`] if the hash is already attached or
    /// buffered, [`InsertError::TooOld`] if a windowed tree has pruned
    /// past its height, and any error from the engine's
    /// [`Consensus::validate`] hook (by default
    /// [`InsertError::HeightMismatch`]).
    pub fn insert(
        &mut self,
        hash: BlockHash,
        parent: BlockHash,
        number: BlockNumber,
        miner: PoolId,
        difficulty: u64,
        uncles: &[BlockHash],
    ) -> HeaderInsert {
        if self.index.contains_key(&hash) {
            return Err(InsertError::Duplicate(hash));
        }
        if self.cutoff().is_some_and(|cutoff| number <= cutoff) {
            return Err(InsertError::TooOld { hash, number });
        }
        if self
            .orphans
            .values()
            .any(|waiting| waiting.iter().any(|o| o.hash == hash))
        {
            return Err(InsertError::Duplicate(hash));
        }
        let moved = match self.attach(hash, parent, number, miner, difficulty, uncles) {
            Err(InsertError::UnknownParent { .. }) => {
                self.orphans.entry(parent).or_default().push(Orphan {
                    hash,
                    number,
                    miner,
                    difficulty,
                    uncles: uncles.to_vec(),
                });
                return Ok(InsertOutcome::Orphaned);
            }
            attached => attached?,
        };
        let mut new_head = moved.is_some();
        let mut reorg_depth = moved.unwrap_or(0);

        // Connect any orphans now reachable, newest link first.
        let mut connected_orphans = Vec::new();
        if !self.orphans.is_empty() {
            let mut frontier = vec![hash];
            while let Some(parent) = frontier.pop() {
                for o in self.orphans.remove(&parent).unwrap_or_default() {
                    let Ok(moved) =
                        self.attach(o.hash, parent, o.number, o.miner, o.difficulty, &o.uncles)
                    else {
                        continue;
                    };
                    new_head |= moved.is_some();
                    reorg_depth = reorg_depth.max(moved.unwrap_or(0));
                    connected_orphans.push(o.hash);
                    frontier.push(o.hash);
                }
            }
        }
        Ok(InsertOutcome::Attached {
            new_head,
            reorg_depth,
            connected_orphans,
        })
    }

    /// Strict insert: attaches a header whose parent is already attached,
    /// never buffering. Returns `Some(replaced)` iff the head moved to
    /// `hash`, with the number of canonical blocks it replaced.
    ///
    /// # Errors
    ///
    /// [`InsertError::UnknownParent`], whatever the engine's
    /// [`Consensus::validate`] hook refuses, and
    /// [`InsertError::Duplicate`] for an attached hash.
    pub fn attach(
        &mut self,
        hash: BlockHash,
        parent: BlockHash,
        number: BlockNumber,
        miner: PoolId,
        difficulty: u64,
        uncles: &[BlockHash],
    ) -> Result<Option<u64>, InsertError> {
        let Some(&parent_slot) = self.index.get(&parent) else {
            return Err(InsertError::UnknownParent { hash, parent });
        };
        let p = &self.entries[parent_slot as usize];
        self.engine.validate(hash, number, p.number)?;
        let score = self.engine.score(p.score, difficulty, uncles.len());
        let Vacant(vacant) = self.index.entry(hash) else {
            return Err(InsertError::Duplicate(hash));
        };
        let entry = Entry {
            hash,
            parent,
            number,
            score,
            parent_slot,
            miner,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                u32::try_from(self.entries.len() - 1).expect("fewer than 2^32 headers retained")
            }
        };
        vacant.insert(slot);
        for &u in uncles {
            self.referenced.entry(u).or_insert(hash);
        }
        if !self
            .engine
            .prefer(score, hash, self.head_score, self.head())
        {
            return Ok(None);
        }
        let replaced = self.switch_head(slot);
        self.head_score = score;
        self.reorg_count += u64::from(replaced > 0);
        self.prune();
        Ok(Some(replaced))
    }

    /// Rewrites the canonical index so it ends at the header in slot
    /// `new_head`; returns how many previously canonical blocks were
    /// replaced.
    fn switch_head(&mut self, new_head: u32) -> u64 {
        let head = self.entries[new_head as usize];
        // Walk the new branch down to the lowest height it rewrites: the
        // one just above its first still-canonical ancestor, or the
        // bottom of the window. `below` is a live parent's slot and entry.
        let mut fork = head.number;
        let mut below = (head.parent_slot as usize, self.parent_entry(&head));
        while fork > self.base {
            match below {
                (slot, Some(b)) if self.canonical_slot(fork - 1) != Some(slot) => {
                    below = (b.parent_slot as usize, self.parent_entry(b));
                    fork -= 1;
                }
                _ => break,
            }
        }
        let replaced = (self.head_number() + 1).saturating_sub(fork);
        self.canonical.truncate((fork - self.base) as usize);
        self.canonical
            .resize((head.number + 1 - self.base) as usize, new_head);
        // The walk above checked every link between these heights.
        let mut cur = head.parent_slot;
        for n in (fork..head.number).rev() {
            self.canonical[(n - self.base) as usize] = cur;
            cur = self.entries[cur as usize].parent_slot;
        }
        replaced
    }

    /// The height at and below which a windowed tree has let go.
    fn cutoff(&self) -> Option<BlockNumber> {
        self.head_number().checked_sub(self.window?)
    }

    /// Drops everything at or below the window's cutoff.
    fn prune(&mut self) {
        let (Some(window), Some(cutoff)) = (self.window, self.cutoff()) else {
            return;
        };
        for (slot, e) in (0u32..).zip(&mut self.entries) {
            // A free slot claims FREE, above every cutoff.
            if e.number <= cutoff {
                self.index.remove(&{ e.hash });
                e.number = FREE;
                self.free.push(slot);
            }
        }
        while self.base <= cutoff {
            self.canonical.pop_front();
            self.base += 1;
        }
        self.orphans.retain(|_, waiting| {
            waiting.retain(|o| o.number > cutoff);
            !waiting.is_empty()
        });
        // `referenced` may keep stale hashes — uncle candidates must be
        // attached, so a pruned hash can never be one again — and is only
        // swept once it has outgrown the window several times over.
        if self.referenced.len() as u64 > 4 * window {
            let index = &self.index;
            self.referenced.retain(|u, _| index.contains_key(u));
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::ConsensusKind;
    use crate::uncles::UnclePolicy;

    fn h(n: u64) -> BlockHash {
        BlockHash::mix(n)
    }

    fn tree(kind: ConsensusKind) -> HeaderTree {
        HeaderTree::unbounded(h(0), kind.build())
    }

    /// Strictly attaches `hash` at `number` on `parent` (difficulty 1,
    /// `uncle_count` placeholder uncle references); true iff the head
    /// moved.
    fn attach(
        t: &mut HeaderTree,
        hash: BlockHash,
        parent: BlockHash,
        number: BlockNumber,
        uncle_count: u64,
    ) -> Result<bool, InsertError> {
        let uncles: Vec<BlockHash> = (0..uncle_count).map(|k| h(9_000 + k)).collect();
        t.attach(hash, parent, number, PoolId(0), 1, &uncles)
            .map(|moved| moved.is_some())
    }

    #[test]
    fn linear_inserts_move_the_head() {
        let mut t = tree(ConsensusKind::Heaviest);
        assert_eq!(t.head(), h(0));
        assert!(attach(&mut t, h(1), h(0), 1, 0).unwrap());
        assert!(attach(&mut t, h(2), h(1), 2, 0).unwrap());
        assert_eq!(t.head(), h(2));
        assert_eq!(t.score(h(2)), Some(2));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn unknown_parent_is_an_error() {
        let mut t = tree(ConsensusKind::Heaviest);
        assert_eq!(
            attach(&mut t, h(5), h(99), 1, 0),
            Err(InsertError::UnknownParent {
                hash: h(5),
                parent: h(99)
            })
        );
        assert!(!t.contains(h(5)));
    }

    #[test]
    fn duplicate_is_an_error() {
        let mut t = tree(ConsensusKind::Heaviest);
        attach(&mut t, h(1), h(0), 1, 0).unwrap();
        assert_eq!(
            attach(&mut t, h(1), h(0), 1, 0),
            Err(InsertError::Duplicate(h(1)))
        );
        // Errors render usefully for expect-style callers.
        let msg = InsertError::Duplicate(h(1)).to_string();
        assert!(msg.contains("duplicate block"), "{msg}");
    }

    #[test]
    fn height_mismatch_is_an_error_not_a_duplicate() {
        let mut v = HeaderTree::new(h(0), 64);
        let expected = InsertError::HeightMismatch {
            hash: h(1),
            expected: 1,
            got: 5,
        };
        assert_eq!(v.insert(h(1), h(0), 5, PoolId(0), 1, &[]), Err(expected));
        assert!(!v.contains(h(1)));
    }

    #[test]
    fn heaviest_keeps_first_seen_on_ties() {
        let mut t = tree(ConsensusKind::Heaviest);
        assert!(attach(&mut t, h(1), h(0), 1, 0).unwrap());
        // Equal-score sibling does not displace the head.
        assert!(!attach(&mut t, h(2), h(0), 1, 0).unwrap());
        assert_eq!(t.head(), h(1));
    }

    #[test]
    fn hash_ordered_engines_are_insertion_order_independent() {
        for kind in [ConsensusKind::Longest, ConsensusKind::UncleGhost] {
            let mut a = tree(kind);
            attach(&mut a, h(1), h(0), 1, 0).unwrap();
            attach(&mut a, h(2), h(0), 1, 0).unwrap();
            let mut b = tree(kind);
            attach(&mut b, h(2), h(0), 1, 0).unwrap();
            attach(&mut b, h(1), h(0), 1, 0).unwrap();
            assert_eq!(a.head(), b.head(), "{kind}: head must not depend on order");
            assert_eq!(a.head(), h(1).max(h(2)));
        }
    }

    #[test]
    fn ghost_prefers_uncle_heavy_branches() {
        let mut t = tree(ConsensusKind::UncleGhost);
        // Branch A: two plain blocks. Branch B: one block citing two uncles.
        attach(&mut t, h(1), h(0), 1, 0).unwrap();
        attach(&mut t, h(2), h(1), 2, 0).unwrap();
        assert_eq!(t.head(), h(2));
        assert!(attach(&mut t, h(3), h(0), 1, 2).unwrap());
        assert_eq!(t.head(), h(3));
        assert_eq!(t.score(h(3)), Some(3));
        // The head moved *down*: the index must not keep the old tip.
        assert_eq!(t.head_number(), 1);
        assert_eq!(t.canonical_hash(2), None);
        assert!(!t.is_canonical(h(2)));
    }

    #[test]
    fn markers_trail_the_canonical_chain() {
        let mut t = tree(ConsensusKind::Heaviest);
        // Short prefix: both markers saturate at genesis.
        for n in 1..=3 {
            attach(&mut t, h(n), h(n - 1), n, 0).unwrap();
        }
        assert_eq!(t.safe(), h(0));
        assert_eq!(t.finalized(), h(0));
        // Full chain of height 14: safe = head-6, finalized = head-12.
        for n in 4..=14 {
            attach(&mut t, h(n), h(n - 1), n, 0).unwrap();
        }
        assert_eq!(t.safe(), h(8));
        assert_eq!(t.finalized(), h(2));
    }

    #[test]
    fn markers_saturate_at_the_window() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 8);
        let chain = linear(&mut v, g, 1, 40);
        // Heights 33..=40 remain: finalized (head-12) is pruned away and
        // falls back to the oldest retained canonical block.
        assert_eq!(v.safe(), chain[33]);
        assert_eq!(v.finalized(), chain[32]);
        assert_eq!(v.canonical_hash(32), None);
    }

    /// An attach that made the offered header (or an orphan it connected)
    /// the head, replacing `reorg_depth` canonical blocks.
    fn new_head(reorg_depth: u64, connected_orphans: Vec<BlockHash>) -> HeaderInsert {
        Ok(InsertOutcome::Attached {
            new_head: true,
            reorg_depth,
            connected_orphans,
        })
    }

    /// An attach that left the head alone.
    fn side_chain() -> HeaderInsert {
        Ok(InsertOutcome::Attached {
            new_head: false,
            reorg_depth: 0,
            connected_orphans: Vec::new(),
        })
    }

    fn linear(
        view: &mut HeaderTree,
        from: BlockHash,
        start: BlockNumber,
        n: u64,
    ) -> Vec<BlockHash> {
        let mut out = Vec::new();
        let mut parent = from;
        for i in 0..n {
            let hash = h(1000 + start + i);
            let r = view.insert(hash, parent, start + i, PoolId(0), 1, &[]);
            assert_eq!(r, new_head(0, vec![]));
            out.push(hash);
            parent = hash;
        }
        out
    }

    #[test]
    fn linear_growth_moves_head() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 64);
        let chain = linear(&mut v, g, 1, 5);
        assert_eq!(v.head(), chain[4]);
        assert_eq!(v.head_number(), 5);
        assert!(v.is_canonical(chain[2]));
        assert_eq!(v.canonical_hash(3), Some(chain[2]));
    }

    #[test]
    fn side_chain_and_reorg() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 64);
        // a1, a2
        let a = linear(&mut v, g, 1, 2);
        // Fork from genesis.
        let b1 = h(501);
        assert_eq!(v.insert(b1, g, 1, PoolId(1), 1, &[]), side_chain());
        let b2 = h(502);
        assert_eq!(v.insert(b2, b1, 2, PoolId(1), 1, &[]), side_chain());
        let b3 = h(503);
        assert_eq!(v.insert(b3, b2, 3, PoolId(1), 1, &[]), new_head(2, vec![]));
        assert_eq!(v.head(), b3);
        assert!(v.is_canonical(b1));
        assert!(!v.is_canonical(a[0]));
        assert_eq!(v.reorg_count(), 1);
    }

    #[test]
    fn orphan_buffer_connects() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 64);
        let c1 = h(1);
        let c2 = h(2);
        assert_eq!(
            v.insert(c2, c1, 2, PoolId(0), 1, &[]),
            Ok(InsertOutcome::Orphaned)
        );
        assert_eq!(
            v.insert(c2, c1, 2, PoolId(0), 1, &[]),
            Err(InsertError::Duplicate(c2))
        );
        let r = v.insert(c1, g, 1, PoolId(0), 1, &[]);
        assert_eq!(r, new_head(0, vec![c2]));
        assert_eq!(v.head(), c2);
        assert_eq!(v.head_number(), 2);
    }

    #[test]
    fn pruning_bounds_memory() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 16);
        linear(&mut v, g, 1, 200);
        assert!(v.len() <= 17, "len {}", v.len());
        assert_eq!(v.head_number(), 200);
        // Ancient inserts are refused.
        assert_eq!(
            v.insert(h(9999), g, 1, PoolId(0), 1, &[]),
            Err(InsertError::TooOld {
                hash: h(9999),
                number: 1
            })
        );
    }

    #[test]
    fn entry_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 48);
    }

    #[test]
    fn forking_inserts_keep_slot_storage_bounded() {
        let window = 16;
        let mut v = HeaderTree::new(h(0), window);
        for n in 1..=5_000u64 {
            // Every height gets two blocks on the head; every third height
            // the heavier second one takes over.
            let tip = v.head();
            v.insert(h(2 * n), tip, n, PoolId(0), 1, &[]).unwrap();
            assert!(
                v.entries.len() <= 4 * window as usize,
                "{}",
                v.entries.len()
            );
            let heavier = 1 + u64::from(n % 3 == 0);
            v.insert(h(2 * n + 1), tip, n, PoolId(1), heavier, &[])
                .unwrap();
            assert!(
                v.entries.len() <= 4 * window as usize,
                "{}",
                v.entries.len()
            );
        }
        assert_eq!(v.head_number(), 5_000);
        assert_eq!(v.len() + v.free.len(), v.entries.len());
    }

    #[test]
    fn a_reused_parent_slot_ends_the_walk() {
        let g = h(0);
        let mut v = HeaderTree::new(g, MAX_UNCLE_DEPTH + 2);
        let mut chain = vec![g];
        chain.extend(linear(&mut v, g, 1, 4));
        // A survivor on c3 at height 4, beside the canonical c4.
        let survivor = h(700);
        assert_eq!(
            v.insert(survivor, chain[3], 4, PoolId(1), 1, &[]),
            side_chain()
        );
        let parent_slot = v.slot_of(chain[3]).unwrap();
        // Heads 5..=11: the last prune (cutoff 3) frees c3's slot only.
        chain.extend(linear(&mut v, chain[4], 5, 7));
        assert!(!v.contains(chain[3]) && v.contains(survivor));
        assert_eq!(v.free.last(), Some(&(parent_slot as u32)));
        // A side block that moves no head takes the slot.
        let newcomer = h(800);
        assert_eq!(
            v.insert(newcomer, chain[10], 11, PoolId(1), 1, &[]),
            side_chain()
        );
        assert_eq!(v.slot_of(newcomer), Some(parent_slot));
        assert_eq!(v.ancestor_at(survivor, 4), Some(survivor));
        assert_eq!(v.ancestor_at(survivor, 3), None);
        assert_eq!(v.ancestor_at(chain[4], 3), None);
        assert!(v.select_uncles(survivor, UnclePolicy::Standard).is_empty());
    }

    #[test]
    fn uncle_selection_on_view() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 64);
        let main = linear(&mut v, g, 1, 3);
        // A competing block at height 1 by another miner.
        let f1 = h(700);
        v.insert(f1, g, 1, PoolId(1), 1, &[]).unwrap();
        let picked = v.select_uncles(v.head(), UnclePolicy::Standard);
        assert_eq!(picked, vec![f1]);
        // Once referenced, it is no longer a candidate.
        let n4 = h(800);
        v.insert(n4, main[2], 4, PoolId(0), 1, &[f1]).unwrap();
        assert!(v.select_uncles(v.head(), UnclePolicy::Standard).is_empty());
    }

    #[test]
    fn uncle_depth_window_respected() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 64);
        let f1 = h(700);
        let main = linear(&mut v, g, 1, 7);
        v.insert(f1, g, 1, PoolId(1), 1, &[]).unwrap();
        // From head at 7, a new block at 8 has gap 7 to f1: too deep.
        assert!(v.select_uncles(main[6], UnclePolicy::Standard).is_empty());
        // From the block at height 6 (new number 7, gap 6): valid.
        assert_eq!(v.select_uncles(main[5], UnclePolicy::Standard), vec![f1]);
    }

    #[test]
    fn same_miner_policy_on_view() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 64);
        let main = linear(&mut v, g, 1, 1); // miner 0 at height 1
        let dup = h(700);
        v.insert(dup, g, 1, PoolId(0), 1, &[]).unwrap(); // same miner duplicate
        assert_eq!(v.select_uncles(main[0], UnclePolicy::Standard), vec![dup]);
        assert!(v
            .select_uncles(main[0], UnclePolicy::ForbidSameMinerHeight)
            .is_empty());
    }

    #[test]
    fn second_fork_block_not_a_candidate() {
        let g = h(0);
        let mut v = HeaderTree::new(g, 64);
        let main = linear(&mut v, g, 1, 4);
        let f1 = h(700);
        let f2 = h(701);
        v.insert(f1, g, 1, PoolId(1), 1, &[]).unwrap();
        v.insert(f2, f1, 2, PoolId(1), 1, &[]).unwrap();
        let picked = v.select_uncles(main[3], UnclePolicy::Standard);
        assert_eq!(picked, vec![f1], "f2's parent is off-chain");
    }
}
