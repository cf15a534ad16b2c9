//! The hash-keyed fork-choice tree the slot-backed [`HeaderTree`] replaced,
//! kept as the reference model of a differential test.
//!
//! Every attached header lives in one `FxHashMap<BlockHash, _>` and every
//! parent link is a hash lookup, so a pruned parent is simply absent: this
//! model cannot confuse a recycled slot with a parent. Uncle selection is
//! spelled out as the single-candidate rule filtered, ordered by (height
//! desc, hash) and capped.

use std::collections::VecDeque;
use std::sync::Arc;

use ethmeter_types::{BlockHash, BlockNumber, FxHashMap, PoolId};

use super::{HeaderInsert, InsertError, InsertOutcome, GENESIS_MINER};
use crate::consensus::{Consensus, Score};
use crate::uncles::{UnclePolicy, MAX_UNCLES, MAX_UNCLE_DEPTH};

#[derive(Debug, Clone, Copy)]
struct Entry {
    parent: BlockHash,
    number: BlockNumber,
    miner: PoolId,
    score: Score,
}

#[derive(Debug, Clone)]
struct Orphan {
    hash: BlockHash,
    number: BlockNumber,
    miner: PoolId,
    difficulty: u64,
    uncles: Vec<BlockHash>,
}

/// The hash-keyed header tree.
pub(crate) struct ReferenceTree {
    engine: Arc<dyn Consensus>,
    entries: FxHashMap<BlockHash, Entry>,
    canonical: VecDeque<BlockHash>,
    base: BlockNumber,
    head_score: Score,
    referenced: FxHashMap<BlockHash, BlockHash>,
    orphans: FxHashMap<BlockHash, Vec<Orphan>>,
    window: Option<u64>,
    reorg_count: u64,
}

impl ReferenceTree {
    pub(crate) fn new(genesis: BlockHash, window: Option<u64>, engine: Arc<dyn Consensus>) -> Self {
        let mut entries = FxHashMap::default();
        entries.insert(
            genesis,
            Entry {
                parent: BlockHash::ZERO,
                number: 0,
                miner: GENESIS_MINER,
                score: 0,
            },
        );
        ReferenceTree {
            engine,
            entries,
            canonical: VecDeque::from([genesis]),
            base: 0,
            head_score: 0,
            referenced: FxHashMap::default(),
            orphans: FxHashMap::default(),
            window,
            reorg_count: 0,
        }
    }

    pub(crate) fn head(&self) -> BlockHash {
        *self
            .canonical
            .back()
            .expect("the canonical index holds the head")
    }

    pub(crate) fn head_number(&self) -> BlockNumber {
        self.base + self.canonical.len() as BlockNumber - 1
    }

    pub(crate) fn canonical(&self) -> impl Iterator<Item = BlockHash> + '_ {
        self.canonical.iter().copied()
    }

    pub(crate) fn canonical_hash(&self, number: BlockNumber) -> Option<BlockHash> {
        let i = number.checked_sub(self.base)?;
        self.canonical.get(usize::try_from(i).ok()?).copied()
    }

    pub(crate) fn is_canonical(&self, hash: BlockHash) -> bool {
        self.entries
            .get(&hash)
            .is_some_and(|e| self.canonical_hash(e.number) == Some(hash))
    }

    fn canonical_behind_head(&self, depth: u64) -> BlockHash {
        let last = self.canonical.len() - 1;
        self.canonical[last.saturating_sub(usize::try_from(depth).unwrap_or(usize::MAX))]
    }

    pub(crate) fn safe(&self) -> BlockHash {
        self.canonical_behind_head(self.engine.safe_depth())
    }

    pub(crate) fn finalized(&self) -> BlockHash {
        self.canonical_behind_head(self.engine.finalized_depth())
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn orphan_count(&self) -> usize {
        self.orphans.values().map(Vec::len).sum()
    }

    pub(crate) fn reorg_count(&self) -> u64 {
        self.reorg_count
    }

    pub(crate) fn number_of(&self, hash: BlockHash) -> Option<BlockNumber> {
        self.entries.get(&hash).map(|e| e.number)
    }

    pub(crate) fn score(&self, hash: BlockHash) -> Option<Score> {
        self.entries.get(&hash).map(|e| e.score)
    }

    pub(crate) fn ancestor_at(&self, hash: BlockHash, number: BlockNumber) -> Option<BlockHash> {
        let mut e = self.entries.get(&hash)?;
        let mut cur = hash;
        if number > e.number {
            return None;
        }
        while e.number > number {
            cur = e.parent;
            e = self.entries.get(&cur)?;
        }
        Some(cur)
    }

    pub(crate) fn insert(
        &mut self,
        hash: BlockHash,
        parent: BlockHash,
        number: BlockNumber,
        miner: PoolId,
        difficulty: u64,
        uncles: &[BlockHash],
    ) -> HeaderInsert {
        if self.entries.contains_key(&hash) {
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
        let mut connected_orphans = Vec::new();
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
        Ok(InsertOutcome::Attached {
            new_head,
            reorg_depth,
            connected_orphans,
        })
    }

    fn attach(
        &mut self,
        hash: BlockHash,
        parent: BlockHash,
        number: BlockNumber,
        miner: PoolId,
        difficulty: u64,
        uncles: &[BlockHash],
    ) -> Result<Option<u64>, InsertError> {
        let Some(p) = self.entries.get(&parent) else {
            return Err(InsertError::UnknownParent { hash, parent });
        };
        self.engine.validate(hash, number, p.number)?;
        let score = self.engine.score(p.score, difficulty, uncles.len());
        if self.entries.contains_key(&hash) {
            return Err(InsertError::Duplicate(hash));
        }
        self.entries.insert(
            hash,
            Entry {
                parent,
                number,
                miner,
                score,
            },
        );
        for &u in uncles {
            self.referenced.entry(u).or_insert(hash);
        }
        if !self
            .engine
            .prefer(score, hash, self.head_score, self.head())
        {
            return Ok(None);
        }
        let replaced = self.switch_head(hash, parent, number);
        self.head_score = score;
        self.reorg_count += u64::from(replaced > 0);
        self.prune();
        Ok(Some(replaced))
    }

    fn switch_head(&mut self, new_head: BlockHash, parent: BlockHash, number: BlockNumber) -> u64 {
        let mut fork = number;
        let mut below = parent;
        while fork > self.base && self.canonical_hash(fork - 1) != Some(below) {
            let Some(e) = self.entries.get(&below) else {
                break;
            };
            below = e.parent;
            fork -= 1;
        }
        let replaced = (self.head_number() + 1).saturating_sub(fork);
        self.canonical.truncate((fork - self.base) as usize);
        self.canonical
            .resize((number + 1 - self.base) as usize, new_head);
        let mut cur = parent;
        for n in (fork..number).rev() {
            self.canonical[(n - self.base) as usize] = cur;
            cur = self.entries[&cur].parent;
        }
        replaced
    }

    fn cutoff(&self) -> Option<BlockNumber> {
        self.head_number().checked_sub(self.window?)
    }

    fn prune(&mut self) {
        let (Some(window), Some(cutoff)) = (self.window, self.cutoff()) else {
            return;
        };
        self.entries.retain(|_, e| e.number > cutoff);
        while self.base <= cutoff {
            self.canonical.pop_front();
            self.base += 1;
        }
        self.orphans.retain(|_, waiting| {
            waiting.retain(|o| o.number > cutoff);
            !waiting.is_empty()
        });
        if self.referenced.len() as u64 > 4 * window {
            let entries = &self.entries;
            self.referenced.retain(|u, _| entries.contains_key(u));
        }
    }

    pub(crate) fn is_valid_uncle(
        &self,
        parent: BlockHash,
        uncle: BlockHash,
        policy: UnclePolicy,
    ) -> bool {
        let (Some(u), Some(p)) = (self.entries.get(&uncle), self.entries.get(&parent)) else {
            return false;
        };
        let new_number = p.number + 1;
        if u.number >= new_number || new_number - u.number > MAX_UNCLE_DEPTH {
            return false;
        }
        if self.referenced.contains_key(&uncle) {
            return false;
        }
        let on_chain = self.ancestor_at(parent, u.number);
        if on_chain == Some(uncle)
            || self.ancestor_at(parent, u.number.saturating_sub(1)) != Some(u.parent)
        {
            return false;
        }
        policy == UnclePolicy::Standard
            || on_chain
                .and_then(|main| self.entries.get(&main))
                .is_none_or(|main| main.miner != u.miner)
    }

    pub(crate) fn select_uncles(&self, parent: BlockHash, policy: UnclePolicy) -> Vec<BlockHash> {
        let mut valid: Vec<(BlockNumber, BlockHash)> = self
            .entries
            .iter()
            .filter(|&(&h, _)| self.is_valid_uncle(parent, h, policy))
            .map(|(&h, e)| (e.number, h))
            .collect();
        valid.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        valid.truncate(MAX_UNCLES);
        valid.into_iter().map(|(_, h)| h).collect()
    }
}

mod differential {
    use proptest::{Strategy, TestRng};

    use super::*;
    use crate::consensus::ConsensusKind;
    use crate::headertree::HeaderTree;

    /// One offered header: `(hash, parent, number, miner, difficulty,
    /// uncles)`.
    type Header = (
        BlockHash,
        BlockHash,
        BlockNumber,
        PoolId,
        u64,
        Vec<BlockHash>,
    );

    /// One step of a stream plan: `(parent pick, miner, uncle pick, uncle
    /// count, delay pick, flaw pick)`.
    type Step = (usize, u16, usize, usize, usize, usize);

    fn genesis() -> BlockHash {
        BlockHash::mix(0)
    }

    /// A random header stream in arrival order. Each step builds on a
    /// highest block (most often), a block near the top, or any block at
    /// all; references up to two earlier headers as uncles; sometimes
    /// claims a wrong height or repeats an earlier header; and is delivered
    /// up to 15 positions late, so children arrive before their parents
    /// and, in a windowed tree, some parents arrive below the horizon.
    fn stream(plan: &[Step]) -> Vec<Header> {
        let mut created: Vec<Header> = Vec::new();
        let mut known: Vec<(BlockHash, BlockNumber)> = vec![(genesis(), 0)];
        let mut arrivals: Vec<(usize, Header)> = Vec::new();
        for (i, &(sel, miner, usel, uncles, delay, flaw)) in plan.iter().enumerate() {
            if flaw == 0 && !created.is_empty() {
                arrivals.push((i, created[sel % created.len()].clone()));
                continue;
            }
            let top = known.iter().map(|&(_, n)| n).max().expect("genesis");
            let pool: Vec<(BlockHash, BlockNumber)> = match sel % 4 {
                0 => known.clone(),
                1 => known
                    .iter()
                    .copied()
                    .filter(|&(_, n)| n + 4 > top)
                    .collect(),
                _ => known.iter().copied().filter(|&(_, n)| n == top).collect(),
            };
            let (parent, pnum) = pool[sel / 4 % pool.len()];
            let number = if flaw == 1 { pnum + 2 } else { pnum + 1 };
            let refs: Vec<BlockHash> = (0..uncles)
                .map(|k| known[(usel + 7 * k) % known.len()].0)
                .collect();
            let hash = BlockHash::mix(1 + i as u64);
            let header = (
                hash,
                parent,
                number,
                PoolId(miner),
                1 + u64::from(miner % 2),
                refs,
            );
            known.push((hash, number));
            created.push(header.clone());
            arrivals.push((i + delay.saturating_sub(6) * 3, header));
        }
        arrivals.sort_by_key(|&(at, _)| at);
        arrivals.into_iter().map(|(_, h)| h).collect()
    }

    /// Feeds `headers` to a slot tree and the reference under `kind` and
    /// `window` and compares them after every arrival.
    fn compare(headers: &[Header], kind: ConsensusKind, window: Option<u64>, case: u32) {
        let mut slots = match window {
            None => HeaderTree::unbounded(genesis(), kind.build()),
            Some(w) => HeaderTree::with_consensus(genesis(), w, kind.build()),
        };
        let mut reference = ReferenceTree::new(genesis(), window, kind.build());
        let mut seen = vec![genesis()];
        for (step, (hash, parent, number, miner, difficulty, uncles)) in headers.iter().enumerate()
        {
            let at = format!("case {case}, {kind}, window {window:?}, step {step}");
            assert_eq!(
                slots.insert(*hash, *parent, *number, *miner, *difficulty, uncles),
                reference.insert(*hash, *parent, *number, *miner, *difficulty, uncles),
                "{at}: outcome"
            );
            seen.push(*hash);
            let head = reference.head();
            assert_eq!(slots.head(), head, "{at}: head");
            assert_eq!(slots.head_number(), reference.head_number(), "{at}");
            assert!(
                slots.canonical().eq(reference.canonical()),
                "{at}: canonical"
            );
            assert_eq!(slots.safe(), reference.safe(), "{at}: safe");
            assert_eq!(slots.finalized(), reference.finalized(), "{at}: finalized");
            assert_eq!(slots.len(), reference.len(), "{at}: len");
            assert_eq!(slots.orphan_count(), reference.orphan_count(), "{at}");
            assert_eq!(slots.reorg_count(), reference.reorg_count(), "{at}");
            // Above a header's own height every ancestor query is `None`
            // before any walk, so one height past the highest suffices.
            let top = reference.head_number().max(*number) + 1;
            for n in 0..=reference.head_number() + 1 {
                assert_eq!(
                    slots.canonical_hash(n),
                    reference.canonical_hash(n),
                    "{at}: canonical hash at {n}"
                );
            }
            for &h in &seen {
                assert_eq!(
                    slots.is_canonical(h),
                    reference.is_canonical(h),
                    "{at}: is {h} canonical"
                );
                assert_eq!(slots.number_of(h), reference.number_of(h), "{at}: {h}");
                assert_eq!(slots.score(h), reference.score(h), "{at}: {h}");
                for n in 0..=top {
                    assert_eq!(
                        slots.ancestor_at(h, n),
                        reference.ancestor_at(h, n),
                        "{at}: ancestor of {h} at {n}"
                    );
                }
            }
            for policy in [UnclePolicy::Standard, UnclePolicy::ForbidSameMinerHeight] {
                for from in [head, *hash] {
                    assert_eq!(
                        slots.select_uncles(from, policy),
                        reference.select_uncles(from, policy),
                        "{at}: uncles for {from} under {policy:?}"
                    );
                    for &u in &seen {
                        assert_eq!(
                            slots.is_valid_uncle(from, u, policy),
                            reference.is_valid_uncle(from, u, policy),
                            "{at}: uncle {u} for {from} under {policy:?}"
                        );
                    }
                }
            }
        }
    }

    /// The slot tree and the hash-keyed reference, fed the same random
    /// streams under every engine, unbounded and windowed down to the
    /// smallest window the uncle depth allows (where freed slots are
    /// reused on nearly every insert), agree after every arrival on the
    /// outcome, the head, the `safe` and `finalized` markers, the canonical
    /// index (whole, per height up to one past the head, and per header
    /// seen), every counter, every ancestor of every header seen at every
    /// height, uncle validity and uncle selection. `PROPTEST_CASES` sets
    /// the number of streams.
    #[test]
    fn slot_tree_matches_the_hash_keyed_reference() {
        let plans = proptest::collection::vec(
            (
                0usize..1000,
                0u16..3,
                0usize..1000,
                0usize..3,
                0usize..12,
                0usize..12,
            ),
            8..64,
        );
        let mut rng = TestRng::deterministic("slot_tree_matches_the_hash_keyed_reference");
        for case in 0..proptest::cases(48) {
            let headers = stream(&plans.sample(&mut rng));
            for kind in ConsensusKind::ALL {
                for window in [None, Some(MAX_UNCLE_DEPTH + 2), Some(16)] {
                    compare(&headers, kind, window, case);
                }
            }
        }
    }
}
