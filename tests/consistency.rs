//! Cross-crate consistency properties: the lightweight per-node
//! `HeaderView` must agree with the authoritative `BlockTree` fork choice,
//! and the fork/sequence analyzers must agree with first principles.

use ethmeter::analysis::sequences::RunFold;
use ethmeter::chain::block::{Block, BlockBuilder};
use ethmeter::chain::forks;
use ethmeter::chain::tree::{BlockTree, InsertOutcome};
use ethmeter::chain::uncles::{UnclePolicy, MAX_UNCLES};
use ethmeter::chain::{ConsensusKind, HeaderTree};
use ethmeter::net::headerview::HeaderView;
use ethmeter::types::{BlockHash, PoolId, SimDuration};
use proptest::prelude::*;

/// Builds a random block-DAG growing plan: each step either extends the
/// current head or forks off a random earlier block.
fn arb_growth_plan() -> impl Strategy<Value = Vec<(usize, u16)>> {
    // (parent selector, miner) per step; parent selector is an index into
    // the list of already-created blocks, modulo its length.
    proptest::collection::vec((0usize..1000, 0u16..4), 1..60)
}

fn build_blocks(plan: &[(usize, u16)]) -> Vec<Block> {
    let tree = BlockTree::new();
    let mut hashes: Vec<(BlockHash, u64)> = vec![(tree.genesis_hash(), 0)];
    let mut blocks = Vec::new();
    for (i, &(sel, miner)) in plan.iter().enumerate() {
        let (parent, pnum) = hashes[sel % hashes.len()];
        let block = BlockBuilder::new(parent, pnum + 1, PoolId(miner))
            .salt(i as u64)
            .build();
        hashes.push((block.hash(), block.number()));
        blocks.push(block);
    }
    blocks
}

proptest! {
    /// Whatever the insertion order and fork structure, the pruned
    /// HeaderView picks the same head as the full BlockTree (given a
    /// window large enough to cover the run).
    #[test]
    fn header_view_agrees_with_block_tree(plan in arb_growth_plan()) {
        let blocks = build_blocks(&plan);
        let mut tree = BlockTree::new();
        let mut view = HeaderView::new(tree.genesis_hash(), 512);
        for b in &blocks {
            let _ = tree.insert(b.clone());
            let _ = view.insert(b.hash(), b.parent(), b.number(), b.miner(), b.header().difficulty(), b.uncles());
        }
        prop_assert_eq!(view.head(), tree.head(), "head mismatch");
        prop_assert_eq!(view.head_number(), tree.head_number());
        // Canonical hashes agree at every covered height.
        for n in 0..=tree.head_number() {
            prop_assert_eq!(view.canonical_hash(n), tree.canonical_hash(n));
        }
    }

    /// Fork extraction partitions exactly the non-canonical blocks.
    #[test]
    fn forks_partition_non_canonical_blocks(plan in arb_growth_plan()) {
        let blocks = build_blocks(&plan);
        let mut tree = BlockTree::new();
        for b in &blocks {
            let _ = tree.insert(b.clone());
        }
        let fork_records = forks::extract_forks(&tree);
        let in_forks: usize = fork_records.iter().map(|f| f.blocks.len()).sum();
        let non_canonical = tree.non_canonical_blocks().count();
        prop_assert_eq!(in_forks, non_canonical);
        // No block appears in two forks.
        let mut seen = std::collections::HashSet::new();
        for f in &fork_records {
            for h in &f.blocks {
                prop_assert!(seen.insert(*h), "block {} in two forks", h);
            }
        }
        // Census adds up.
        let census = forks::census(&tree);
        prop_assert_eq!(census.total() as usize, tree.len() - 1);
    }

    /// The miner sequence length always equals the canonical height, and
    /// run-length extraction is consistent with it.
    #[test]
    fn miner_sequence_consistency(plan in arb_growth_plan()) {
        let blocks = build_blocks(&plan);
        let mut tree = BlockTree::new();
        for b in &blocks {
            let _ = tree.insert(b.clone());
        }
        let seq: Vec<PoolId> = forks::miner_sequence(&tree).collect();
        prop_assert_eq!(seq.len() as u64, tree.head_number());
        let fold: RunFold = seq.iter().copied().collect();
        let report = fold.report(&[], &[], SimDuration::from_secs_f64(13.3));
        prop_assert_eq!(report.total_blocks, seq.len() as u64);
        // Every block sits in exactly one maximal run of its pool.
        for row in &report.pools {
            let in_runs: u64 = row.runs.iter().enumerate().map(|(len, &n)| len as u64 * n).sum();
            prop_assert_eq!(in_runs, row.blocks);
            let mined = seq.iter().filter(|&&p| p == row.pool).count() as u64;
            prop_assert_eq!(row.blocks, mined);
        }
    }

    /// Orphaned arrival orders converge to the same tree as in-order
    /// arrival.
    #[test]
    fn arrival_order_does_not_change_consensus(
        plan in arb_growth_plan(),
        shuffle_seed in 0u64..1000,
    ) {
        let blocks = build_blocks(&plan);
        let mut in_order = BlockTree::new();
        for b in &blocks {
            let out = in_order.insert(b.clone()).expect("valid block");
            let attached = matches!(out, InsertOutcome::Attached { .. });
            prop_assert!(attached);
        }
        // Shuffled arrival (orphan buffering must reconnect everything).
        let mut rng = ethmeter::sim::Xoshiro256::seed_from_u64(shuffle_seed);
        let mut shuffled = blocks.clone();
        rng.shuffle(&mut shuffled);
        let mut out_of_order = BlockTree::new();
        for b in &shuffled {
            let _ = out_of_order.insert(b.clone());
        }
        prop_assert_eq!(out_of_order.len(), in_order.len(), "lost blocks");
        prop_assert_eq!(out_of_order.head_number(), in_order.head_number());
        // Total difficulty of the head is identical (heads may differ only
        // when two chains tie, since first-seen breaks ties).
        prop_assert_eq!(
            out_of_order.score(out_of_order.head()),
            in_order.score(in_order.head())
        );
    }
}

/// The view's window in the differential test: small enough that a
/// 60-block stream prunes, large enough that nothing the stream can do
/// (forks at most [`FORK_BAND`] below the tip, arrivals displaced by at
/// most [`ARRIVAL_CHUNK`] positions) reaches below it.
const DIFF_WINDOW: u64 = 16;
const FORK_BAND: u64 = 4;
const ARRIVAL_CHUNK: usize = 4;

/// A header stream with forks, uncle references and varying difficulty
/// whose every block builds on one of the blocks within [`FORK_BAND`]
/// heights of the highest block so far.
fn build_recent_fork_stream(plan: &[(usize, u16, usize, usize)]) -> Vec<Block> {
    let genesis = BlockTree::new().genesis_hash();
    let mut created: Vec<(BlockHash, u64)> = vec![(genesis, 0)];
    let mut blocks = Vec::new();
    for (i, &(sel, miner, usel, uncles)) in plan.iter().enumerate() {
        let top = created.iter().map(|&(_, n)| n).max().expect("genesis");
        let recent: Vec<(BlockHash, u64)> = created
            .iter()
            .copied()
            .filter(|&(_, n)| n + FORK_BAND > top)
            .collect();
        // Two steps in three extend a highest block, so the chain outgrows
        // the window; the third forks anywhere in the band.
        let tips: Vec<(BlockHash, u64)> =
            recent.iter().copied().filter(|&(_, n)| n == top).collect();
        let pool = if sel % 3 == 0 { &recent } else { &tips };
        let (parent, pnum) = pool[sel / 3 % pool.len()];
        // Referenced uncles come from an earlier arrival chunk, so they are
        // attached before their nephew arrives (a windowed view's sweep of
        // its reference record only keeps references to attached headers).
        let arrived = 1 + i / ARRIVAL_CHUNK * ARRIVAL_CHUNK;
        let citable: Vec<BlockHash> = created[..arrived]
            .iter()
            .filter(|&&(h, n)| n + FORK_BAND > top && h != parent && h != genesis)
            .map(|&(h, _)| h)
            .collect();
        let mut refs: Vec<BlockHash> = Vec::new();
        for k in 0..uncles.min(citable.len()) {
            let u = citable[(usel + k) % citable.len()];
            if !refs.contains(&u) {
                refs.push(u);
            }
        }
        let block = BlockBuilder::new(parent, pnum + 1, PoolId(miner))
            .difficulty(1 + u64::from(miner % 2))
            .uncles(refs)
            .salt(i as u64)
            .build();
        created.push((block.hash(), block.number()));
        blocks.push(block);
    }
    blocks
}

/// The uncle choice spelled out: every candidate `is_valid_uncle` accepts,
/// by (height desc, hash), truncated to `MAX_UNCLES`.
fn reference_uncles(
    chain: &HeaderTree,
    parent: BlockHash,
    candidates: &[(BlockHash, u64)],
    policy: UnclePolicy,
) -> Vec<BlockHash> {
    let mut valid: Vec<(u64, BlockHash)> = candidates
        .iter()
        .filter(|&&(h, _)| chain.is_valid_uncle(parent, h, policy))
        .map(|&(h, number)| (number, h))
        .collect();
    valid.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    valid.truncate(MAX_UNCLES);
    valid.into_iter().map(|(_, h)| h).collect()
}

proptest! {
    /// Differential check of the two consumers of the fork-choice core: a
    /// windowed `HeaderView` (pruning as it goes) and an unpruned
    /// `BlockTree`, fed the same locally shuffled header stream under
    /// every engine, agree after every arrival on the head, the canonical
    /// index inside the window and the uncles a miner on the head would
    /// pick — each chain's pick equal to its `is_valid_uncle` reference —
    /// and both keep `finalized ≤ safe ≤ head` on one chain (the order
    /// check of ethrex's `apply_fork_choice`).
    #[test]
    fn windowed_view_and_unpruned_tree_agree_under_every_engine(
        plan in proptest::collection::vec((0usize..1000, 0u16..4, 0usize..1000, 0usize..3), 60..160),
        shuffle_seed in 0u64..1000,
    ) {
        let mut blocks = build_recent_fork_stream(&plan);
        let mut rng = ethmeter::sim::Xoshiro256::seed_from_u64(shuffle_seed);
        for chunk in blocks.chunks_mut(ARRIVAL_CHUNK) {
            rng.shuffle(chunk);
        }
        for kind in ConsensusKind::ALL {
            let mut tree = BlockTree::with_consensus(kind.build());
            let mut view = HeaderView::with_consensus(tree.genesis_hash(), DIFF_WINDOW, kind.build());
            // Lowest height the view is still required to cover.
            let mut horizon = 0u64;
            for (step, b) in blocks.iter().enumerate() {
                let in_tree = tree.insert(b.clone());
                let in_view = view.insert(
                    b.hash(), b.parent(), b.number(), b.miner(), b.header().difficulty(), b.uncles(),
                );
                prop_assert_eq!(&in_view, &in_tree, "{} step {}: outcome", kind, step);

                let head = tree.head();
                let head_number = tree.head_number();
                prop_assert_eq!(view.head(), head, "{} step {}: head", kind, step);
                prop_assert_eq!(view.head_number(), head_number);
                prop_assert_eq!(view.orphan_count(), tree.orphan_count());
                horizon = horizon.max((head_number + 1).saturating_sub(DIFF_WINDOW));
                for n in horizon..=head_number + 1 {
                    prop_assert_eq!(
                        view.canonical_hash(n), tree.canonical_hash(n),
                        "{} step {}: canonical hash at {}", kind, step, n
                    );
                }
                for seen in &blocks[..=step] {
                    if seen.number() >= horizon {
                        prop_assert_eq!(view.contains(seen.hash()), tree.contains(seen.hash()));
                        prop_assert_eq!(view.is_canonical(seen.hash()), tree.is_canonical(seen.hash()));
                    }
                }
                let seen: Vec<(BlockHash, u64)> = std::iter::once((tree.genesis_hash(), 0))
                    .chain(blocks[..=step].iter().map(|b| (b.hash(), b.number())))
                    .collect();
                for policy in [UnclePolicy::Standard, UnclePolicy::ForbidSameMinerHeight] {
                    prop_assert_eq!(
                        view.select_uncles(head, policy), tree.select_uncles(head, policy),
                        "{} step {}: uncles under {:?}", kind, step, policy
                    );
                    // The walk-once selector is the single-candidate
                    // predicate filtered, ordered and capped, from the head
                    // and from the block that just arrived (a side tip or
                    // an orphan).
                    for (chain, name) in [(&view, "view"), (&*tree, "tree")] {
                        for parent in [head, b.hash()] {
                            let expected = reference_uncles(chain, parent, &seen, policy);
                            prop_assert_eq!(
                                &chain.select_uncles(parent, policy), &expected,
                                "{} step {} {}: select_uncles under {:?}", kind, step, name, policy
                            );
                            prop_assert_eq!(
                                &chain.select_uncles_among(parent, seen.iter().copied(), policy).hashes(),
                                &expected,
                                "{} step {} {}: select_uncles_among under {:?}", kind, step, name, policy
                            );
                        }
                    }
                }

                // finalized ≤ safe ≤ head, all on the head's chain.
                let tree_marks = [tree.finalized(), tree.safe(), head];
                let view_marks = [view.finalized(), view.safe(), view.head()];
                for marks in [tree_marks, view_marks] {
                    let numbers: Vec<u64> = marks
                        .iter()
                        .map(|&m| tree.get(m).expect("markers are attached").number())
                        .collect();
                    prop_assert!(numbers.windows(2).all(|w| w[0] <= w[1]), "{}: {:?}", kind, numbers);
                    for (&m, &n) in marks.iter().zip(&numbers) {
                        prop_assert!(tree.is_canonical(m), "{} step {}: marker off-chain", kind, step);
                        prop_assert_eq!(tree.ancestor_at(head, n), Some(m));
                        prop_assert_eq!(view.number_of(m), Some(n));
                    }
                }
                // The view's markers are the tree's unless pruned away.
                for (v, t) in view_marks.iter().zip(&tree_marks) {
                    let expected = tree.canonical_hash(
                        tree.get(*t).expect("attached").number().max(horizon),
                    );
                    prop_assert_eq!(Some(*v), expected);
                }
            }
            prop_assert!(
                view.len() < tree.len(),
                "{}: the stream never outgrew the window ({} headers)", kind, tree.len()
            );
        }
    }
}

#[test]
fn uncle_selection_agrees_between_tree_and_view() {
    // A fixed fork structure checked against both implementations.
    let mut tree = BlockTree::new();
    let mut view = HeaderView::new(tree.genesis_hash(), 128);
    let g = tree.genesis_hash();
    let mut main = Vec::new();
    let mut parent = g;
    for i in 0..5u64 {
        let b = BlockBuilder::new(parent, i + 1, PoolId(0)).salt(i).build();
        parent = b.hash();
        main.push(b.clone());
        view.insert(
            b.hash(),
            b.parent(),
            b.number(),
            b.miner(),
            b.header().difficulty(),
            &[],
        )
        .expect("main");
        tree.insert(b).expect("main");
    }
    // Forks at heights 2 and 4 by another miner.
    for (h, salt) in [(2u64, 100u64), (4, 101)] {
        let fork_parent = main[(h - 2) as usize].hash();
        let f = BlockBuilder::new(fork_parent, h, PoolId(1))
            .salt(salt)
            .build();
        view.insert(
            f.hash(),
            f.parent(),
            f.number(),
            f.miner(),
            f.header().difficulty(),
            &[],
        )
        .expect("fork");
        tree.insert(f).expect("fork");
    }
    let policy = UnclePolicy::Standard;
    let from_tree = tree.select_uncles(parent, policy);
    let from_view = view.select_uncles(parent, policy);
    assert_eq!(from_tree, from_view);
    assert_eq!(from_tree.len(), 2);
}
