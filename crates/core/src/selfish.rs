//! The chain-only selfish-mining race: profitability without a network.
//!
//! The full [`crate::world::SimWorld`] runs the selfish machine against a
//! real gossip fabric, where the tie-win fraction γ *emerges* from
//! gateway placement. Profitability-threshold curves, however, need tens
//! of thousands of blocks per (α, γ) cell to resolve a crossing — at that
//! scale the network layer is unaffordable and γ must be controlled, not
//! emergent. This runner is the [`crate::chainonly`] counterpart for
//! adversarial mining: block wins are Bernoulli draws by hash power, the
//! attacker drives the *same* [`SelfishState`] machine the world uses,
//! honest miners split tie races by an explicit γ, and both sides
//! reference uncles under the standard rules — reproducing the uncle-
//! aware profitability analysis of Niu & Feng (2019).

use ethmeter_analysis::rewards::{self, RevenueReport};
use ethmeter_chain::block::{Block, BlockBuilder};
use ethmeter_chain::tree::BlockTree;
use ethmeter_chain::uncles::{UnclePolicy, MAX_UNCLES, MAX_UNCLE_DEPTH};
use ethmeter_measure::{CampaignData, GroundTruth};
use ethmeter_mining::{SelfishConfig, SelfishOutcome, SelfishState};
use ethmeter_sim::Xoshiro256;
use ethmeter_types::{BlockHash, FxHashMap, PoolId, SimDuration};

/// The attacker's pool id in race results.
pub const ATTACKER: PoolId = PoolId(0);
/// The aggregated honest network's pool id in race results.
pub const HONEST: PoolId = PoolId(1);

/// Configuration of one chain-only selfish-mining race.
#[derive(Debug, Clone)]
pub struct SelfishRaceConfig {
    /// Attacker hash-power share, in `(0, 1)`.
    pub alpha: f64,
    /// Fraction of honest hash power that mines on the attacker's block
    /// during a tie race, in `[0, 1]`.
    pub gamma: f64,
    /// PoW wins to simulate (attacker + honest together).
    pub blocks: u64,
    /// Seed.
    pub seed: u64,
    /// The withholding machine's parameters.
    pub behavior: SelfishConfig,
}

impl SelfishRaceConfig {
    /// A classic-machine race at the given attacker share and tie-win
    /// fraction.
    pub fn new(alpha: f64, gamma: f64, blocks: u64, seed: u64) -> Self {
        SelfishRaceConfig {
            alpha,
            gamma,
            blocks,
            seed,
            behavior: SelfishConfig::classic(),
        }
    }
}

/// The outcome of one race.
#[derive(Debug, Clone)]
pub struct SelfishRaceResult {
    /// Revenue breakdown over the final public tree (the same
    /// [`rewards`] pipeline full campaigns use).
    pub report: RevenueReport,
    /// Height of the canonical chain at the end.
    pub canonical_height: u64,
    /// Blocks the attacker still held back when the race ended.
    pub unreleased: u64,
    /// Attacker share the race ran at.
    pub alpha: f64,
    /// Tie-win fraction the race ran at.
    pub gamma: f64,
}

impl SelfishRaceResult {
    /// The attacker's relative revenue gain (revenue share ÷ α).
    /// `> 1` means withholding beat honest mining.
    pub fn relative_revenue(&self) -> f64 {
        self.report.relative_revenue(ATTACKER)
    }
}

/// Selects up to [`MAX_UNCLES`] referenceable uncles for a block
/// extending `parent`, from the windowed candidate list (recent-first,
/// hash tie-break — the same order miners use elsewhere).
fn pick_uncles(tree: &BlockTree, recent: &[BlockHash], parent: BlockHash) -> Vec<BlockHash> {
    let mut picked: Vec<(u64, BlockHash)> = recent
        .iter()
        .filter(|&&h| tree.is_valid_uncle(parent, h, UnclePolicy::Standard))
        .map(|&h| (tree.get(h).expect("candidates are attached").number(), h))
        .collect();
    picked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    picked.truncate(MAX_UNCLES);
    picked.into_iter().map(|(_, h)| h).collect()
}

/// Runs the race (deterministic per config).
///
/// # Panics
///
/// Panics if `alpha` is outside `(0, 1)` or `gamma` outside `[0, 1]`.
pub fn run_selfish_race(cfg: &SelfishRaceConfig) -> SelfishRaceResult {
    assert!(
        cfg.alpha > 0.0 && cfg.alpha < 1.0,
        "alpha must be in (0, 1), got {}",
        cfg.alpha
    );
    assert!(
        (0.0..=1.0).contains(&cfg.gamma),
        "gamma must be in [0, 1], got {}",
        cfg.gamma
    );
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let mut tree = BlockTree::new();
    let mut state: SelfishState<Block> = SelfishState::new(cfg.behavior, tree.genesis_hash());
    let mut salt = 0u64;
    // Uncle candidates: every public block still inside the depth window.
    let mut recent: Vec<BlockHash> = Vec::new();
    // The attacker's released block currently tied at head height, if any
    // — the branch point γ steers honest miners toward.
    let mut tie: Option<BlockHash> = None;

    let publish = |tree: &mut BlockTree,
                   recent: &mut Vec<BlockHash>,
                   tie: &mut Option<BlockHash>,
                   blocks: Vec<Block>| {
        for block in blocks {
            let hash = block.hash();
            let number = block.number();
            let _ = tree.insert(block);
            recent.push(hash);
            // A released attacker block contesting the head height opens
            // (or refreshes) the tie race.
            if number == tree.head_number() && !tree.is_canonical(hash) {
                *tie = Some(hash);
            }
        }
        // Window the candidate list so uncle scans stay O(1).
        if recent.len() > 4 * MAX_UNCLE_DEPTH as usize {
            let head = tree.head_number();
            let min = head.saturating_sub(MAX_UNCLE_DEPTH + 1);
            recent.retain(|h| tree.get(*h).is_some_and(|b| b.number() >= min));
        }
    };

    for _ in 0..cfg.blocks {
        if rng.chance(cfg.alpha) {
            // Attacker wins: mine at the machine's target. Only a block on
            // a public parent can reference uncles.
            let (parent, number) = state.target();
            let uncles = if tree.contains(parent) {
                pick_uncles(&tree, &recent, parent)
            } else {
                Vec::new()
            };
            salt += 1;
            let block = BlockBuilder::new(parent, number, ATTACKER)
                .uncles(uncles)
                .salt(salt)
                .build();
            let (outcome, released) = state.on_solve(block.hash(), block);
            if outcome == SelfishOutcome::Published {
                tie = None; // the race just ended in the attacker's favor
            }
            publish(&mut tree, &mut recent, &mut tie, released);
        } else {
            // Honest network wins. Validate the tie pointer first: it only
            // steers miners while the contested height is still the head
            // height and the attacker's block hasn't already won.
            if let Some(t) = tie {
                let live = tree
                    .get(t)
                    .is_some_and(|b| b.number() == tree.head_number())
                    && !tree.is_canonical(t);
                if !live {
                    tie = None;
                }
            }
            let parent = match tie {
                Some(t) if rng.chance(cfg.gamma) => t,
                _ => tree.head(),
            };
            let number = tree.get(parent).expect("parent is public").number() + 1;
            let uncles = pick_uncles(&tree, &recent, parent);
            salt += 1;
            let block = BlockBuilder::new(parent, number, HONEST)
                .uncles(uncles)
                .salt(salt)
                .build();
            publish(&mut tree, &mut recent, &mut tie, vec![block]);
            // Feed the machine the (possibly new) head at fork-choice
            // time, exactly as the world's gateway hook does.
            let head = tree.head();
            let head_number = tree.head_number();
            let extends_tip = state.tip().is_some_and(|(tip, tip_number)| {
                head_number >= tip_number && tree.ancestor_at(head, tip_number) == Some(tip)
            });
            let (_, released) = state.on_public_head(head, head_number, extends_tip);
            publish(&mut tree, &mut recent, &mut tie, released);
        }
    }

    let unreleased = (state.branch_len() - state.released_len()) as u64;
    let canonical_height = tree.head_number();
    let data = CampaignData {
        observers: Vec::new(),
        truth: GroundTruth {
            tree,
            txs: FxHashMap::default(),
            pool_names: vec!["Attacker".to_owned(), "Honest network".to_owned()],
            pool_shares: vec![cfg.alpha, 1.0 - cfg.alpha],
            interblock: SimDuration::from_secs_f64(13.3),
            duration: SimDuration::from_secs_f64(13.3) * cfg.blocks,
        },
    };
    SelfishRaceResult {
        report: rewards::analyze(&data),
        canonical_height,
        unreleased,
        alpha: cfg.alpha,
        gamma: cfg.gamma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn race_is_deterministic() {
        let cfg = SelfishRaceConfig::new(0.3, 0.5, 2_000, 7);
        let a = run_selfish_race(&cfg);
        let b = run_selfish_race(&cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(a.canonical_height, b.canonical_height);
        let c = run_selfish_race(&SelfishRaceConfig::new(0.3, 0.5, 2_000, 8));
        assert_ne!(a.report, c.report, "seeds must diverge");
    }

    #[test]
    fn weak_attacker_loses_revenue() {
        // At α = 0.1 with no tie support, withholding must not pay.
        let r = run_selfish_race(&SelfishRaceConfig::new(0.1, 0.0, 20_000, 1));
        assert!(
            r.relative_revenue() < 1.0,
            "rel {} should be < 1",
            r.relative_revenue()
        );
        // The honest side keeps roughly its fair share.
        let honest = r.report.relative_revenue(HONEST);
        assert!(honest > 1.0, "honest rel {honest}");
    }

    #[test]
    fn strong_attacker_profits() {
        // At α = 0.45 with full tie support, withholding clearly pays.
        let r = run_selfish_race(&SelfishRaceConfig::new(0.45, 1.0, 20_000, 1));
        assert!(
            r.relative_revenue() > 1.0,
            "rel {} should be > 1",
            r.relative_revenue()
        );
    }

    #[test]
    fn gamma_helps_the_attacker() {
        let lo = run_selfish_race(&SelfishRaceConfig::new(0.3, 0.0, 30_000, 3));
        let hi = run_selfish_race(&SelfishRaceConfig::new(0.3, 1.0, 30_000, 3));
        assert!(
            hi.relative_revenue() > lo.relative_revenue(),
            "γ=1 ({}) must beat γ=0 ({})",
            hi.relative_revenue(),
            lo.relative_revenue()
        );
    }

    #[test]
    fn uncles_are_harvested() {
        // A mid-strength attacker orphans blocks on both sides; the uncle
        // channel must be active (that is the Ethereum twist).
        let r = run_selfish_race(&SelfishRaceConfig::new(0.3, 0.5, 20_000, 2));
        let attacker = r.report.row(ATTACKER).expect("attacker earned");
        let honest = r.report.row(HONEST).expect("honest earned");
        assert!(attacker.uncles > 0, "attacker losers become uncles");
        assert!(honest.uncles > 0, "overridden honest blocks become uncles");
        // Chain accounting stays coherent.
        assert!(r.canonical_height > 0);
        assert_eq!(r.report.total_blocks, r.canonical_height);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn invalid_alpha_rejected() {
        let _ = run_selfish_race(&SelfishRaceConfig::new(1.5, 0.0, 10, 1));
    }
}
