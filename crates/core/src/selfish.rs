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
//!
//! The race's memory follows its fork choice, not its length. Public
//! blocks go into a [`HeaderTree`] that is pruned behind a finality line
//! `L = min(public head height, attacker's base height) −
//! MAX_UNCLE_DEPTH − 1`. Honest blocks only extend the head or the
//! attacker's block tied at head height; attacker blocks only extend its
//! base or its own branch above it; and an uncle sits at most
//! [`MAX_UNCLE_DEPTH`] heights below the block citing it, its parent one
//! lower. So no later insert, uncle check, ancestor walk or reorg reaches
//! height `L`, and a canonical block there is final. Once the line has
//! moved 16 heights (`SETTLE_STEP`), the blocks it passed are credited to
//! the reward fold and their headers and reward inputs freed. Below
//! α = ½ the line trails the head by a few heights and the tree stays a
//! few dozen headers deep however long the race runs; above it the
//! attacker's base stops moving, and the tree keeps every public block
//! above the base.
//!
//! Beside the tree the race keeps one window and no hash map: `live`,
//! every published block above the settled height in height order, with
//! its miner and the uncles it cites. A new block's uncle candidates are
//! the slice of it within [`MAX_UNCLE_DEPTH`] heights below, handed to
//! [`HeaderTree::select_uncles_among`] with their heights, which hands
//! back each pick's height and miner; a settle credits the canonical
//! blocks of the prefix at or below the line and drains it. The tree's
//! canonical index answers the rest: whether the head extends the
//! attacker's tip is one read at the tip's height, and a tie keeps its
//! height beside its hash.

use std::sync::Arc;

use ethmeter_analysis::rewards::{RevenueFold, RevenueReport};
use ethmeter_chain::block::{Block, BlockBuilder};
use ethmeter_chain::headertree::{HeaderTree, InsertOutcome};
use ethmeter_chain::tree::BlockTree;
use ethmeter_chain::uncles::{UnclePolicy, MAX_UNCLES, MAX_UNCLE_DEPTH};
use ethmeter_chain::HeaviestChain;
use ethmeter_mining::{SelfishConfig, SelfishOutcome, SelfishState};
use ethmeter_sim::Xoshiro256;
use ethmeter_types::{BlockHash, BlockNumber, PoolId};

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
    /// Revenue breakdown over the final canonical chain (the same
    /// [`RevenueFold`] full campaigns' revenue analysis uses).
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

/// The uncles a block cites, as the reward fold credits them: each one's
/// depth below the block (1 to [`MAX_UNCLE_DEPTH`]; 0 where the block
/// cites fewer) and its miner. Read when the block is built: by the time
/// the block is final its uncles may be behind the line.
type Cited = [(u8, PoolId); MAX_UNCLES];

/// A block the race mined, with the uncles it cites.
#[derive(Debug, Clone)]
struct Mined {
    block: Block,
    uncles: Cited,
}

/// A published block above the settled height: what crediting it needs,
/// and what citing it as an uncle needs.
#[derive(Debug, Clone, Copy)]
struct Live {
    hash: BlockHash,
    number: BlockNumber,
    miner: PoolId,
    uncles: Cited,
}

/// Heights the finality line moves before the race settles it. A settle
/// walks every live header and reward input once; at every height that
/// walk would cost about a fifth of the race (measured at α 0.3 and 0.45).
const SETTLE_STEP: u64 = 16;

/// The public side of the race: fork choice over the headers above the
/// settled height, what the reward fold needs of those blocks, and the
/// revenue of the blocks already settled.
struct PublicChain {
    tree: HeaderTree,
    /// Every published block above the settled height, in height order
    /// (one height's blocks in publication order): the uncle candidates
    /// of a block are one slice of it, and the blocks a settle credits
    /// are a prefix.
    live: Vec<Live>,
    /// The attacker's released block currently tied at head height, and
    /// that height, if any — the branch point γ steers honest miners
    /// toward.
    tie: Option<(BlockHash, BlockNumber)>,
    /// Canonical heights at or below this are credited and pruned.
    settled: BlockNumber,
    revenue: RevenueFold,
}

impl PublicChain {
    fn new() -> Self {
        let tree = HeaderTree::unbounded(BlockTree::shared_genesis_hash(), Arc::new(HeaviestChain));
        let revenue = RevenueFold::new(tree.consensus().rewards_uncles());
        PublicChain {
            tree,
            live: Vec::new(),
            tie: None,
            settled: 0,
            revenue,
        }
    }

    /// Builds `miner`'s block on `parent` at `number`, citing the uncles
    /// the public chain offers there (none unless `parent` is public).
    fn mine(&self, parent: BlockHash, number: BlockNumber, miner: PoolId, salt: u64) -> Mined {
        let lowest = number.saturating_sub(MAX_UNCLE_DEPTH);
        let from = self.live.partition_point(|b| b.number < lowest);
        let to = from + self.live[from..].partition_point(|b| b.number < number);
        let uncles = self.tree.select_uncles_among(
            parent,
            self.live[from..to].iter().map(|b| (b.hash, b.number)),
            UnclePolicy::Standard,
        );
        let mut cited = Cited::default();
        for (c, u) in cited.iter_mut().zip(uncles.iter()) {
            let depth =
                u8::try_from(number - u.number).expect("uncles sit at most six heights below");
            *c = (depth, u.miner);
        }
        let block = BlockBuilder::new(parent, number, miner)
            .uncles(uncles.hashes())
            .salt(salt)
            .build();
        Mined {
            block,
            uncles: cited,
        }
    }

    /// Inserts released blocks, records them as live and tracks the tie
    /// race.
    fn publish(&mut self, blocks: impl IntoIterator<Item = Mined>) {
        for Mined { block, uncles } in blocks {
            let (hash, number, miner) = (block.hash(), block.number(), block.miner());
            let outcome = self.tree.insert(
                hash,
                block.parent(),
                number,
                miner,
                block.header().difficulty(),
                block.uncles(),
            );
            // Every block extends a public one above the line, so it
            // attaches alone, and is canonical iff it became the head.
            let Ok(InsertOutcome::Attached { new_head, .. }) = outcome else {
                panic!(
                    "block {hash} at height {number} did not attach above the settled height {}: {outcome:?}",
                    self.settled
                );
            };
            let at = self.live.partition_point(|b| b.number <= number);
            self.live.insert(
                at,
                Live {
                    hash,
                    number,
                    miner,
                    uncles,
                },
            );
            // A released attacker block contesting the head height opens
            // (or refreshes) the tie race.
            if !new_head && number == self.tree.head_number() {
                self.tie = Some((hash, number));
            }
        }
    }

    /// Credits the canonical blocks at or below `to` and lets go of every
    /// live block there.
    fn credit_through(&mut self, to: BlockNumber) {
        let passed = self.live.partition_point(|b| b.number <= to);
        for b in self.live.drain(..passed) {
            if self.tree.canonical_hash(b.number) == Some(b.hash) {
                // Race blocks carry no transactions.
                let uncles = b.uncles.iter().filter(|&&(depth, _)| depth > 0);
                let uncles = uncles.map(|&(depth, miner)| (b.number - u64::from(depth), miner));
                self.revenue.credit(b.number, b.miner, 0, uncles);
            }
        }
        self.settled = to;
    }

    /// Computes the finality line from the head and the attacker's base
    /// height `base` (see the module docs); once it is [`SETTLE_STEP`]
    /// heights past the settled height, credits the blocks it passed and
    /// frees them.
    fn settle(&mut self, base: BlockNumber) {
        let line = self
            .tree
            .head_number()
            .min(base)
            .saturating_sub(MAX_UNCLE_DEPTH + 1);
        if line < self.settled + SETTLE_STEP {
            return;
        }
        self.credit_through(line);
        self.tree.prune_through(line);
    }

    /// Credits the rest of the canonical chain and reports the revenue.
    fn finish(mut self, alpha: f64) -> RevenueReport {
        self.credit_through(self.tree.head_number());
        let names = ["Attacker", "Honest network"];
        let shares = [alpha, 1.0 - alpha];
        self.revenue.finish(
            |pool| names[pool.index()].to_owned(),
            |pool| shares[pool.index()],
        )
    }
}

/// Runs the race's draws; returns the public chain, final blocks already
/// credited, and the attacker's machine.
fn race(cfg: &SelfishRaceConfig) -> (PublicChain, SelfishState<Mined>) {
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
    let mut chain = PublicChain::new();
    let mut state: SelfishState<Mined> = SelfishState::new(cfg.behavior, chain.tree.genesis_hash());
    let mut salt = 0u64;

    for _ in 0..cfg.blocks {
        if rng.chance(cfg.alpha) {
            // Attacker wins: mine at the machine's target. Only a block on
            // a public parent can reference uncles.
            let (parent, number) = state.target();
            salt += 1;
            let mined = chain.mine(parent, number, ATTACKER, salt);
            let (outcome, released) = state.on_solve(mined.block.hash(), mined);
            if outcome == SelfishOutcome::Published {
                chain.tie = None; // the race just ended in the attacker's favor
            }
            chain.publish(released);
        } else {
            // Honest network wins. Validate the tie pointer first: it only
            // steers miners while the contested height is still the head
            // height and the attacker's block hasn't already won (at that
            // height, being canonical is being the head).
            let tree = &chain.tree;
            let head_number = tree.head_number();
            if let Some((t, number)) = chain.tie {
                if t == tree.head() || number != head_number {
                    chain.tie = None;
                }
            }
            let parent = match chain.tie {
                Some((t, _)) if rng.chance(cfg.gamma) => t,
                _ => tree.head(),
            };
            // Either way the parent sits at the head height.
            salt += 1;
            let mined = chain.mine(parent, head_number + 1, HONEST, salt);
            chain.publish(std::iter::once(mined));
            // Feed the machine the (possibly new) head at fork-choice
            // time, exactly as the world's gateway hook does. The head's
            // ancestry is the canonical index.
            let tree = &chain.tree;
            let extends_tip = state
                .tip()
                .is_some_and(|(tip, tip_number)| tree.canonical_hash(tip_number) == Some(tip));
            let (_, released) = state.on_public_head(tree.head(), tree.head_number(), extends_tip);
            chain.publish(released);
        }
        chain.settle(state.base().1);
    }
    (chain, state)
}

/// Runs the race (deterministic per config).
///
/// # Panics
///
/// Panics if `alpha` is outside `(0, 1)` or `gamma` outside `[0, 1]`.
pub fn run_selfish_race(cfg: &SelfishRaceConfig) -> SelfishRaceResult {
    let (chain, state) = race(cfg);
    SelfishRaceResult {
        canonical_height: chain.tree.head_number(),
        unreleased: (state.branch_len() - state.released_len()) as u64,
        report: chain.finish(cfg.alpha),
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
    fn live_headers_stay_flat_in_race_length() {
        // Below one half the finality line trails the head, so the tree
        // holds a few dozen headers however long the race runs; one that
        // kept every public block would hold about 100,000 here.
        let (chain, _) = race(&SelfishRaceConfig::new(0.3, 0.5, 100_000, 7));
        assert!(chain.tree.len() < 256, "{} live headers", chain.tree.len());
        assert!(chain.live.len() < 256, "{} live bodies", chain.live.len());
        assert!(chain.settled + 64 > chain.tree.head_number());
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn invalid_alpha_rejected() {
        let _ = run_selfish_race(&SelfishRaceConfig::new(1.5, 0.0, 10, 1));
    }
}

/// The race's and the miner draw's exact results. A speed-up must leave
/// every one of them unchanged; a change to the race's draws, its tree or
/// its reward accounting moves at least one.
#[cfg(test)]
mod pinned {
    use super::*;
    use crate::chainonly::{draw_miners, run_chain_only, ChainOnlyConfig};

    /// FNV-1a: folds `bytes` into the running hash `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `(alpha, gamma, relative revenue bits, canonical height, unreleased,
    /// total blocks, total reward, rows)`, each row `(pool, blocks, uncles,
    /// reward)` in report order.
    type Pin = (f64, f64, u64, u64, u64, u64, u64, [(u16, u64, u64, u64); 2]);

    #[rustfmt::skip]
    const RACES: [Pin; 11] = [
        (0.1, 0.0, 0x3fee_02e4_1f95_1e14, 18_302, 0, 18_302, 39_573_604,
            [(1, 17_628, 322, 35_862_182), (0, 674, 1_345, 3_711_422)]),
        (0.1, 0.5, 0x3fef_55da_01f4_c18b, 18_302, 0, 18_302, 39_576_854,
            [(1, 16_972, 978, 35_701_370), (0, 1_330, 689, 3_875_484)]),
        (0.1, 1.0, 0x3ff0_5d31_e8b8_3d00, 18_302, 0, 18_302, 39_581_104,
            [(1, 16_283, 1_667, 35_532_936), (0, 2_019, 0, 4_048_168)]),
        (0.3, 0.0, 0x3ff1_1e42_bd37_1b22, 15_617, 0, 15_617, 37_084_902,
            [(1, 11_206, 1_716, 25_181_896), (0, 4_411, 1_730, 11_903_006)]),
        (0.3, 0.5, 0x3ff1_5bcb_14b0_3662, 15_617, 0, 15_617, 37_230_132,
            [(1, 10_366, 2_596, 25_112_724), (0, 5_251, 890, 12_117_408)]),
        (0.3, 1.0, 0x3ff1_a817_668e_6ef0, 15_617, 0, 15_617, 37_291_006,
            [(1, 9_476, 3_488, 24_945_394), (0, 6_141, 0, 12_345_612)]),
        (0.45, 0.0, 0x3ff7_2b42_ced2_0c14, 12_328, 0, 12_328, 27_814_980,
            [(1, 3_854, 1_268, 9_689_966), (0, 8_474, 647, 18_125_014)]),
        (0.45, 0.5, 0x3ff7_053c_bf61_3ca9, 12_328, 0, 12_328, 28_129_204,
            [(1, 3_536, 1_763, 9_916_940), (0, 8_792, 329, 18_212_264)]),
        (0.45, 1.0, 0x3ff7_0eef_6af7_8c0b, 12_328, 0, 12_328, 28_216_702,
            [(1, 3_207, 2_096, 9_917_724), (0, 9_121, 0, 18_298_978)]),
        // Above one half the private branch never folds: the attacker's
        // base stops moving and blocks stay withheld at the end.
        (0.55, 0.0, 0x3f89_fcef_efc4_d9c9, 8_822, 2_373, 8_822, 17_659_308,
            [(0, 58, 4, 123_248), (1, 8_764, 5, 17_536_060)]),
        (0.6, 1.0, 0x3ffa_a59a_be34_3c85, 7_836, 4_331, 7_836, 15_675_624,
            [(0, 7_832, 0, 15_664_000), (1, 4, 2, 11_624)]),
    ];

    #[test]
    fn race_values_match_their_pins() {
        for (alpha, gamma, rel, height, unreleased, blocks, reward, rows) in RACES {
            let r = run_selfish_race(&SelfishRaceConfig::new(alpha, gamma, 20_000, 7));
            let at = format!("alpha {alpha}, gamma {gamma}");
            assert_eq!(
                r.relative_revenue().to_bits(),
                rel,
                "{at}: relative revenue"
            );
            assert_eq!(r.canonical_height, height, "{at}: canonical height");
            assert_eq!(r.unreleased, unreleased, "{at}: unreleased");
            assert_eq!(r.report.total_blocks, blocks, "{at}: total blocks");
            assert_eq!(r.report.total_reward, reward, "{at}: total reward");
            assert_eq!(r.report.rows.len(), rows.len(), "{at}: rows");
            for (row, (pool, blocks, uncles, reward)) in r.report.rows.iter().zip(rows) {
                let (name, share) = if pool == ATTACKER.raw() {
                    ("Attacker", alpha)
                } else {
                    ("Honest network", 1.0 - alpha)
                };
                assert_eq!(
                    (row.pool.raw(), row.name.as_str(), row.hash_share.to_bits()),
                    (pool, name, share.to_bits()),
                    "{at}: row identity"
                );
                assert_eq!(
                    (row.blocks, row.uncles, row.reward),
                    (blocks, uncles, reward),
                    "{at}: row of pool {pool}"
                );
            }
        }
    }

    #[test]
    fn month_sequence_matches_its_pin() {
        // FNV-1a over the little-endian pool ids, as they are drawn.
        let (mut len, mut fnv) = (0u64, 0xcbf2_9ce4_8422_2325u64);
        draw_miners(&ChainOnlyConfig::paper_month(7), |pool| {
            len += 1;
            fnv = fnv1a(fnv, &pool.raw().to_le_bytes());
        });
        assert_eq!(len, 201_086);
        assert_eq!(fnv, 0x5ce1_89a3_61e3_c6a1);
    }

    #[test]
    fn whole_chain_sequence_matches_its_pin() {
        let report = run_chain_only(&ChainOnlyConfig::paper_whole_chain(7));
        assert_eq!(report.total_blocks, 7_700_000);
        // FNV-1a over the rendered report, then over every row's pool id,
        // block count and whole run-length histogram (the rendering shows
        // only the eight largest pools' longest runs).
        let mut bytes = report.to_string().into_bytes();
        for row in &report.pools {
            bytes.extend(row.pool.raw().to_le_bytes());
            for n in std::iter::once(row.blocks).chain(row.runs.iter().copied()) {
                bytes.extend(n.to_le_bytes());
            }
        }
        assert_eq!(fnv1a(0xcbf2_9ce4_8422_2325, &bytes), 0xcb28_aab7_70bf_4144);
    }
}
