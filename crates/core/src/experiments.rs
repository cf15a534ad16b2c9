//! One entry point per table/figure — shared by the examples, the
//! repository benchmark, and the `repro` binary.

use std::fmt;

use ethmeter_analysis::commit::{CommitReport, OrderingReport};
use ethmeter_analysis::decentralization::DecentralizationReport;
use ethmeter_analysis::empty_blocks::EmptyBlockReport;
use ethmeter_analysis::first_observation::{GeoReport, PoolReport};
use ethmeter_analysis::forks::ForkReport;
use ethmeter_analysis::propagation::PropagationReport;
use ethmeter_analysis::redundancy::{RedundancyError, RedundancyReport};
use ethmeter_analysis::sequences::SequenceReport;
use ethmeter_analysis::{
    commit, decentralization, empty_blocks, first_observation, forks, propagation, redundancy,
    sequences,
};
use ethmeter_chain::consensus::ConsensusKind;
use ethmeter_chain::rewards::MilliEther;
use ethmeter_chain::uncles::UnclePolicy;
use ethmeter_measure::CampaignData;
use ethmeter_stats::table::{grouped, pct, Table};

use ethmeter_analysis::reorg::{self, ReorgReport};
use ethmeter_analysis::rewards;
use ethmeter_dynamics::{DynamicsScript, RegionMask};
use ethmeter_mining::{PoolBehavior, PoolConfig, PoolDirectory, SelfishConfig, Strategy};
use ethmeter_types::{BlockHash, FxHashSet, PoolId, Region, SimDuration, SimTime};

use crate::chainonly::{run_chain_only, ChainOnlyConfig};
use crate::grid::Grid;
use crate::metric::Scalars;
use crate::report::GridReport;
use crate::runner::run_campaign;
use crate::scenario::Scenario;
use crate::selfish::{run_selfish_race, SelfishRaceConfig};

/// Every campaign-derived report in one bundle.
#[derive(Debug)]
pub struct Suite {
    /// Figure 1.
    pub fig1: PropagationReport,
    /// Table II (absent when the campaign has no default-peers observer).
    pub table2: Result<RedundancyReport, RedundancyError>,
    /// Figure 2.
    pub fig2: GeoReport,
    /// Figure 3.
    pub fig3: PoolReport,
    /// Figure 4.
    pub fig4: CommitReport,
    /// Figure 5.
    pub fig5: OrderingReport,
    /// Figure 6.
    pub fig6: EmptyBlockReport,
    /// Table III + §III-C5.
    pub table3: ForkReport,
    /// Figure 7 over the campaign's own (short) chain.
    pub fig7: SequenceReport,
    /// Nakamoto / Gini / HHI over hash power, block production, first
    /// observation, and revenue.
    pub decentralization: DecentralizationReport,
}

impl Suite {
    /// Runs every analyzer over one campaign.
    pub fn from_campaign(data: &CampaignData) -> Suite {
        Suite {
            fig1: propagation::analyze(data),
            table2: redundancy::analyze(data),
            fig2: first_observation::geo(data),
            fig3: first_observation::by_pool(data, 15),
            fig4: commit::analyze(data),
            fig5: commit::ordering(data),
            fig6: empty_blocks::analyze(data, 15),
            table3: forks::analyze(data),
            fig7: sequences::analyze(data),
            decentralization: decentralization::analyze(data),
        }
    }
}

/// The standard headline-statistics probe set for cross-seed grids: one
/// column per figure family, each a per-run scalar that the grid
/// aggregates into mean ± stddev (and percentile-of-percentiles spread)
/// per grid point.
///
/// Columns: `prop_median_ms` / `prop_p95_ms` (Figure 1), `fork_rate`
/// (Table III), `empty_fraction` (Figure 6), `commit12_median_s`
/// (Figure 4; 0 when no transaction reached 12 confirmations).
pub fn headline_scalars() -> Scalars {
    Scalars::new()
        .columns(["prop_median_ms", "prop_p95_ms"], |_, o| {
            let delays = propagation::analyze(&o.campaign).delays;
            if delays.is_empty() {
                vec![0.0, 0.0]
            } else {
                vec![delays.median(), delays.quantile(0.95)]
            }
        })
        .column("fork_rate", |_, o| {
            let c = forks::analyze(&o.campaign).census;
            (c.recognized_uncles + c.unrecognized) as f64 / c.total().max(1) as f64
        })
        .column("empty_fraction", |_, o| {
            empty_blocks::analyze(&o.campaign, usize::MAX).empty_fraction()
        })
        .column("commit12_median_s", |_, o| {
            commit::analyze(&o.campaign)
                .median_commit_12()
                .unwrap_or(0.0)
        })
}

/// The decentralization probe set for cross-seed grids: Nakamoto
/// coefficient, Gini, and HHI over hash power, first-observation share,
/// and revenue share — nine streaming scalar columns, one
/// [`ethmeter_analysis::decentralization`] pass per run.
// detlint::allow(unread-pub, reason = "library API: the cross-seed decentralization recipe in EXPERIMENTS.md runs a Grid over it; tests/golden.rs pins its report digest")
pub fn decentralization_scalars() -> Scalars {
    let names = [
        "nakamoto_hash",
        "gini_hash",
        "hhi_hash",
        "nakamoto_first_obs",
        "gini_first_obs",
        "hhi_first_obs",
        "nakamoto_revenue",
        "gini_revenue",
        "hhi_revenue",
    ];
    Scalars::new().columns(names, |_, o| {
        let r = decentralization::analyze(&o.campaign);
        [&r.hash_power, &r.first_observation, &r.revenue]
            .into_iter()
            .flat_map(|c| [f64::from(c.nakamoto), c.gini, c.hhi])
            .collect()
    })
}

/// Runs a seeds-only grid over `base` and returns the aggregated
/// headline table — the one-call generator behind EXPERIMENTS.md's
/// cross-seed rows. Memory stays ~flat in `seeds`: each campaign is
/// reduced to five scalars as it completes.
// detlint::allow(unread-pub, reason = "library API: EXPERIMENTS.md's cross-seed recipe calls it")
pub fn cross_seed_report(
    base: &Scenario,
    first_seed: u64,
    seeds: usize,
    threads: usize,
) -> GridReport {
    Grid::new(base.clone())
        .seed_range(first_seed, seeds)
        .threads(threads)
        .run(headline_scalars())
        .output
}

/// Figure 7 at the paper's exact scale: 201,086 blocks.
pub fn fig7_month(seed: u64) -> SequenceReport {
    run_chain_only(&ChainOnlyConfig::paper_month(seed)).report()
}

/// §III-D whole-chain scan (7.7M blocks): the 10/11/12/14-run regime.
pub fn security_whole_chain(seed: u64) -> SequenceReport {
    run_chain_only(&ChainOnlyConfig::paper_whole_chain(seed)).report()
}

/// Table I: the measurement-deployment description.
pub fn table1(data: &CampaignData) -> String {
    let mut t = Table::new(vec!["Location", "Peers", "Bandwidth", "Role"]);
    for (v, _) in &data.observers {
        t.row(vec![
            v.name.clone(),
            v.peer_target.to_string(),
            "10 Gbps (backbone)".into(),
            if v.default_peers {
                "redundancy (Table II)".into()
            } else {
                "main campaign".into()
            },
        ]);
    }
    format!("Table I — measurement infrastructure\n{t}")
}

/// The §V ablation: standard uncle rules vs. forbidding same-miner
/// same-height uncles.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// `(policy label, duplicates produced, duplicates recognized,
    /// duplicate uncle rewards in milli-ether, fork blocks, total blocks)`
    pub arms: Vec<AblationArm>,
}

/// One policy arm of the ablation.
#[derive(Debug, Clone)]
pub struct AblationArm {
    /// Policy under test.
    pub policy: UnclePolicy,
    /// One-miner duplicate blocks produced.
    pub duplicates: u64,
    /// Duplicates referenced as an uncle by some block.
    pub duplicates_recognized: u64,
    /// Uncle rewards collected by duplicates through canonical blocks
    /// (milli-ether; 0 under an engine whose uncles do not pay).
    pub duplicate_rewards: MilliEther,
    /// Non-canonical blocks (wasted work).
    pub fork_blocks: u64,
    /// Canonical blocks.
    pub main_blocks: u64,
}

impl AblationArm {
    /// Fraction of total produced work that went to forks.
    pub fn wasted_fraction(&self) -> f64 {
        self.fork_blocks as f64 / (self.fork_blocks + self.main_blocks).max(1) as f64
    }
}

/// Runs the uncle-policy ablation: the same seeded scenario under both
/// policies (applied network-wide, as the §V protocol change would be).
pub fn ablation_uncle_policy(base: &Scenario) -> AblationReport {
    let mut arms = Vec::new();
    for policy in [UnclePolicy::Standard, UnclePolicy::ForbidSameMinerHeight] {
        let mut scenario = base.clone();
        let mut pools = scenario.pools.clone();
        for i in 0..pools.len() {
            let p = pools.pool_mut(ethmeter_types::PoolId(i as u16));
            p.strategy = p.strategy.with_uncle_policy(policy);
        }
        scenario.pools = pools;
        let outcome = run_campaign(&scenario);
        let tree = &outcome.campaign.truth.tree;
        let groups = ethmeter_chain::forks::one_miner_groups(tree);
        let mut duplicates = 0u64;
        let mut recognized = 0u64;
        let mut duplicate_blocks: FxHashSet<BlockHash> = FxHashSet::default();
        for g in &groups {
            duplicates += g.duplicates;
            recognized += g.recognized_duplicates;
            duplicate_blocks.extend(g.blocks.iter().filter(|&&h| !tree.is_canonical(h)));
        }
        // A duplicate earns only through the canonical block that
        // references it, and only under an engine whose uncles pay.
        let fold = rewards::RevenueFold::new(tree.consensus().rewards_uncles());
        let mut rewards: MilliEther = 0;
        for nephew in tree.canonical_blocks() {
            for uncle in nephew
                .uncles()
                .iter()
                .filter(|u| duplicate_blocks.contains(*u))
            {
                let credit = tree
                    .get(*uncle)
                    .and_then(|u| fold.uncle_credit(nephew.number(), u.number()));
                rewards += credit.unwrap_or(0);
            }
        }
        let census = ethmeter_chain::forks::census(tree);
        arms.push(AblationArm {
            policy,
            duplicates,
            duplicates_recognized: recognized,
            duplicate_rewards: rewards,
            fork_blocks: census.recognized_uncles + census.unrecognized,
            main_blocks: census.main,
        });
    }
    AblationReport { arms }
}

/// The Niu–Feng profitability surface: mean attacker relative-revenue
/// gain per (γ, α) cell of a chain-only selfish-mining grid.
#[derive(Debug, Clone)]
pub struct SelfishThresholdReport {
    /// The α axis (attacker hash share), ascending.
    pub alphas: Vec<f64>,
    /// The γ axis (tie-win fraction), ascending.
    pub gammas: Vec<f64>,
    /// Seeds averaged per cell.
    pub seeds: usize,
    /// PoW wins simulated per run.
    pub blocks: u64,
    /// `gain[g][a]`: mean relative revenue of the attacker at
    /// `gammas[g]`, `alphas[a]` — `> 1` means withholding pays.
    pub gain: Vec<Vec<f64>>,
}

impl SelfishThresholdReport {
    /// The profitability threshold for one γ row: the smallest α at
    /// which the gain reaches 1.0, linearly interpolated between grid
    /// points (the first grid α if the whole row is already profitable;
    /// `None` if the row never crosses).
    pub fn threshold(&self, gamma_index: usize) -> Option<f64> {
        let row = &self.gain[gamma_index];
        if row[0] >= 1.0 {
            return Some(self.alphas[0]);
        }
        for i in 1..row.len() {
            if row[i] >= 1.0 {
                let (a0, a1) = (self.alphas[i - 1], self.alphas[i]);
                let (g0, g1) = (row[i - 1], row[i]);
                return Some(a0 + (a1 - a0) * (1.0 - g0) / (g1 - g0));
            }
        }
        None
    }

    /// Machine-readable form (schema `ethmeter-selfish-threshold/v1`),
    /// consumed by the CI repro-smoke gate.
    pub fn to_json(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let gain = self
            .gain
            .iter()
            .map(|row| format!("[{}]", list(row)))
            .collect::<Vec<_>>()
            .join(",");
        let thresholds = (0..self.gammas.len())
            .map(|g| match self.threshold(g) {
                Some(t) => format!("{t}"),
                None => "null".to_owned(),
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"ethmeter-selfish-threshold/v1\",\"alphas\":[{}],\
             \"gammas\":[{}],\"seeds\":{},\"blocks\":{},\"gain\":[{}],\
             \"thresholds\":[{}]}}",
            list(&self.alphas),
            list(&self.gammas),
            self.seeds,
            self.blocks,
            gain,
            thresholds
        )
    }
}

impl fmt::Display for SelfishThresholdReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Selfish-mining profitability — relative revenue gain \
             ({} blocks × {} seeds per cell; gain > 1 means withholding pays)",
            self.blocks, self.seeds
        )?;
        let mut header = vec!["gamma \\ alpha".to_owned()];
        header.extend(self.alphas.iter().map(|a| format!("{a:.2}")));
        header.push("threshold".to_owned());
        let mut t = Table::new(header);
        for (g, row) in self.gain.iter().enumerate() {
            let mut cells = vec![format!("{:.2}", self.gammas[g])];
            cells.extend(row.iter().map(|x| format!("{x:.3}")));
            cells.push(match self.threshold(g) {
                Some(thr) => format!("{thr:.3}"),
                None => "—".to_owned(),
            });
            t.row(cells);
        }
        write!(f, "{t}")
    }
}

/// Runs the chain-only α × γ × seed grid behind
/// [`SelfishThresholdReport`]. Cells are independent deterministic
/// races (see [`crate::selfish`]) fanned over worker threads the same
/// way [`Grid`] fans campaigns — each cell's value is a pure function
/// of its own seeds, so the result is identical at any thread count.
/// The γ-dependence of the threshold is what the full-network
/// simulation realizes through gateway placement.
///
/// # Panics
///
/// Panics if either axis is empty or `seeds` is 0 (and propagates the
/// race's own α/γ range checks).
pub fn selfish_threshold(
    alphas: &[f64],
    gammas: &[f64],
    first_seed: u64,
    seeds: usize,
    blocks: u64,
) -> SelfishThresholdReport {
    assert!(
        !alphas.is_empty() && !gammas.is_empty() && seeds > 0,
        "selfish_threshold needs non-empty axes and at least one seed"
    );
    let cells = gammas.len() * alphas.len();
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(cells);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut gain = vec![vec![0.0; alphas.len()]; gammas.len()];
    std::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let cell = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if cell >= cells {
                            break;
                        }
                        let (g, a) = (cell / alphas.len(), cell % alphas.len());
                        let mut sum = 0.0;
                        for s in 0..seeds as u64 {
                            let cfg = SelfishRaceConfig::new(
                                alphas[a],
                                gammas[g],
                                blocks,
                                first_seed + s,
                            );
                            sum += run_selfish_race(&cfg).relative_revenue();
                        }
                        mine.push((g, a, sum / seeds as f64));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (g, a, value) in handle.join().expect("threshold worker panicked") {
                gain[g][a] = value;
            }
        }
    });
    SelfishThresholdReport {
        alphas: alphas.to_vec(),
        gammas: gammas.to_vec(),
        seeds,
        blocks,
        gain,
    }
}

/// The revenue probe set for adversarial grids: the attacker pool's
/// revenue share, relative revenue gain, and withholding activity as
/// cross-seed scalar columns (composable with any [`Grid`] axis).
pub fn revenue_scalars(pool: PoolId) -> Scalars {
    Scalars::new()
        .columns(["rev_share", "rel_revenue"], move |_, o| {
            let r = rewards::analyze(&o.campaign);
            vec![
                r.row(pool)
                    .map_or(0.0, |row| row.revenue_share(r.total_reward)),
                r.relative_revenue(pool),
            ]
        })
        .column("withheld", |_, o| o.stats.blocks_withheld as f64)
        .column("released", |_, o| o.stats.blocks_released as f64)
}

/// The attacker's current knobs in a directory whose pool 0 is the
/// attacker: `(gateway count, selfish config)`. Falls back to one
/// gateway / the classic machine when the base directory isn't
/// attacker-shaped, so `selfish_sim_grid` works from any base scenario.
fn attacker_knobs(pools: &PoolDirectory) -> (usize, SelfishConfig) {
    let attacker = pools.pool(PoolId(0));
    let cfg = match attacker.behavior {
        ethmeter_mining::PoolBehavior::Selfish(cfg) => cfg,
        ethmeter_mining::PoolBehavior::Honest => SelfishConfig::classic(),
    };
    (attacker.gateway_count.max(1), cfg)
}

/// A full-network adversarial grid: attacker hash share × attacker
/// gateway count (the emergent-γ lever — better-connected attackers win
/// more tie races) × seeds, reduced to the [`revenue_scalars`] columns.
/// This is the simulation-side companion of [`selfish_threshold`]: same
/// machine, γ realized by placement instead of dialed in.
///
/// Each axis rebuilds the directory through
/// [`PoolDirectory::attacker_vs_honest`] while keeping the other axis's
/// value and the base scenario's [`SelfishConfig`] (e.g. a stubborn
/// variant), so every cell equals a directly constructed directory —
/// in particular, the gateway axis re-spreads gateways across regions
/// rather than stacking them into the previous placement.
pub fn selfish_sim_grid(
    base: &Scenario,
    alphas: &[f64],
    gateways: &[usize],
    first_seed: u64,
    seeds: usize,
    threads: usize,
) -> GridReport {
    Grid::new(base.clone())
        .seed_range(first_seed, seeds)
        .axis("alpha", alphas.to_vec(), |s, &alpha| {
            let (gw, cfg) = attacker_knobs(&s.pools);
            s.pools = PoolDirectory::attacker_vs_honest(alpha, gw, cfg);
        })
        .axis("gateways", gateways.to_vec(), |s, &g| {
            let alpha = s.pools.pool(PoolId(0)).share;
            let (_, cfg) = attacker_knobs(&s.pools);
            s.pools = PoolDirectory::attacker_vs_honest(alpha, g, cfg);
        })
        .threads(threads)
        .run(revenue_scalars(PoolId(0)))
        .output
}

// ---- Protocol design: pluggable fork choice (EXPERIMENTS.md §protocol) ----

/// One consensus engine's verdict on a shared campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkChoiceArm {
    /// Engine name (`Consensus::name`).
    pub engine: String,
    /// Canonical head after replaying every minted block.
    pub head: BlockHash,
    /// Height of that head.
    pub head_number: u64,
    /// Reorgs the ground-truth replay performed under this engine.
    pub reorgs: u64,
    /// Safe marker (head minus the engine's safe depth).
    pub safe: BlockHash,
    /// Finalized marker (head minus the engine's finalized depth).
    pub finalized: BlockHash,
}

/// The same scenario re-run under every [`ConsensusKind`]: identical
/// mining and gossip randomness per arm (same seed), so any divergence
/// in the canonical head is attributable to the fork-choice rule alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkChoiceReport {
    /// Label of the scenario preset the arms share.
    pub preset: String,
    /// The shared seed.
    pub seed: u64,
    /// One row per engine, in [`ConsensusKind::ALL`] order.
    pub arms: Vec<ForkChoiceArm>,
}

impl ForkChoiceReport {
    /// `true` when at least two engines disagree on the canonical head —
    /// the observable payoff of a pluggable fork choice.
    pub fn distinct_heads(&self) -> bool {
        self.arms.iter().any(|a| a.head != self.arms[0].head)
    }

    /// Machine-readable export (`ethmeter-forkchoice/v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"schema\":\"ethmeter-forkchoice/v1\"");
        s.push_str(&format!(",\"preset\":\"{}\"", self.preset));
        s.push_str(&format!(",\"seed\":{}", self.seed));
        s.push_str(",\"engines\":[");
        for (i, a) in self.arms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"head\":\"{}\",\"head_number\":{},\
                 \"reorgs\":{},\"safe\":\"{}\",\"finalized\":\"{}\"}}",
                a.engine, a.head, a.head_number, a.reorgs, a.safe, a.finalized
            ));
        }
        s.push_str(&format!("],\"distinct_heads\":{}}}", self.distinct_heads()));
        s
    }
}

impl fmt::Display for ForkChoiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fork-choice comparison — preset {}, seed {}",
            self.preset, self.seed
        )?;
        let mut t = Table::new(vec![
            "Engine",
            "Head",
            "Height",
            "Reorgs",
            "Safe",
            "Finalized",
        ]);
        for a in &self.arms {
            t.row(vec![
                a.engine.clone(),
                a.head.to_string(),
                a.head_number.to_string(),
                a.reorgs.to_string(),
                a.safe.to_string(),
                a.finalized.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "\ndistinct heads: {}",
            if self.distinct_heads() { "yes" } else { "no" }
        )
    }
}

/// Runs `base` once per [`ConsensusKind`] (same seed, same physics) and
/// reports each engine's canonical head, reorg count, and safety
/// markers. With a fork-heavy scenario the uncle-weighted GHOST engine
/// picks a different head than the heaviest/longest pair, because
/// sibling uncles vote for the branch that references them.
pub fn forkchoice_compare(base: &Scenario, preset: &str) -> ForkChoiceReport {
    let arms = ConsensusKind::ALL
        .iter()
        .map(|&kind| {
            let mut s = base.clone();
            s.consensus = kind;
            let outcome = run_campaign(&s);
            let tree = &outcome.campaign.truth.tree;
            ForkChoiceArm {
                engine: kind.to_string(),
                head: tree.head(),
                head_number: tree.head_number(),
                reorgs: tree.reorg_count(),
                safe: tree.safe(),
                finalized: tree.finalized(),
            }
        })
        .collect();
    ForkChoiceReport {
        preset: preset.to_string(),
        seed: base.seed,
        arms,
    }
}

// ---- Network dynamics & attacks (EXPERIMENTS.md §dynamics) ----

/// The east/rest region split used by the canonical partition scenarios:
/// the Asian-Pacific regions on one side, everything else on the other
/// (the paper's EA vantage vs its European/American ones).
pub fn east_west_masks() -> (RegionMask, RegionMask) {
    let east = RegionMask::of(&[Region::EasternAsia, Region::SouthAsia, Region::Oceania]);
    (east, east.complement())
}

/// A victim-vs-rest pool directory: pool 0 ("Victim") holds hash share
/// `gamma` with `victim_gateways` gateways spread over distinct regions,
/// facing three equal honest pools splitting the remainder — the
/// all-honest mirror of [`PoolDirectory::attacker_vs_honest`], used by
/// the eclipse experiments (the attacker is the *network*, not a mining
/// strategy).
///
/// # Panics
///
/// Panics if `gamma` is outside `(0, 1)` or `victim_gateways` is 0.
pub fn victim_vs_rest_pools(gamma: f64, victim_gateways: usize) -> PoolDirectory {
    assert!(
        gamma > 0.0 && gamma < 1.0,
        "victim share must be in (0, 1), got {gamma}"
    );
    assert!(victim_gateways > 0, "victim needs at least one gateway");
    let mut pools = vec![PoolConfig {
        id: PoolId(0),
        name: "Victim".to_owned(),
        share: gamma,
        gateway_regions: (0..victim_gateways.min(Region::COUNT))
            .map(|i| (Region::ALL[i], 1.0))
            .collect(),
        gateway_count: victim_gateways,
        strategy: Strategy::honest(),
        behavior: PoolBehavior::Honest,
    }];
    let rest = 3usize;
    for i in 0..rest {
        pools.push(PoolConfig {
            id: PoolId(1 + i as u16),
            name: format!("Rest-{i}"),
            share: (1.0 - gamma) / rest as f64,
            gateway_regions: vec![
                (Region::ALL[(2 * i) % Region::COUNT], 0.6),
                (Region::ALL[(2 * i + 3) % Region::COUNT], 0.4),
            ],
            gateway_count: 2,
            strategy: Strategy::honest(),
            behavior: PoolBehavior::Honest,
        });
    }
    PoolDirectory::new(pools)
}

/// Reorg-depth probe columns for dynamics grids: `p_revert_1`,
/// `p_revert_6`, `p_revert_12` (the `P(revert ≥ k)` tail at the common
/// confirmation policies) and `abandoned_blocks`. All four come from one
/// [`reorg::analyze`] pass per run.
pub fn reorg_scalars() -> Scalars {
    let names = [
        "p_revert_1",
        "p_revert_6",
        "p_revert_12",
        "abandoned_blocks",
    ];
    Scalars::new().columns(names, |_, o| {
        let r = reorg::analyze(&o.campaign);
        vec![
            r.p_revert(1),
            r.p_revert(6),
            r.p_revert(12),
            r.abandoned_blocks as f64,
        ]
    })
}

/// One eclipse campaign: the victim pool's gateways are isolated for
/// `eclipse` starting at `start`, and the ground-truth reorg-depth table
/// (`P(revert ≥ k)`) is computed from the resulting chain. Dispatches on
/// `base.shards` like [`run_campaign`].
pub fn eclipse_reorg_report(
    base: &Scenario,
    victim: PoolId,
    start: SimDuration,
    eclipse: SimDuration,
) -> ReorgReport {
    let mut s = base.clone();
    s.dynamics = DynamicsScript::new().eclipse_window(SimTime::ZERO + start, eclipse, victim);
    reorg::analyze(&run_campaign(&s).campaign)
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§V ablation — uncle policy vs one-miner fork profits")?;
        let mut t = Table::new(vec![
            "Policy",
            "Duplicates",
            "Recognized",
            "Dup rewards (mETH)",
            "Fork blocks",
            "Wasted work",
        ]);
        for arm in &self.arms {
            t.row(vec![
                format!("{:?}", arm.policy),
                arm.duplicates.to_string(),
                arm.duplicates_recognized.to_string(),
                grouped(arm.duplicate_rewards),
                arm.fork_blocks.to_string(),
                pct(arm.wasted_fraction()),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;
    use ethmeter_types::SimDuration;

    fn small_campaign() -> CampaignData {
        let scenario = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(5)
            .duration(SimDuration::from_mins(10))
            .build();
        run_campaign(&scenario).campaign
    }

    #[test]
    fn longest_chain_pays_duplicates_no_uncle_reward() {
        // Seed 2 yields a one-miner duplicate that a later block
        // references; a longest-chain engine pays no uncle rewards, so
        // neither arm may credit it.
        let base = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(2)
            .consensus(ConsensusKind::Longest)
            .duration(SimDuration::from_mins(10))
            .build();
        let report = ablation_uncle_policy(&base);
        assert!(report.arms.iter().any(|a| a.duplicates_recognized > 0));
        for arm in &report.arms {
            assert_eq!(arm.duplicate_rewards, 0, "{:?} arm", arm.policy);
        }
    }

    #[test]
    fn suite_runs_every_analyzer() {
        let data = small_campaign();
        let suite = Suite::from_campaign(&data);
        assert!(suite.fig1.blocks_measured > 0, "fig1 empty");
        assert!(suite.table2.is_ok(), "table2: {:?}", suite.table2);
        assert!(suite.fig2.blocks > 0);
        assert!(!suite.fig3.pools.is_empty());
        assert!(suite.fig6.total_blocks > 0);
        assert!(suite.fig7.total_blocks > 0);
        assert!(suite.decentralization.blocks > 0);
        assert!(suite.decentralization.hash_power.nakamoto >= 1);
        // Displays all render.
        let _ = format!(
            "{}{}{}{}{}{}{}{}{}",
            suite.fig1,
            suite.fig2,
            suite.fig3,
            suite.fig4,
            suite.fig5,
            suite.fig6,
            suite.table3,
            suite.fig7,
            suite.decentralization
        );
    }

    #[test]
    fn decentralization_scalars_aggregate_across_seeds() {
        let base = Scenario::builder()
            .preset(Preset::Tiny)
            .duration(SimDuration::from_mins(5))
            .build();
        let report = Grid::new(base)
            .seed_range(1, 2)
            .threads(2)
            .run(decentralization_scalars())
            .output;
        assert_eq!(report.rows.len(), 1, "seeds-only grid has one point");
        assert_eq!(report.columns.len(), 9);
        let row = &report.rows[0];
        assert!(row.cells.iter().all(|c| c.runs == 2));
        let col = |name: &str| {
            let i = report.columns.iter().position(|c| c == name).expect("col");
            &row.cells[i]
        };
        // The hash-power axis is configuration, identical across seeds.
        assert!(col("nakamoto_hash").mean >= 1.0);
        assert_eq!(col("nakamoto_hash").std_dev, 0.0);
        assert!(col("hhi_revenue").mean > 0.0 && col("hhi_revenue").mean <= 1.0);
        assert!(col("gini_first_obs").mean >= 0.0);
        assert!(report.to_csv().contains("nakamoto_first_obs_mean"));
    }

    #[test]
    fn table1_lists_all_observers() {
        let data = small_campaign();
        let t = table1(&data);
        assert!(t.contains("Table I"));
        assert!(t.contains("NA") && t.contains("EA"));
        assert!(t.contains("redundancy"));
    }

    #[test]
    fn cross_seed_report_aggregates_headline_stats() {
        let base = Scenario::builder()
            .preset(Preset::Tiny)
            .duration(SimDuration::from_mins(5))
            .build();
        let report = cross_seed_report(&base, 1, 2, 2);
        assert_eq!(report.rows.len(), 1, "seeds-only grid has one point");
        let row = &report.rows[0];
        assert!(row.point.is_base());
        assert_eq!(report.columns.len(), 5);
        assert!(row.cells.iter().all(|c| c.runs == 2));
        let col = |name: &str| {
            let i = report.columns.iter().position(|c| c == name).expect("col");
            &row.cells[i]
        };
        assert!(col("prop_median_ms").mean > 0.0);
        assert!(col("prop_p95_ms").mean >= col("prop_median_ms").mean);
        // Exports render without panicking and carry the column names.
        assert!(report.to_csv().contains("fork_rate_mean"));
        assert!(report.to_json().contains("\"prop_median_ms\""));
    }

    #[test]
    fn fig7_month_is_paper_scale() {
        let report = fig7_month(1);
        assert_eq!(report.total_blocks, 201_086);
    }

    #[test]
    fn threshold_interpolation_and_json() {
        let report = SelfishThresholdReport {
            alphas: vec![0.1, 0.2, 0.3],
            gammas: vec![0.0, 1.0],
            seeds: 1,
            blocks: 10,
            gain: vec![vec![0.8, 0.9, 1.1], vec![1.2, 1.3, 1.4]],
        };
        // Row 0 crosses between 0.2 and 0.3: 0.2 + 0.1 * (0.1/0.2) = 0.25.
        let t0 = report.threshold(0).expect("crosses");
        assert!((t0 - 0.25).abs() < 1e-9, "t0 {t0}");
        // Row 1 is profitable from the first cell.
        assert_eq!(report.threshold(1), Some(0.1));
        // A row that never crosses yields None.
        let flat = SelfishThresholdReport {
            gain: vec![vec![0.5, 0.6, 0.7], vec![1.0, 1.0, 1.0]],
            ..report.clone()
        };
        assert_eq!(flat.threshold(0), None);
        // JSON carries the schema tag and both axes.
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"ethmeter-selfish-threshold/v1\""));
        assert!(json.contains("\"thresholds\":["), "json: {json}");
        assert!(json.ends_with(",0.1]}"), "json: {json}");
        // Display renders the table with a threshold column.
        let shown = report.to_string();
        assert!(shown.contains("threshold"));
        assert!(shown.contains("0.250"));
    }

    #[test]
    fn selfish_sim_grid_reports_revenue_columns() {
        let base = Scenario::builder()
            .preset(Preset::Tiny)
            .duration(SimDuration::from_mins(8))
            .pools(PoolDirectory::attacker_vs_honest(
                0.3,
                2,
                SelfishConfig::classic(),
            ))
            .build();
        let report = selfish_sim_grid(&base, &[0.35], &[4], 3, 1, 1);
        assert_eq!(report.rows.len(), 1, "one (alpha, gateways) point");
        assert_eq!(
            report.columns,
            vec!["rev_share", "rel_revenue", "withheld", "released"]
        );
        let row = &report.rows[0];
        assert_eq!(row.point.get("alpha"), Some("0.35"));
        assert_eq!(row.point.get("gateways"), Some("4"));
        let col = |name: &str| {
            let i = report.columns.iter().position(|c| c == name).expect("col");
            row.cells[i].mean
        };
        assert!(col("rev_share") > 0.0);
        assert!(col("withheld") > 0.0, "the attacker must have withheld");
        assert!(col("released") > 0.0, "withheld blocks must be released");
    }

    #[test]
    fn forkchoice_compare_runs_every_engine() {
        let base = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(7)
            .duration(SimDuration::from_mins(10))
            .build();
        let report = forkchoice_compare(&base, "tiny");
        assert_eq!(report.arms.len(), ConsensusKind::ALL.len());
        assert_eq!(report.arms[0].engine, "heaviest");
        for arm in &report.arms {
            assert!(arm.head_number > 0, "{} mined nothing", arm.engine);
        }
        // Difficulty is constant in-sim, so heaviest and longest agree.
        assert_eq!(report.arms[0].head_number, report.arms[1].head_number);
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"ethmeter-forkchoice/v1\""));
        assert!(json.contains("\"preset\":\"tiny\""));
        assert!(json.contains("\"distinct_heads\":"), "json: {json}");
        let shown = report.to_string();
        assert!(shown.contains("Fork-choice comparison"));
        assert!(shown.contains("uncle-ghost"));
    }

    #[test]
    fn revenue_scalars_span_an_alpha_by_engine_grid() {
        let base = Scenario::builder()
            .preset(Preset::Tiny)
            .duration(SimDuration::from_mins(8))
            .pools(PoolDirectory::attacker_vs_honest(
                0.3,
                2,
                SelfishConfig::classic(),
            ))
            .build();
        let kinds = [ConsensusKind::Heaviest, ConsensusKind::Longest];
        // The selfish-gain × fork-choice surface: the attacker's revenue
        // under each engine.
        let report = Grid::new(base)
            .seed_range(3, 1)
            .axis("alpha", vec![0.35], |s, &alpha| {
                let (gw, cfg) = attacker_knobs(&s.pools);
                s.pools = PoolDirectory::attacker_vs_honest(alpha, gw, cfg);
            })
            .axis("consensus", kinds.to_vec(), |s, &kind| s.consensus = kind)
            .threads(1)
            .run(revenue_scalars(PoolId(0)))
            .output;
        assert_eq!(report.rows.len(), 2, "one alpha × two engines");
        let engines: Vec<_> = report
            .rows
            .iter()
            .map(|r| r.point.get("consensus").expect("axis"))
            .collect();
        assert_eq!(engines, vec!["heaviest", "longest"]);
        for row in &report.rows {
            assert_eq!(row.point.get("alpha"), Some("0.35"));
            let i = report
                .columns
                .iter()
                .position(|c| c == "rev_share")
                .expect("col");
            assert!(row.cells[i].mean > 0.0);
        }
    }

    #[test]
    fn selfish_threshold_tiny_grid_runs() {
        let r = selfish_threshold(&[0.15, 0.35], &[0.0, 1.0], 1, 1, 1_500);
        assert_eq!(r.gain.len(), 2);
        assert_eq!(r.gain[0].len(), 2);
        assert!(r.gain.iter().flatten().all(|g| g.is_finite() && *g > 0.0));
        // γ = 1 strictly dominates γ = 0 cell-wise at these shares.
        assert!(r.gain[1][0] > r.gain[0][0]);
    }
}
