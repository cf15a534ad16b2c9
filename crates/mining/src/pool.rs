//! Pool configuration and the paper-calibrated directory.
//!
//! Hash-power shares are the ones the paper measured during April 2019 and
//! prints in Figure 3's parentheses (Ethermine 25.32% ... Hiveon 0.77%,
//! remaining miners 8.39%). Gateway regions are calibrated from the same
//! figure's first-observation mix: the large Asian pools (Sparkpool,
//! F2pool, HuoBi, ...) expose gateways in Eastern Asia, Ethermine and
//! Nanopool in Europe — which is what makes Eastern Asia observe ~40% of
//! new blocks first (Figure 2).

use ethmeter_types::{PoolId, Region};

use crate::behavior::{PoolBehavior, SelfishConfig};
use crate::strategy::Strategy;

/// Static configuration of one mining pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Stable identifier (index into the directory).
    pub id: PoolId,
    /// Public name (coinbase tag).
    pub name: String,
    /// Fraction of total network hash power, in `[0, 1]`.
    pub share: f64,
    /// Weighted gateway placement: `(region, weight)`. Each gateway node
    /// the scenario creates for this pool draws its region from this
    /// distribution.
    pub gateway_regions: Vec<(Region, f64)>,
    /// Number of gateway nodes the pool operates.
    pub gateway_count: usize,
    /// Per-block probabilistic knobs (empty blocks, one-miner forks).
    pub strategy: Strategy,
    /// Stateful publication behavior. [`PoolBehavior::Honest`] (the
    /// default everywhere) publishes at mint time; a selfish pool
    /// withholds and releases at fork-choice time, superseding the
    /// probabilistic duplicate/empty knobs.
    pub behavior: PoolBehavior,
}

impl PoolConfig {
    /// Plans the regions of this pool's gateways deterministically by the
    /// largest-remainder method: `gateway_count` seats apportioned to the
    /// placement weights. Deterministic placement keeps the geographic
    /// calibration stable across seeds (i.i.d. sampling occasionally puts
    /// an Asian pool's only gateways in the wrong continent, which swamps
    /// Figure 2 in small campaigns).
    ///
    /// # Panics
    ///
    /// Panics if the placement list is empty.
    pub fn plan_gateway_regions(&self) -> Vec<Region> {
        assert!(
            !self.gateway_regions.is_empty(),
            "pool {} has no gateway placement",
            self.name
        );
        let total: f64 = self.gateway_regions.iter().map(|&(_, w)| w).sum();
        let n = self.gateway_count;
        let quotas: Vec<f64> = self
            .gateway_regions
            .iter()
            .map(|&(_, w)| w / total * n as f64)
            .collect();
        let mut seats: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut assigned: usize = seats.iter().sum();
        // Hand remaining seats to the largest remainders (ties: list order).
        let mut order: Vec<usize> = (0..quotas.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = quotas[a] - quotas[a].floor();
            let rb = quotas[b] - quotas[b].floor();
            rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
        });
        let mut i = 0;
        while assigned < n {
            seats[order[i % order.len()]] += 1;
            assigned += 1;
            i += 1;
        }
        let mut out = Vec::with_capacity(n);
        for (idx, &(region, _)) in self.gateway_regions.iter().enumerate() {
            for _ in 0..seats[idx] {
                out.push(region);
            }
        }
        out.truncate(n);
        out
    }
}

/// The set of pools mining a scenario.
#[derive(Debug, Clone)]
pub struct PoolDirectory {
    pools: Vec<PoolConfig>,
}

impl PoolDirectory {
    /// Builds a directory from explicit configs.
    ///
    /// # Panics
    ///
    /// Panics if there are more pools than `PoolId`s (65,536), shares
    /// don't sum to ≈1, any share is negative, or ids don't match
    /// positions.
    pub fn new(pools: Vec<PoolConfig>) -> Self {
        assert!(!pools.is_empty(), "directory needs at least one pool");
        assert!(
            pools.len() <= usize::from(u16::MAX) + 1,
            "a directory holds at most 65,536 pools, got {}",
            pools.len()
        );
        let total: f64 = pools.iter().map(|p| p.share).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "pool shares must sum to 1, got {total}"
        );
        for (i, p) in pools.iter().enumerate() {
            assert!(p.share >= 0.0, "negative share for {}", p.name);
            assert_eq!(usize::from(p.id.raw()), i, "pool id must equal its index");
        }
        PoolDirectory { pools }
    }

    /// The April-2019 Ethereum mainnet calibration (Figure 3's shares).
    ///
    /// Includes a 16th entry aggregating the remaining miners and a
    /// vanishingly small 17th solo miner that only mines empty blocks (the
    /// paper: "we also observed a miner whose 6 mined blocks during the
    /// experiment were all empty").
    pub fn paper_dsn2020() -> Self {
        use Region::*;
        let mut pools = Vec::new();
        let mut add = |name: &str,
                       pct: f64,
                       regions: Vec<(Region, f64)>,
                       gateways: usize,
                       strategy: Strategy| {
            let id = PoolId(pools.len() as u16);
            pools.push(PoolConfig {
                id,
                name: name.to_owned(),
                share: pct / 100.0,
                gateway_regions: regions,
                gateway_count: gateways,
                strategy,
                behavior: PoolBehavior::Honest,
            });
        };

        // Shares from Figure 3; strategies calibrated to Figure 6 (empty
        // blocks) and §III-C5 (duplicates). The empty-block products sum to
        // ~1.44% of all blocks, the paper's 1.45%; the duplicate products
        // to ~0.9% of blocks, the paper's 1,750 pairs in 201k blocks.
        add(
            "Ethermine",
            25.32,
            // ethermine.org ran public endpoints in Europe, the US, and
            // Asia; Europe carried most of its hash power.
            vec![
                (WesternEurope, 0.45),
                (CentralEurope, 0.20),
                (NorthAmerica, 0.20),
                (EasternAsia, 0.15),
            ],
            3,
            Strategy::honest()
                .with_empty_prob(0.0234)
                .with_duplicate_prob(0.014),
        );
        add(
            "Sparkpool",
            22.88,
            // Sparkpool operated worldwide relay nodes; the majority of
            // its gateways sat in China.
            vec![(EasternAsia, 0.67), (WesternEurope, 0.33)],
            3,
            Strategy::honest()
                .with_empty_prob(0.008)
                .with_duplicate_prob(0.014),
        );
        add(
            "F2pool2",
            12.75,
            vec![(EasternAsia, 1.0)],
            2,
            Strategy::honest()
                .with_empty_prob(0.027)
                .with_duplicate_prob(0.010),
        );
        add(
            "Nanopool",
            12.10,
            vec![
                (CentralEurope, 0.5),
                (WesternEurope, 0.3),
                (EasternEurope, 0.2),
            ],
            2,
            // The paper singles Nanopool out as having mined no empty
            // blocks at all.
            Strategy::honest().with_duplicate_prob(0.004),
        );
        add(
            "Miningpoolhub1",
            5.61,
            vec![(EasternAsia, 0.5), (NorthAmerica, 0.5)],
            2,
            Strategy::honest().with_duplicate_prob(0.004),
        );
        add(
            "HuoBi.pro",
            1.85,
            vec![(EasternAsia, 1.0)],
            1,
            Strategy::honest()
                .with_empty_prob(0.008)
                .with_duplicate_prob(0.004),
        );
        add(
            "Pandapool",
            1.82,
            vec![(EasternAsia, 0.7), (NorthAmerica, 0.3)],
            1,
            Strategy::honest()
                .with_empty_prob(0.010)
                .with_duplicate_prob(0.004),
        );
        add(
            "DwarfPool1",
            1.74,
            vec![(WesternEurope, 0.5), (CentralEurope, 0.5)],
            1,
            Strategy::honest()
                .with_empty_prob(0.005)
                .with_duplicate_prob(0.004),
        );
        add(
            "Xnpool",
            1.34,
            vec![(EasternAsia, 1.0)],
            1,
            Strategy::honest()
                .with_empty_prob(0.010)
                .with_duplicate_prob(0.004),
        );
        add(
            "Uupool",
            1.33,
            vec![(EasternAsia, 1.0)],
            1,
            Strategy::honest()
                .with_empty_prob(0.015)
                .with_duplicate_prob(0.004),
        );
        add(
            "Minerall",
            1.23,
            vec![(EasternEurope, 0.6), (CentralEurope, 0.4)],
            1,
            Strategy::honest()
                .with_empty_prob(0.010)
                .with_duplicate_prob(0.004),
        );
        add(
            "Firepool",
            1.22,
            vec![(EasternAsia, 0.8), (SouthAsia, 0.2)],
            1,
            Strategy::honest()
                .with_empty_prob(0.012)
                .with_duplicate_prob(0.004),
        );
        add(
            "Zhizhu",
            0.85,
            vec![(EasternAsia, 1.0)],
            1,
            // The headline empty-block miner: >25% of its blocks carried
            // no transactions.
            Strategy::honest()
                .with_empty_prob(0.26)
                .with_duplicate_prob(0.004),
        );
        add(
            "MiningExpress",
            0.81,
            vec![(NorthAmerica, 0.5), (SouthAmerica, 0.5)],
            1,
            Strategy::honest()
                .with_empty_prob(0.050)
                .with_duplicate_prob(0.004),
        );
        add(
            "Hiveon",
            0.77,
            vec![(EasternEurope, 0.7), (CentralEurope, 0.3)],
            1,
            Strategy::honest()
                .with_empty_prob(0.010)
                .with_duplicate_prob(0.004),
        );
        // Figure 3 prints "Remaining miners (8.39%)", but the printed
        // percentages sum to 100.01 due to rounding; we shave the
        // remainder so shares form an exact distribution, and carve out
        // the 0.003% always-empty solo miner below.
        add(
            "Remaining miners",
            8.377,
            vec![
                (NorthAmerica, 0.25),
                (WesternEurope, 0.20),
                (CentralEurope, 0.15),
                (EasternEurope, 0.12),
                (EasternAsia, 0.15),
                (SouthAsia, 0.06),
                (SouthAmerica, 0.04),
                (Oceania, 0.03),
            ],
            4,
            // Aggregate of many small miners: mild empty-block rate, rare
            // duplicates, and the occasional malfunction burst that
            // produces the 4- and 7-tuples of §III-C5.
            Strategy::honest()
                .with_empty_prob(0.004)
                .with_duplicate_prob(0.002)
                .with_malfunction_prob(2e-5),
        );
        add(
            "AnonEmptyMiner",
            0.003,
            vec![(NorthAmerica, 1.0)],
            1,
            // The curious solo miner all of whose blocks were empty.
            Strategy::honest().with_empty_prob(1.0),
        );
        PoolDirectory::new(pools)
    }

    /// A synthetic directory of `n` equal pools (for tests/ablations).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    // detlint::allow(unread-pub, reason = "library API: the equal-pools directory for ablations, used by mining and core unit tests")
    pub fn uniform(n: usize, gateway_count: usize) -> Self {
        assert!(n > 0, "need at least one pool");
        let share = 1.0 / n as f64;
        let pools = (0..n)
            .map(|i| PoolConfig {
                id: PoolId(i as u16),
                name: format!("pool-{i}"),
                share,
                gateway_regions: vec![(Region::ALL[i % Region::COUNT], 1.0)],
                gateway_count,
                strategy: Strategy::honest(),
                behavior: PoolBehavior::Honest,
            })
            .collect();
        PoolDirectory::new(pools)
    }

    /// An adversarial two-sided directory: pool 0 is a selfish attacker
    /// with hash share `alpha` and `attacker_gateways` gateways spread
    /// round-robin over every region (more gateways → the attacker's
    /// releases win more tie races, i.e. a higher effective γ), facing
    /// three equal honest pools that split the remaining power.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)` or `attacker_gateways` is 0.
    pub fn attacker_vs_honest(
        alpha: f64,
        attacker_gateways: usize,
        behavior: SelfishConfig,
    ) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "attacker share must be in (0, 1), got {alpha}"
        );
        assert!(attacker_gateways > 0, "attacker needs at least one gateway");
        let mut pools = vec![PoolConfig {
            id: PoolId(0),
            name: "Attacker".to_owned(),
            share: alpha,
            gateway_regions: (0..attacker_gateways.min(Region::COUNT))
                .map(|i| (Region::ALL[i], 1.0))
                .collect(),
            gateway_count: attacker_gateways,
            strategy: Strategy::honest(),
            behavior: PoolBehavior::Selfish(behavior),
        }];
        let honest = 3usize;
        for i in 0..honest {
            pools.push(PoolConfig {
                id: PoolId(1 + i as u16),
                name: format!("Honest-{i}"),
                share: (1.0 - alpha) / honest as f64,
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

    /// Number of pools.
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// True if the directory has no pools (never constructible).
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// Pool by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn pool(&self, id: PoolId) -> &PoolConfig {
        &self.pools[id.index()]
    }

    /// Mutable pool access (scenario builders tweak strategies).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn pool_mut(&mut self, id: PoolId) -> &mut PoolConfig {
        &mut self.pools[id.index()]
    }

    /// Iterates over all pools in id order.
    pub fn iter(&self) -> impl Iterator<Item = &PoolConfig> + '_ {
        self.pools.iter()
    }

    /// Looks a pool up by name.
    #[cfg(test)]
    pub fn by_name(&self, name: &str) -> Option<&PoolConfig> {
        self.pools.iter().find(|p| p.name == name)
    }

    /// True if any pool runs an adversarial (non-honest) behavior.
    #[cfg(test)]
    pub fn has_adversary(&self) -> bool {
        self.pools.iter().any(|p| p.behavior.is_adversarial())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_directory_is_calibrated() {
        let d = PoolDirectory::paper_dsn2020();
        assert_eq!(d.len(), 17);
        let ethermine = d.by_name("Ethermine").expect("present");
        assert!((ethermine.share - 0.2532).abs() < 1e-9);
        let spark = d.by_name("Sparkpool").expect("present");
        assert!((spark.share - 0.2288).abs() < 1e-9);
        // Nanopool and Miningpoolhub never mine empty blocks (Figure 6).
        assert_eq!(
            d.by_name("Nanopool")
                .expect("present")
                .strategy
                .empty_block_prob,
            0.0
        );
        assert_eq!(
            d.by_name("Miningpoolhub1")
                .expect("present")
                .strategy
                .empty_block_prob,
            0.0
        );
        // Zhizhu's headline rate.
        assert!(
            d.by_name("Zhizhu")
                .expect("present")
                .strategy
                .empty_block_prob
                > 0.25
        );
        // Aggregate empty-block fraction ~ 1.45% (paper §III-C3).
        let agg: f64 = d
            .iter()
            .map(|p| p.share * p.strategy.empty_block_prob)
            .sum();
        assert!(
            (0.013..=0.016).contains(&agg),
            "aggregate empty fraction {agg}"
        );
        // Aggregate duplicate rate ~ 0.87% of blocks (1,750 pairs/201k).
        let dup: f64 = d.iter().map(|p| p.share * p.strategy.duplicate_prob).sum();
        assert!((0.006..=0.012).contains(&dup), "aggregate duplicate {dup}");
    }

    #[test]
    fn asian_pools_dominate_hash_power_in_ea() {
        // The EA-gateway share must be large enough to explain Figure 2's
        // ~40% first observations in Eastern Asia.
        let d = PoolDirectory::paper_dsn2020();
        let ea_weight: f64 = d
            .iter()
            .map(|p| {
                let w: f64 = p
                    .gateway_regions
                    .iter()
                    .filter(|(r, _)| *r == Region::EasternAsia)
                    .map(|&(_, w)| w)
                    .sum();
                let total: f64 = p.gateway_regions.iter().map(|&(_, w)| w).sum();
                p.share * w / total
            })
            .sum();
        assert!(
            (0.35..=0.55).contains(&ea_weight),
            "EA-origin hash power {ea_weight}"
        );
    }

    #[test]
    fn gateway_plan_apportions_the_placement() {
        let d = PoolDirectory::paper_dsn2020();
        let spark = d.by_name("Sparkpool").expect("present");
        // Sparkpool's placement is 2/3 Eastern Asia: deterministic
        // planning puts exactly two of three gateways there.
        let plan = spark.plan_gateway_regions();
        assert_eq!(plan.len(), 3);
        assert_eq!(
            plan.iter().filter(|&&r| r == Region::EasternAsia).count(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "at most 65,536 pools")]
    fn ids_past_the_id_space_are_refused() {
        // Pool 65,536 would wrap to `PoolId(0)` and alias pool 0.
        let _ = PoolDirectory::uniform(65_537, 1);
    }

    #[test]
    fn uniform_directory() {
        let d = PoolDirectory::uniform(4, 1);
        assert_eq!(d.len(), 4);
        for p in d.iter() {
            assert!((p.share - 0.25).abs() < 1e-12);
            assert!(!p.strategy.is_selfish());
        }
    }

    #[test]
    fn attacker_directory_shape() {
        let d = PoolDirectory::attacker_vs_honest(0.3, 4, SelfishConfig::classic());
        assert_eq!(d.len(), 4);
        assert!(d.has_adversary());
        let attacker = d.pool(PoolId(0));
        assert_eq!(attacker.name, "Attacker");
        assert!((attacker.share - 0.3).abs() < 1e-12);
        assert_eq!(
            attacker.behavior,
            PoolBehavior::Selfish(SelfishConfig::classic())
        );
        assert_eq!(attacker.gateway_count, 4);
        for i in 1..4 {
            let p = d.pool(PoolId(i));
            assert_eq!(p.behavior, PoolBehavior::Honest);
            assert!((p.share - 0.7 / 3.0).abs() < 1e-12);
        }
        // The paper directory stays behavior-honest.
        assert!(!PoolDirectory::paper_dsn2020().has_adversary());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_shares_rejected() {
        let mut pools = PoolDirectory::uniform(2, 1);
        let cfgs = vec![pools.pool_mut(PoolId(0)).clone()];
        let _ = PoolDirectory::new(cfgs);
    }
}
