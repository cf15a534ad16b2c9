//! Scenario descriptions and calibrated presets.
//!
//! A [`Scenario`] fully determines a campaign: the same scenario and seed
//! reproduce the same dataset bit for bit.

use std::path::PathBuf;

use ethmeter_chain::consensus::ConsensusKind;
use ethmeter_dynamics::{DynamicsError, DynamicsScript};
use ethmeter_geo::{ClockModel, LatencyModel};
use ethmeter_measure::VantagePoint;
use ethmeter_mining::PoolDirectory;
use ethmeter_net::NetConfig;
use ethmeter_types::{Gas, Region, SimDuration};
use ethmeter_workload::WorkloadConfig;

/// Named scenario sizes.
///
/// All presets run the paper's pool directory and latency matrix; they
/// differ in node count, duration, and transaction scale. Transaction rate
/// and block gas limit are scaled *together*, so block utilization — the
/// shape parameter of the queueing behavior in Figures 4/5 — matches the
/// paper's ~80% at every size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// ~60 nodes, 20 simulated minutes. Smoke tests and doc examples.
    Tiny,
    /// ~150 nodes, 2 simulated hours. Integration tests.
    Small,
    /// ~400 nodes, 8 simulated hours. Figure-quality runs.
    Medium,
    /// ~800 nodes, 24 simulated hours, √-fanout tx relay. The
    /// EXPERIMENTS.md headline runs.
    PaperScaled,
    /// ~10,000 nodes, 30 simulated minutes, √-fanout tx relay —
    /// planet-scale decentralization measurements (Nakamoto/Gini/HHI over
    /// observation and revenue share). Runs on the sequential engine
    /// (the `planet-cold` benchmark workload does);
    /// [`ScenarioBuilder::shards`] splits it across threads, a median
    /// 1.17x faster at 2 shards on a 2-core Intel host.
    Planet,
}

/// A fully specified campaign.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed; all randomness forks from it.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Ordinary (non-gateway, non-observer) node count.
    pub ordinary_nodes: usize,
    /// Region mix of ordinary nodes.
    pub region_weights: Vec<(Region, f64)>,
    /// devp2p layer configuration.
    pub net: NetConfig,
    /// Geographic latency model.
    pub latency: LatencyModel,
    /// Observer clock model.
    pub clock: ClockModel,
    /// The mining pools.
    pub pools: PoolDirectory,
    /// Mean inter-block time (the paper's 13.3 s).
    pub interblock: SimDuration,
    /// Block gas limit.
    pub gas_limit: Gas,
    /// Transaction workload.
    pub workload: WorkloadConfig,
    /// Measurement deployments.
    pub vantages: Vec<VantagePoint>,
    /// Mean extra delay between a gateway head switch and the pool
    /// retargeting its miners (work distribution, DAG setup). Together
    /// with import and gateway propagation delays this forms the ~1s
    /// stale-mining window that yields the observed ~7% fork rate.
    pub miner_lag_mean: SimDuration,
    /// Peer target of gateway nodes.
    pub gateway_degree: usize,
    /// Worker shards for a *single* campaign. `1` (the default) selects
    /// the sequential reference engine; `n > 1` runs the deterministic
    /// sharded engine, whose output is bit-identical to sequential at any
    /// shard count (pinned by the golden fingerprints).
    pub shards: usize,
    /// Spill directory for out-of-core measurement. `Some` flips every
    /// observer log to the on-disk backend: once a log's
    /// estimated in-memory record bytes cross its share of
    /// [`Scenario::measure_budget_bytes`], it drains to sorted segment
    /// files under this directory (deterministic names; unlinked when the
    /// campaign data drops). Campaign output is bit-identical to the
    /// in-memory backend. One spill dir must not be shared by
    /// concurrently running campaigns (per-job sweep scenarios should
    /// each point somewhere distinct).
    pub spill_dir: Option<PathBuf>,
    /// Total measurement-memory budget (bytes, estimated record storage
    /// across all vantages) once [`Scenario::spill_dir`] is set. Split
    /// evenly across observer logs.
    pub measure_budget_bytes: usize,
    /// Scheduled network dynamics (churn, partitions, eclipse, floods).
    /// Empty by default: the static world, bit-identical to scenarios
    /// built before the dynamics layer existed (pinned by the goldens).
    pub dynamics: DynamicsScript,
    /// Consensus engine every node (and the ground-truth tree) runs.
    /// [`ConsensusKind::Heaviest`] by default — the historical
    /// total-difficulty rule, pinned by the goldens.
    pub consensus: ConsensusKind,
}

impl Scenario {
    /// Starts building a scenario (defaults to [`Preset::Small`]).
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Changes the transaction rate on an already-built scenario while
    /// preserving the calibrated block utilization (the gas limit scales
    /// proportionally, matching [`ScenarioBuilder::tx_rate`]'s calibration
    /// up to integer rounding) — the natural tx-rate grid axis.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn set_tx_rate(&mut self, rate: f64) {
        let old = self.workload.tx_rate;
        self.gas_limit = (self.gas_limit as f64 * rate / old).round() as Gas;
        self.workload = self.workload.clone().with_rate(rate);
    }

    /// Ethernodes-like 2019 region mix for ordinary peers (Eastern Asia
    /// aggregates CN/KR/JP/TW/HK/SG, a fifth of the network).
    pub fn default_region_weights() -> Vec<(Region, f64)> {
        vec![
            (Region::NorthAmerica, 0.26),
            (Region::WesternEurope, 0.19),
            (Region::CentralEurope, 0.13),
            (Region::EasternEurope, 0.09),
            (Region::EasternAsia, 0.23),
            (Region::SouthAsia, 0.04),
            (Region::SouthAmerica, 0.03),
            (Region::Oceania, 0.03),
        ]
    }
}

/// A reason [`ScenarioBuilder::build_checked`] rejected a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The simulated duration is zero.
    ZeroDuration,
    /// The scenario has no ordinary nodes.
    ZeroNodes,
    /// The pool directory is empty.
    EmptyPoolDirectory,
    /// The transaction rate is not positive and finite.
    InvalidTxRate(f64),
    /// The mean inter-block time is zero.
    ZeroInterblock,
    /// A spill dir was configured with a zero measurement budget.
    ZeroMeasureBudget,
    /// The dynamics script references entities outside the world or
    /// carries malformed parameters (the payload names the offending
    /// entry's virtual time).
    Dynamics(DynamicsError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::ZeroDuration => {
                write!(f, "scenario duration is zero — nothing would be simulated")
            }
            ScenarioError::ZeroNodes => write!(
                f,
                "scenario has zero ordinary nodes — there is no network to gossip over"
            ),
            ScenarioError::EmptyPoolDirectory => write!(
                f,
                "pool directory is empty — no pool could ever mine a block"
            ),
            ScenarioError::InvalidTxRate(rate) => write!(
                f,
                "transaction rate {rate} is invalid — it must be positive and finite"
            ),
            ScenarioError::ZeroInterblock => write!(
                f,
                "mean inter-block time is zero — blocks cannot be mined infinitely fast"
            ),
            ScenarioError::ZeroMeasureBudget => write!(
                f,
                "spill dir set with a zero measurement budget — every record would flush"
            ),
            ScenarioError::Dynamics(e) => write!(f, "dynamics script rejected: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Builder for [`Scenario`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    preset: Preset,
    seed: u64,
    duration: Option<SimDuration>,
    ordinary_nodes: Option<usize>,
    pools: Option<PoolDirectory>,
    workload_rate: Option<f64>,
    vantages: Option<Vec<VantagePoint>>,
    net: Option<NetConfig>,
    interblock: Option<SimDuration>,
    clock: Option<ClockModel>,
    shards: usize,
    spill_dir: Option<PathBuf>,
    measure_budget_bytes: Option<usize>,
    dynamics: DynamicsScript,
    consensus: ConsensusKind,
}

impl ScenarioBuilder {
    /// Creates a builder with [`Preset::Small`] defaults.
    pub fn new() -> Self {
        ScenarioBuilder {
            preset: Preset::Small,
            seed: 42,
            duration: None,
            ordinary_nodes: None,
            pools: None,
            workload_rate: None,
            vantages: None,
            net: None,
            interblock: None,
            clock: None,
            shards: 1,
            spill_dir: None,
            measure_budget_bytes: None,
            dynamics: DynamicsScript::new(),
            consensus: ConsensusKind::Heaviest,
        }
    }

    /// Selects a preset (sets size, duration, workload scale).
    #[must_use]
    pub fn preset(mut self, preset: Preset) -> Self {
        self.preset = preset;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the simulated duration.
    #[must_use]
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Overrides the ordinary-node count.
    #[must_use]
    pub fn ordinary_nodes(mut self, n: usize) -> Self {
        self.ordinary_nodes = Some(n);
        self
    }

    /// Replaces the pool directory (ablations).
    #[must_use]
    pub fn pools(mut self, pools: PoolDirectory) -> Self {
        self.pools = Some(pools);
        self
    }

    /// Overrides the global transaction rate (gas limit rescales with it).
    #[must_use]
    pub fn tx_rate(mut self, rate: f64) -> Self {
        self.workload_rate = Some(rate);
        self
    }

    /// Replaces the vantage points.
    #[must_use]
    pub fn vantages(mut self, vantages: Vec<VantagePoint>) -> Self {
        self.vantages = Some(vantages);
        self
    }

    /// Replaces the network configuration.
    #[must_use]
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = Some(net);
        self
    }

    /// Overrides the mean inter-block time.
    #[must_use]
    pub fn interblock(mut self, interblock: SimDuration) -> Self {
        self.interblock = Some(interblock);
        self
    }

    /// Replaces the observer clock model.
    #[must_use]
    pub fn clock(mut self, clock: ClockModel) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Sets the intra-run worker shard count. `1` (the default) is the
    /// sequential reference engine; `n > 1` partitions the nodes
    /// region-atomically across `n` workers that run in bounded lookahead
    /// windows, producing bit-identical campaign output. `0` is treated
    /// as `1`.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables out-of-core measurement: observer logs spill to sorted
    /// segment files under `dir` once they exceed their share of the
    /// measurement budget (see [`ScenarioBuilder::measure_budget`];
    /// default 64 MiB). Output is bit-identical to the in-memory backend.
    #[must_use]
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Sets the total measurement-memory budget in bytes (estimated
    /// record storage across all vantages). Only meaningful together with
    /// [`ScenarioBuilder::spill_dir`].
    #[must_use]
    // detlint::allow(unread-pub, reason = "library API: the builder form of the spill budget that tests/spill.rs drives; repro sets the field directly")
    pub fn measure_budget(mut self, bytes: usize) -> Self {
        self.measure_budget_bytes = Some(bytes);
        self
    }

    /// Attaches a network-dynamics script (churn, partitions, eclipse,
    /// floods). Entries are validated against the built world's node and
    /// pool population; an out-of-range reference fails the build with a
    /// [`ScenarioError::Dynamics`] naming the offending entry's time.
    #[must_use]
    pub fn dynamics(mut self, script: DynamicsScript) -> Self {
        self.dynamics = script;
        self
    }

    /// Selects the consensus engine every node (and the ground-truth tree)
    /// runs. Defaults to [`ConsensusKind::Heaviest`], the historical
    /// total-difficulty rule pinned by the goldens.
    #[must_use]
    pub fn consensus(mut self, kind: ConsensusKind) -> Self {
        self.consensus = kind;
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Panics
    ///
    /// Panics with a [`ScenarioError`] message on a nonsensical
    /// configuration (zero duration, zero nodes, empty pool directory,
    /// invalid tx rate, zero inter-block time). Use
    /// [`ScenarioBuilder::build_checked`] to handle the error instead.
    pub fn build(self) -> Scenario {
        self.build_checked()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Finalizes the scenario, rejecting nonsensical configurations.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found: zero duration, zero
    /// ordinary nodes, an empty pool directory, a non-positive or
    /// non-finite transaction rate, or a zero inter-block time.
    pub fn build_checked(self) -> Result<Scenario, ScenarioError> {
        let (nodes, duration, rate, net) = match self.preset {
            Preset::Tiny => (60, SimDuration::from_mins(20), 0.5, NetConfig::default()),
            Preset::Small => (150, SimDuration::from_hours(2), 1.0, NetConfig::default()),
            Preset::Medium => (400, SimDuration::from_hours(8), 2.0, NetConfig::default()),
            Preset::PaperScaled => {
                let cfg = NetConfig {
                    tx_relay: ethmeter_net::TxRelayPolicy::Sqrt,
                    ..NetConfig::default()
                };
                (800, SimDuration::from_hours(24), 4.0, cfg)
            }
            Preset::Planet => {
                let cfg = NetConfig {
                    tx_relay: ethmeter_net::TxRelayPolicy::Sqrt,
                    ..NetConfig::default()
                };
                (10_000, SimDuration::from_mins(30), 4.0, cfg)
            }
        };
        let ordinary = self.ordinary_nodes.unwrap_or(nodes);
        if ordinary == 0 {
            return Err(ScenarioError::ZeroNodes);
        }
        let net = self.net.unwrap_or(net);

        let rate = self.workload_rate.unwrap_or(rate);
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(ScenarioError::InvalidTxRate(rate));
        }
        let workload = WorkloadConfig::default().with_rate(rate);
        let interblock = self.interblock.unwrap_or(SimDuration::from_secs_f64(13.3));
        // Hold utilization near the paper's ~80% block fullness. Scaled
        // blocks hold far fewer transactions than mainnet's ~130-slot
        // capacity, so queueing delay at equal utilization is shorter
        // (less variance pooling); running slightly hotter restores the
        // paper's ~2-block median inclusion delay.
        let gas_limit =
            (workload.mean_gas() * rate * interblock.as_secs_f64() / 0.88).round() as Gas;

        let duration = self.duration.unwrap_or(duration);
        if duration == SimDuration::ZERO {
            return Err(ScenarioError::ZeroDuration);
        }
        if interblock == SimDuration::ZERO {
            return Err(ScenarioError::ZeroInterblock);
        }
        let pools = self.pools.unwrap_or_else(PoolDirectory::paper_dsn2020);
        if pools.is_empty() {
            return Err(ScenarioError::EmptyPoolDirectory);
        }
        let measure_budget_bytes = self.measure_budget_bytes.unwrap_or(64 << 20);
        if self.spill_dir.is_some() && measure_budget_bytes == 0 {
            return Err(ScenarioError::ZeroMeasureBudget);
        }
        let vantages = self.vantages.unwrap_or_else(VantagePoint::paper_all);
        // The world numbers ordinary nodes, then pool gateways, then
        // observers — the script may address any of them.
        let gateway_nodes: usize = pools.iter().map(|p| p.gateway_count).sum();
        let total_nodes = ordinary + gateway_nodes + vantages.len();
        self.dynamics
            .validate(total_nodes, pools.len())
            .map_err(ScenarioError::Dynamics)?;

        Ok(Scenario {
            seed: self.seed,
            duration,
            ordinary_nodes: ordinary,
            region_weights: Scenario::default_region_weights(),
            net,
            latency: LatencyModel::default(),
            clock: self.clock.unwrap_or_else(ClockModel::ntp_default),
            pools,
            interblock,
            gas_limit,
            workload,
            vantages,
            miner_lag_mean: SimDuration::from_millis(750),
            gateway_degree: 40,
            shards: self.shards.max(1),
            spill_dir: self.spill_dir,
            measure_budget_bytes,
            dynamics: self.dynamics,
            consensus: self.consensus,
        })
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_consistently() {
        let tiny = Scenario::builder().preset(Preset::Tiny).build();
        let medium = Scenario::builder().preset(Preset::Medium).build();
        assert!(tiny.ordinary_nodes < medium.ordinary_nodes);
        assert!(tiny.duration < medium.duration);
        // Utilization preserved across presets (calibrated to 0.88; see
        // the gas-limit comment in ScenarioBuilder::build).
        let u_tiny = tiny.workload.utilization(tiny.gas_limit, tiny.interblock);
        let u_med = medium
            .workload
            .utilization(medium.gas_limit, medium.interblock);
        assert!((u_tiny - 0.88).abs() < 0.02, "tiny utilization {u_tiny}");
        assert!((u_tiny - u_med).abs() < 0.02);
    }

    #[test]
    fn builder_overrides() {
        let s = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(7)
            .ordinary_nodes(80)
            .tx_rate(2.0)
            .duration(SimDuration::from_mins(5))
            .build();
        assert_eq!(s.seed, 7);
        assert_eq!(s.ordinary_nodes, 80);
        assert_eq!(s.duration, SimDuration::from_mins(5));
        assert!((s.workload.tx_rate - 2.0).abs() < 1e-12);
    }

    #[test]
    fn consensus_defaults_to_heaviest_and_is_selectable() {
        let s = Scenario::builder().preset(Preset::Tiny).build();
        assert_eq!(s.consensus, ConsensusKind::Heaviest);
        let s = Scenario::builder()
            .preset(Preset::Tiny)
            .consensus(ConsensusKind::UncleGhost)
            .build();
        assert_eq!(s.consensus, ConsensusKind::UncleGhost);
        assert_eq!(s.consensus.build().name(), "uncle-ghost");
    }

    #[test]
    fn region_weights_cover_all_regions() {
        let w = Scenario::default_region_weights();
        assert_eq!(w.len(), Region::COUNT);
        let total: f64 = w.iter().map(|&(_, x)| x).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paper_scaled_uses_sqrt_relay() {
        let s = Scenario::builder().preset(Preset::PaperScaled).build();
        assert_eq!(s.net.tx_relay, ethmeter_net::TxRelayPolicy::Sqrt);
    }

    #[test]
    fn planet_preset_and_shards_knob() {
        let s = Scenario::builder().preset(Preset::Planet).shards(4).build();
        assert_eq!(s.ordinary_nodes, 10_000);
        assert_eq!(s.net.tx_relay, ethmeter_net::TxRelayPolicy::Sqrt);
        assert_eq!(s.shards, 4);
        // Default is the sequential reference; zero clamps to it.
        assert_eq!(Scenario::builder().preset(Preset::Tiny).build().shards, 1);
        assert_eq!(
            Scenario::builder()
                .preset(Preset::Tiny)
                .shards(0)
                .build()
                .shards,
            1
        );
    }

    #[test]
    fn spill_knobs_flow_through() {
        let s = Scenario::builder()
            .preset(Preset::Tiny)
            .spill_dir("/tmp/ethmeter-spill")
            .measure_budget(1 << 20)
            .build();
        assert_eq!(
            s.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ethmeter-spill"))
        );
        assert_eq!(s.measure_budget_bytes, 1 << 20);
        // Defaults: no spill, 64 MiB budget.
        let d = Scenario::builder().preset(Preset::Tiny).build();
        assert!(d.spill_dir.is_none());
        assert_eq!(d.measure_budget_bytes, 64 << 20);
        // Zero budget with a spill dir is rejected.
        assert_eq!(
            Scenario::builder()
                .preset(Preset::Tiny)
                .spill_dir("/tmp/x")
                .measure_budget(0)
                .build_checked()
                .err(),
            Some(ScenarioError::ZeroMeasureBudget)
        );
    }

    #[test]
    fn build_checked_rejects_nonsense() {
        let builder = || Scenario::builder().preset(Preset::Tiny);
        assert_eq!(
            builder().duration(SimDuration::ZERO).build_checked().err(),
            Some(ScenarioError::ZeroDuration)
        );
        assert_eq!(
            builder().ordinary_nodes(0).build_checked().err(),
            Some(ScenarioError::ZeroNodes)
        );
        assert_eq!(
            builder().tx_rate(0.0).build_checked().err(),
            Some(ScenarioError::InvalidTxRate(0.0))
        );
        assert!(matches!(
            builder().tx_rate(f64::NAN).build_checked(),
            Err(ScenarioError::InvalidTxRate(_))
        ));
        assert_eq!(
            builder()
                .interblock(SimDuration::ZERO)
                .build_checked()
                .err(),
            Some(ScenarioError::ZeroInterblock)
        );
        // A valid configuration builds identically through either path.
        let checked = builder().seed(9).build_checked().expect("valid");
        let unchecked = builder().seed(9).build();
        assert_eq!(checked.seed, unchecked.seed);
        assert_eq!(checked.gas_limit, unchecked.gas_limit);
        // Error messages explain themselves.
        assert!(ScenarioError::ZeroNodes.to_string().contains("zero"));
    }

    #[test]
    fn dynamics_scripts_validate_against_the_world() {
        use ethmeter_dynamics::{DynamicsError, DynamicsEvent};
        use ethmeter_types::{NodeId, SimTime};

        // Default: the static world.
        let s = Scenario::builder().preset(Preset::Tiny).build();
        assert!(s.dynamics.is_empty());

        // A valid script flows through.
        let at = SimTime::ZERO + SimDuration::from_mins(1);
        let ok = Scenario::builder()
            .preset(Preset::Tiny)
            .dynamics(DynamicsScript::new().churn_window(at, SimDuration::from_mins(2), NodeId(3)))
            .build();
        assert_eq!(ok.dynamics.entries().len(), 2);

        // Out-of-world references are rejected with the offending time.
        let err = Scenario::builder()
            .preset(Preset::Tiny)
            .dynamics(DynamicsScript::new().at(at, DynamicsEvent::NodeDown(NodeId(100_000))))
            .build_checked()
            .err();
        assert_eq!(
            err,
            Some(ScenarioError::Dynamics(DynamicsError::UnknownNode {
                at,
                node: NodeId(100_000)
            }))
        );
    }

    #[test]
    #[should_panic(expected = "invalid scenario: scenario duration is zero")]
    fn build_panics_with_a_clear_message() {
        let _ = Scenario::builder()
            .preset(Preset::Tiny)
            .duration(SimDuration::ZERO)
            .build();
    }

    #[test]
    fn set_tx_rate_preserves_utilization() {
        let mut s = Scenario::builder().preset(Preset::Tiny).build();
        let u_before = s.workload.utilization(s.gas_limit, s.interblock);
        s.set_tx_rate(2.0);
        let u_after = s.workload.utilization(s.gas_limit, s.interblock);
        assert!((s.workload.tx_rate - 2.0).abs() < 1e-12);
        assert!((u_before - u_after).abs() < 0.01, "{u_before} vs {u_after}");
        // Matches what the builder would have produced for the same rate,
        // up to the builder's integer rounding of the gas limit.
        let rebuilt = Scenario::builder()
            .preset(Preset::Tiny)
            .tx_rate(2.0)
            .build();
        assert!((s.gas_limit as i64 - rebuilt.gas_limit as i64).abs() <= 4);
    }
}
