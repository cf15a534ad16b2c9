//! One-call campaign execution, and the reusable worker runner.

use ethmeter_measure::CampaignData;
use ethmeter_sim::engine::RunOutcome;
use ethmeter_sim::Engine;
use ethmeter_types::SimTime;

use crate::scenario::Scenario;
use crate::world::{RunStats, SimWorld};

/// The result of running a campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The measurement dataset (observer logs + ground truth).
    pub campaign: CampaignData,
    /// Engine/world counters.
    pub stats: RunStats,
    /// Total events processed.
    pub events: u64,
}

/// Runs a scenario to its configured duration and returns the dataset:
/// one [`CampaignRunner`] run on a world built for it.
///
/// Deterministic: the same scenario and seed produce an identical
/// [`CampaignData`]. Scenarios with `shards > 1` run on the sharded
/// parallel engine ([`crate::par::run_campaign_sharded`]), whose output
/// is bit-identical to the sequential reference at any shard count.
pub fn run_campaign(scenario: &Scenario) -> CampaignOutcome {
    CampaignRunner::new().run(scenario)
}

/// A reusable campaign worker: one engine + one world, reset between
/// runs.
///
/// Building a world — registries, node tables, per-peer known-set probe
/// tables, the event queue's slab — costs nothing that matters for a
/// single campaign; for a sweep worker executing hundreds of jobs it is
/// pure overhead. `CampaignRunner` keeps one [`SimWorld`] and its
/// [`Engine`] alive across a whole job stream, resetting them between
/// runs so those allocations are reused. Each run's observer logs and
/// transaction table move out with its [`CampaignData`], so nothing of
/// one job's dataset stays behind in the worker.
///
/// The contract is exact equivalence: a reused runner returns a
/// [`CampaignOutcome`] bit-identical to a fresh one's ([`run_campaign`])
/// for every scenario, in any order, regardless of what ran before
/// (pinned by the reset proptest below and the sweep equivalence suite).
#[derive(Debug, Default)]
pub struct CampaignRunner {
    engine: Option<Engine<SimWorld>>,
}

impl CampaignRunner {
    /// Creates a runner with no world yet (built lazily on first run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one campaign, reusing the previous run's allocations.
    ///
    /// Scenarios with `shards > 1` are handed to the sharded parallel
    /// engine, which builds per-shard worlds for that run instead of
    /// reusing this runner's (the outputs are still bit-identical).
    pub fn run(&mut self, scenario: &Scenario) -> CampaignOutcome {
        if scenario.shards > 1 {
            return crate::par::run_campaign_sharded(scenario);
        }
        let engine = match self.engine.as_mut() {
            Some(engine) => {
                engine.reset();
                engine.world_mut().reset(scenario);
                engine
            }
            None => self.engine.insert(Engine::new(SimWorld::new(scenario))),
        };
        for (t, e) in engine.world_mut().initial_events() {
            engine.schedule(t, e);
        }
        let outcome = engine.run_until(SimTime::ZERO + scenario.duration);
        debug_assert!(
            outcome == RunOutcome::DeadlineReached || outcome == RunOutcome::QueueExhausted,
            "unexpected engine outcome {outcome:?}"
        );
        CampaignOutcome {
            stats: engine.world().stats,
            events: engine.processed(),
            campaign: engine.world_mut().take_campaign(scenario.duration),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;
    use ethmeter_types::SimDuration;

    #[test]
    fn tiny_campaign_runs_end_to_end() {
        let scenario = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(3)
            .duration(SimDuration::from_mins(4))
            .build();
        let outcome = run_campaign(&scenario);
        assert!(outcome.events > 0);
        assert!(outcome.campaign.truth.tree.head_number() > 5);
        assert_eq!(outcome.campaign.observers.len(), scenario.vantages.len());
        // Ground-truth duration recorded.
        assert_eq!(outcome.campaign.truth.duration, scenario.duration);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let scenario = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(11)
            .duration(SimDuration::from_mins(3))
            .build();
        let a = run_campaign(&scenario);
        let b = run_campaign(&scenario);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.events, b.events);
        assert_eq!(a.campaign.truth.tree.head(), b.campaign.truth.tree.head());
    }

    #[test]
    fn reused_runner_matches_one_shot_execution() {
        let mut runner = CampaignRunner::new();
        for seed in [5, 6, 5] {
            let scenario = Scenario::builder()
                .preset(Preset::Tiny)
                .seed(seed)
                .duration(SimDuration::from_mins(2))
                .build();
            let reused = runner.run(&scenario);
            let fresh = run_campaign(&scenario);
            assert_eq!(reused.stats, fresh.stats, "seed {seed}");
            assert_eq!(reused.events, fresh.events, "seed {seed}");
            assert_eq!(
                reused.campaign.fingerprint(),
                fresh.campaign.fingerprint(),
                "seed {seed}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scenario::Preset;
    use ethmeter_types::SimDuration;
    use proptest::prelude::*;

    proptest! {
        /// A `SimWorld::reset`-reused world must produce a campaign
        /// fingerprint identical to a freshly constructed world, across
        /// random seeds and preset shapes. The runner persists across
        /// cases, so every case also exercises "reset after an arbitrary
        /// previous job" — the sweep worker's exact usage pattern.
        #[test]
        fn reset_reuse_is_fingerprint_identical(
            seed in 0u64..1_000_000,
            shape in 0u8..3,
            mins in 1u64..3,
        ) {
            use std::cell::RefCell;
            thread_local! {
                static RUNNER: RefCell<CampaignRunner> =
                    RefCell::new(CampaignRunner::new());
            }
            let builder = Scenario::builder().seed(seed).duration(SimDuration::from_mins(mins));
            let scenario = match shape {
                0 => builder.preset(Preset::Tiny).build(),
                1 => builder.preset(Preset::Tiny).ordinary_nodes(40).build(),
                _ => builder.preset(Preset::Tiny).tx_rate(1.5).build(),
            };
            let fresh = run_campaign(&scenario);
            let reused = RUNNER.with(|r| r.borrow_mut().run(&scenario));
            prop_assert_eq!(reused.stats, fresh.stats);
            prop_assert_eq!(reused.events, fresh.events);
            prop_assert_eq!(reused.campaign.fingerprint(), fresh.campaign.fingerprint());
        }
    }
}
