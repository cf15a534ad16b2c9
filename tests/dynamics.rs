//! Runtime-dynamics integration suite: scripted churn, partitions, and
//! eclipse attacks must leave static campaigns byte-identical, stay
//! fingerprint-invariant across shard counts, and drive the reorg-depth
//! tail the way the double-spend model predicts.

use ethmeter::experiments;
use ethmeter::prelude::*;
use ethmeter::run_campaign_sharded;
use ethmeter::sim::Engine;
use ethmeter::types::{NodeId, PoolId};
use ethmeter::SimWorld;

mod common;
use common::GOLDENS;

/// An explicitly attached *empty* script must leave the pinned goldens
/// byte-identical: the dynamics machinery may not perturb a static
/// world's RNG streams, event order, or timing by a single bit.
#[test]
fn empty_dynamics_script_leaves_goldens_byte_identical() {
    for &(label, preset, seed, mins, expected) in GOLDENS
        .iter()
        .filter(|(l, ..)| *l == "tiny-101" || *l == "small-707")
    {
        let scenario = Scenario::builder()
            .preset(preset)
            .seed(seed)
            .duration(SimDuration::from_mins(mins))
            .dynamics(DynamicsScript::new())
            .build();
        assert_eq!(
            run_campaign(&scenario).campaign.fingerprint(),
            expected,
            "{label}: empty script must be a no-op"
        );
    }
}

fn partition_scenario(seed: u64, shards: usize) -> Scenario {
    let (east, west) = experiments::east_west_masks();
    let script = DynamicsScript::new().partition_window(
        SimTime::ZERO + SimDuration::from_secs(30),
        SimDuration::from_secs(60),
        east,
        west,
    );
    Scenario::builder()
        .preset(Preset::Tiny)
        .seed(seed)
        .duration(SimDuration::from_mins(3))
        .shards(shards)
        .dynamics(script)
        .build()
}

#[test]
fn partition_script_fingerprint_is_shard_invariant() {
    let sequential = run_campaign(&partition_scenario(11, 1));
    for shards in [2, 4, 8] {
        let sharded = run_campaign_sharded(&partition_scenario(11, shards));
        assert_eq!(sharded.stats, sequential.stats, "{shards} shards");
        assert_eq!(sharded.events, sequential.events, "{shards} shards");
        assert_eq!(
            sharded.campaign.fingerprint(),
            sequential.campaign.fingerprint(),
            "{shards} shards"
        );
    }
}

fn eclipse_scenario(seed: u64, shards: usize) -> Scenario {
    let script = DynamicsScript::new().eclipse_window(
        SimTime::ZERO + SimDuration::from_secs(45),
        SimDuration::from_secs(90),
        PoolId(0),
    );
    Scenario::builder()
        .preset(Preset::Tiny)
        .seed(seed)
        .duration(SimDuration::from_mins(4))
        .pools(experiments::victim_vs_rest_pools(0.3, 2))
        .shards(shards)
        .dynamics(script)
        .build()
}

#[test]
fn eclipse_script_fingerprint_is_shard_invariant() {
    let sequential = run_campaign(&eclipse_scenario(13, 1));
    for shards in [2, 4, 8] {
        let sharded = run_campaign_sharded(&eclipse_scenario(13, shards));
        assert_eq!(sharded.stats, sequential.stats, "{shards} shards");
        assert_eq!(sharded.events, sequential.events, "{shards} shards");
        assert_eq!(
            sharded.campaign.fingerprint(),
            sequential.campaign.fingerprint(),
            "{shards} shards"
        );
    }
}

/// A longer eclipse gives the victim more wall time to mine its island
/// chain, so every level of the `P(revert ≥ k)` tail must grow (weakly,
/// and strictly somewhere) with the eclipse duration.
#[test]
fn eclipse_duration_thickens_the_reorg_tail() {
    let base = Scenario::builder()
        .preset(Preset::Tiny)
        .seed(7)
        .duration(SimDuration::from_mins(8))
        .pools(experiments::victim_vs_rest_pools(0.3, 2))
        .build();
    let start = SimDuration::from_secs(60);
    let reports: Vec<_> = [0u64, 120, 300]
        .iter()
        .map(|&secs| {
            experiments::eclipse_reorg_report(&base, PoolId(0), start, SimDuration::from_secs(secs))
        })
        .collect();
    for k in 1..=12u32 {
        for (shorter, longer) in reports.iter().zip(reports.iter().skip(1)) {
            assert!(
                longer.p_revert(k) >= shorter.p_revert(k) - 1e-12,
                "P(revert >= {k}) shrank with a longer eclipse: {} -> {}",
                shorter.p_revert(k),
                longer.p_revert(k)
            );
        }
    }
    assert!(
        reports[2].abandoned_blocks > reports[0].abandoned_blocks,
        "a 5-minute eclipse must revert more blocks than no eclipse \
         ({} vs {})",
        reports[2].abandoned_blocks,
        reports[0].abandoned_blocks
    );
    assert!(
        reports[2].max_depth >= 2,
        "a 5-minute eclipse at 30% hash power should mine >= 2 island \
         blocks, got max depth {}",
        reports[2].max_depth
    );
    assert!(reports[2].p_revert(2) > reports[0].p_revert(2));
}

/// Snapshot of every node's peer set, order-independent.
fn peer_sets(world: &SimWorld, nodes: usize) -> Vec<std::collections::BTreeSet<NodeId>> {
    (0..nodes)
        .map(|i| world.peers_of(NodeId(i as u32)).iter().copied().collect())
        .collect()
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ethmeter::types::Region;
    use proptest::prelude::*;

    proptest! {
        /// Random partition/heal + churn scripts (all windows closed
        /// before the deadline) must (a) restore every node's exact peer
        /// set — full reachability — and (b) keep the campaign
        /// fingerprint invariant between the sequential engine and a
        /// random shard count.
        #[test]
        fn healed_scripts_restore_topology_and_stay_shard_invariant(
            seed in 0u64..1_000_000,
            split_sel in 0u8..3,
            part_start in 5u64..20,
            part_secs in 5u64..25,
            churn_frac in 0u8..4,
            shards_sel in 0u8..3,
        ) {
            let east = match split_sel {
                0 => RegionMask::of(&[Region::EasternAsia, Region::SouthAsia, Region::Oceania]),
                1 => RegionMask::of(&[Region::NorthAmerica, Region::SouthAmerica]),
                _ => RegionMask::of(&[Region::WesternEurope, Region::CentralEurope, Region::EasternEurope]),
            };
            let secs = 75u64;
            let script = DynamicsScript::new()
                .partition_window(
                    SimTime::ZERO + SimDuration::from_secs(part_start),
                    SimDuration::from_secs(part_secs),
                    east,
                    east.complement(),
                )
                .churn(
                    seed ^ 0x9e3779b97f4a7c15,
                    16,
                    f64::from(churn_frac) * 0.1,
                    SimTime::ZERO + SimDuration::from_secs(5),
                    SimDuration::from_secs(30),
                    SimDuration::from_secs(20),
                );
            let build = |shards: usize| {
                Scenario::builder()
                    .preset(Preset::Tiny)
                    .seed(seed)
                    .duration(SimDuration::from_secs(secs))
                    .shards(shards)
                    .dynamics(script.clone())
                    .build()
            };

            // (a) Reachability: run the sequential world directly and
            // compare every post-heal peer set with the freshly built
            // topology.
            let scenario = build(1);
            let mut world = SimWorld::new(&scenario);
            let nodes = world.node_count();
            let before = peer_sets(&world, nodes);
            let initial = world.initial_events();
            let mut engine = Engine::new(world);
            for (t, e) in initial {
                engine.schedule(t, e);
            }
            engine.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
            let world = engine.into_world();
            let after = peer_sets(&world, nodes);
            prop_assert_eq!(&after, &before);

            // (b) Sharded determinism under the same script.
            let shards = [2usize, 4, 8][shards_sel as usize];
            let sequential = run_campaign(&build(1));
            let sharded = run_campaign_sharded(&build(shards));
            prop_assert_eq!(sequential.stats, sharded.stats);
            prop_assert_eq!(sequential.events, sharded.events);
            prop_assert_eq!(
                sequential.campaign.fingerprint(),
                sharded.campaign.fingerprint()
            );
        }
    }
}
