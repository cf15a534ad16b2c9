//! End-to-end integration tests: full campaigns through the public facade.

use ethmeter::analysis::{commit, first_observation, propagation, redundancy};
use ethmeter::measure::csv;
use ethmeter::prelude::*;

fn tiny_campaign(seed: u64) -> CampaignData {
    let scenario = Scenario::builder()
        .preset(Preset::Tiny)
        .seed(seed)
        .duration(SimDuration::from_mins(10))
        .build();
    run_campaign(&scenario).campaign
}

#[test]
fn campaign_is_bit_reproducible() {
    let a = tiny_campaign(123);
    let b = tiny_campaign(123);
    assert_eq!(a.truth.tree.head(), b.truth.tree.head());
    assert_eq!(a.truth.tree.len(), b.truth.tree.len());
    assert_eq!(a.truth.txs.len(), b.truth.txs.len());
    // Observer logs identical via their canonical CSV serialization.
    for (oa, ob) in a.observers.iter().zip(b.observers.iter()) {
        assert_eq!(oa.0.name, ob.0.name);
        assert_eq!(csv::blocks_to_csv(&oa.1), csv::blocks_to_csv(&ob.1));
        assert_eq!(csv::txs_to_csv(&oa.1), csv::txs_to_csv(&ob.1));
    }
}

#[test]
fn different_seeds_diverge() {
    let a = tiny_campaign(1);
    let b = tiny_campaign(2);
    assert_ne!(a.truth.tree.head(), b.truth.tree.head());
}

#[test]
fn observers_see_ground_truth_blocks_only() {
    let data = tiny_campaign(9);
    for (v, log) in &data.observers {
        for rec in log.scan_blocks() {
            assert!(
                data.truth.tree.contains(rec.hash),
                "observer {} logged unknown block {}",
                v.name,
                rec.hash
            );
        }
        for rec in log.scan_txs() {
            assert!(
                data.truth.txs.contains_key(&rec.id),
                "observer {} logged unknown tx {}",
                v.name,
                rec.id
            );
        }
    }
}

#[test]
fn main_observers_achieve_high_block_coverage() {
    let data = tiny_campaign(5);
    let produced = data.truth.tree.len() as f64 - 1.0; // minus genesis
    for (v, log) in data.main_observers() {
        let coverage = log.block_count() as f64 / produced;
        assert!(
            coverage > 0.9,
            "observer {} saw only {:.0}% of blocks",
            v.name,
            coverage * 100.0
        );
    }
}

#[test]
fn canonical_blocks_only_contain_known_txs_in_order() {
    let data = tiny_campaign(11);
    let mut seen = std::collections::HashSet::new();
    let mut next_nonce: std::collections::HashMap<_, u64> = Default::default();
    for block in data.truth.tree.canonical_blocks() {
        for txid in block.txs() {
            assert!(seen.insert(*txid), "tx {txid} committed twice");
            let tx = &data.truth.txs[txid];
            let expected = next_nonce.entry(tx.sender).or_insert(0);
            assert_eq!(
                tx.nonce, *expected,
                "sender {} nonce gap in canonical chain",
                tx.sender
            );
            *expected += 1;
        }
    }
}

#[test]
fn csv_round_trips_on_real_logs() {
    let data = tiny_campaign(3);
    let (_, log) = &data.observers[0];
    let blocks = csv::blocks_from_csv(&csv::blocks_to_csv(log)).expect("valid block csv");
    assert_eq!(blocks.len(), log.block_count());
    let txs = csv::txs_from_csv(&csv::txs_to_csv(log)).expect("valid tx csv");
    assert_eq!(txs.len(), log.tx_count());
}

#[test]
fn analyzers_run_on_any_seed() {
    for seed in [21, 22] {
        let data = tiny_campaign(seed);
        let fig1 = propagation::analyze(&data);
        assert!(fig1.blocks_measured > 0);
        let fig2 = first_observation::geo(&data);
        let total: f64 = fig2.per_vantage.iter().map(|(_, s, _)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(redundancy::analyze(&data).is_ok());
        let fig4 = commit::analyze(&data);
        assert!(fig4.txs_measured > 0);
    }
}
