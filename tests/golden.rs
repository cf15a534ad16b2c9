//! Golden determinism fingerprints.
//!
//! Each pinned constant is the [`CampaignData::fingerprint`] digest of one
//! fully specified campaign (preset + seed + duration), captured from the
//! seed implementation *before* the dense-state hot-path rewrite. Any
//! change to gossip decisions, RNG stream consumption, event ordering, or
//! observer recording shifts these digests — so a performance refactor
//! that is supposed to be behavior-preserving must leave every constant
//! untouched.
//!
//! If a change is *intended* to alter campaign behavior (a model fix, a
//! calibration change), re-capture with:
//!
//! ```text
//! ETHMETER_BLESS=1 cargo test --test golden -- --nocapture
//! ```
//!
//! and update the constants in `tests/common/mod.rs` (the one shared
//! golden table), explaining the behavioral change in the commit message.

use ethmeter::prelude::*;

mod common;
use common::GOLDENS;

fn scenario(preset: Preset, seed: u64, mins: u64) -> Scenario {
    Scenario::builder()
        .preset(preset)
        .seed(seed)
        .duration(SimDuration::from_mins(mins))
        .build()
}

#[test]
fn campaign_fingerprints_match_goldens() {
    let bless = std::env::var_os("ETHMETER_BLESS").is_some();
    let mut failures = Vec::new();
    for &(label, preset, seed, mins, expected) in &GOLDENS {
        let got = run_campaign(&scenario(preset, seed, mins))
            .campaign
            .fingerprint();
        if bless {
            println!("(\"{label}\", Preset::{preset:?}, {seed}, {mins}, {got:#018x}),");
        } else if got != expected {
            failures.push(format!(
                "{label}: fingerprint {got:#018x}, pinned {expected:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "campaign output diverged from the pinned goldens:\n  {}\n\
         (ETHMETER_BLESS=1 re-captures; only bless intentional behavior changes)",
        failures.join("\n  ")
    );
}

#[test]
fn sharded_campaigns_match_the_sequential_goldens() {
    // The parallel engine must land on the *same* pinned digests as the
    // sequential reference at every shard count — the goldens are
    // shard-count-invariant, not merely reproducible per count.
    for &(label, preset, seed, mins, expected) in &GOLDENS {
        for shards in [2, 4, 8] {
            let s = Scenario::builder()
                .preset(preset)
                .seed(seed)
                .duration(SimDuration::from_mins(mins))
                .shards(shards)
                .build();
            let got = run_campaign(&s).campaign.fingerprint();
            assert_eq!(
                got, expected,
                "{label} at {shards} shards: fingerprint {got:#018x}, pinned {expected:#018x}"
            );
        }
    }
}

/// FNV-1a digest of the chain-only text below, pinned like the campaign
/// goldens (`ETHMETER_BLESS=1` prints the current value).
const CHAIN_ONLY_TEXT: u64 = 0x0d07_3396_5f91_11ea;

/// The chain-only artifacts as text: the paper month's Fig. 7 / §III-D
/// table (its exact run-length probabilities included) and a 3×2
/// selfish-threshold grid, rendered and as JSON. A change to the miner
/// draws, the run-length theory or the race's uncle choice moves it.
#[test]
fn chain_only_text_matches_its_pinned_digest() {
    let month = ethmeter::experiments::fig7_month(7);
    let selfish =
        ethmeter::experiments::selfish_threshold(&[0.2, 0.3, 0.4], &[0.0, 1.0], 7, 1, 5_000);
    let text = format!("{month}\n\n{selfish}\n\n{}\n", selfish.to_json());
    let got = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    if std::env::var_os("ETHMETER_BLESS").is_some() {
        println!("CHAIN_ONLY_TEXT = {got:#018x}");
    } else {
        assert_eq!(
            got, CHAIN_ONLY_TEXT,
            "chain-only text digest {got:#018x}, pinned {CHAIN_ONLY_TEXT:#018x}:\n{text}"
        );
    }
}

/// Eviction-heavy campaigns: `Preset::Tiny` for 10 minutes with
/// known-set bounds small enough that every peer queue fills and evicts
/// many times over, as (known-tx bound, known-block bound, fingerprint),
/// pinned like the campaign goldens (`ETHMETER_BLESS=1` prints them).
///
/// At the default bounds no golden fills a queue. At 50 transactions and
/// 8 blocks every queue evicts, but eviction changes nothing: the same
/// campaign at the default bounds has this digest too, so there the
/// golden checks the pop path through the debug build's "queues hold only
/// live keys" assertion. A bound of 2 blocks is below the blocks still in
/// flight, so evicted announcements are sent again and the digest depends
/// on which key every pop returns, in either build.
const EVICTION_HEAVY: [(usize, usize, u64); 2] = [
    (50, 8, 0xdb98_bdb9_eb2f_8543),
    (50, 2, 0x9fc9_2cd1_b025_43f2),
];

#[test]
fn eviction_heavy_campaigns_match_their_goldens() {
    let bless = std::env::var_os("ETHMETER_BLESS").is_some();
    for (known_txs_cap, known_blocks_cap, expected) in EVICTION_HEAVY {
        let net = ethmeter::net::NetConfig {
            known_txs_cap,
            known_blocks_cap,
            ..ethmeter::net::NetConfig::default()
        };
        for shards in [1, 4] {
            let s = Scenario::builder()
                .preset(Preset::Tiny)
                .seed(101)
                .duration(SimDuration::from_mins(10))
                .net(net.clone())
                .shards(shards)
                .build();
            let got = run_campaign(&s).campaign.fingerprint();
            let label = format!("bounds {known_txs_cap}/{known_blocks_cap} at {shards} shards");
            if bless {
                println!("{label}: {got:#018x}");
            } else {
                assert_eq!(
                    got, expected,
                    "{label}: fingerprint {got:#018x}, pinned {expected:#018x}"
                );
            }
        }
    }
}

#[test]
fn fingerprint_is_reproducible_and_seed_sensitive() {
    let s = scenario(Preset::Tiny, 101, 5);
    let a = run_campaign(&s).campaign.fingerprint();
    let b = run_campaign(&s).campaign.fingerprint();
    assert_eq!(a, b, "same scenario, same digest");
    let c = run_campaign(&scenario(Preset::Tiny, 102, 5))
        .campaign
        .fingerprint();
    assert_ne!(a, c, "different seeds must diverge");
}

/// FNV-1a digest of the campaign reports below, pinned like the campaign
/// goldens (`ETHMETER_BLESS=1` prints the current value).
const CAMPAIGN_REPORTS: u64 = 0xd11f_6eaf_5138_08cb;

/// The results layer as text: every report of the tiny-101 campaign as
/// `repro all` prints it, plus the revenue table, and the CSV and JSON of
/// the four scalar probe sets over a 2-seed grid on two threads. A change
/// to a statistic, a report's rendering or the cross-seed aggregation
/// moves it.
#[test]
fn campaign_reports_match_their_pinned_digest() {
    use ethmeter::experiments::{self, Suite};
    let data = run_campaign(&scenario(Preset::Tiny, 101, 5)).campaign;
    let suite = Suite::from_campaign(&data);
    let table2 = match &suite.table2 {
        Ok(r) => r.to_string(),
        Err(e) => format!("Table II unavailable: {e}"),
    };
    let mut text = format!(
        "{}\n\n{}\n\n{table2}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}\n\n{}\n",
        experiments::table1(&data),
        suite.fig1,
        suite.fig2,
        suite.fig3,
        suite.fig4,
        suite.fig5,
        suite.fig6,
        suite.table3,
        suite.fig7,
        ethmeter::analysis::rewards::analyze(&data),
        suite.decentralization,
    );
    let (headline, decentralization, revenue, reorg) = Grid::new(scenario(Preset::Tiny, 0, 5))
        .seed_range(11, 2)
        .threads(2)
        .run((
            experiments::headline_scalars(),
            experiments::decentralization_scalars(),
            experiments::revenue_scalars(ethmeter::types::PoolId(0)),
            experiments::reorg_scalars(),
        ))
        .output;
    for report in [headline, decentralization, revenue, reorg] {
        text.push_str(&report.to_csv());
        text.push_str(&report.to_json());
    }
    let got = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    if std::env::var_os("ETHMETER_BLESS").is_some() {
        println!("CAMPAIGN_REPORTS = {got:#018x}");
    } else {
        assert_eq!(
            got, CAMPAIGN_REPORTS,
            "campaign report digest {got:#018x}, pinned {CAMPAIGN_REPORTS:#018x}:\n{text}"
        );
    }
}
