//! Out-of-core measurement equivalence.
//!
//! The columnar spill backend is a *capacity* feature, not a behavior
//! change: a campaign whose observer logs overflow to on-disk segments
//! must produce bit-identical exports, fingerprints, and reports to the
//! all-in-memory run. These suites pin that equivalence across seeds,
//! budgets (down to a pathological 1-byte budget that spills every
//! append), shard counts, and the report families that consume the logs
//! through the streaming scan API.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

use ethmeter::analysis::propagation;
use ethmeter::prelude::*;
use proptest::prelude::*;

mod common;
use common::digest;

/// A scratch spill directory under the system temp dir, unique per tag so
/// concurrent test binaries never collide. Segments unlink themselves on
/// drop; the directory itself is left behind (empty) and reused.
fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ethmeter-spill-equiv-{tag}"));
    std::fs::create_dir_all(&dir).expect("create spill dir");
    dir
}

fn scenario(preset: Preset, seed: u64, mins: u64) -> Scenario {
    Scenario::builder()
        .preset(preset)
        .seed(seed)
        .duration(SimDuration::from_mins(mins))
        .build()
}

fn spilled(
    preset: Preset,
    seed: u64,
    mins: u64,
    tag: &str,
    budget: usize,
    shards: usize,
) -> Scenario {
    Scenario::builder()
        .preset(preset)
        .seed(seed)
        .duration(SimDuration::from_mins(mins))
        .spill_dir(spill_dir(tag))
        .measure_budget(budget)
        .shards(shards)
        .build()
}

/// In-memory reference fingerprints, computed once per (preset, seed)
/// across all property cases (the spilled run under test is recomputed
/// every case).
fn reference_fingerprint(preset: Preset, seed: u64, mins: u64) -> u64 {
    type FpCache = HashMap<(u8, u64, u64), u64>;
    static CACHE: Mutex<Option<FpCache>> = Mutex::new(None);
    let key = (preset as u8, seed, mins);
    let mut guard = CACHE.lock().expect("cache lock");
    let cache = guard.get_or_insert_with(HashMap::new);
    if let Some(&fp) = cache.get(&key) {
        return fp;
    }
    let fp = run_campaign(&scenario(preset, seed, mins))
        .campaign
        .fingerprint();
    cache.insert(key, fp);
    fp
}

proptest! {
    /// Over seed × preset × budget, the spilled campaign fingerprint
    /// equals the in-memory fingerprint — the CSV export (and hence
    /// every digest of it) cannot tell the backends apart.
    #[test]
    fn spilled_fingerprint_matches_in_memory(pick in (0u64..4, 0usize..4, 0usize..4)) {
        let (seed_ix, preset_ix, budget_ix) = pick;
        let seed = [11, 23, 47, 91][seed_ix as usize];
        // Tiny-biased so the common case stays fast; the Small arm keeps
        // the larger-topology layout honest (more vantages, more pools).
        let (preset, mins) = [
            (Preset::Tiny, 2),
            (Preset::Tiny, 2),
            (Preset::Tiny, 3),
            (Preset::Small, 1),
        ][preset_ix];
        // 1 B forces a segment per flush-sized batch; the larger budgets
        // exercise partial spill and the never-spills regime.
        let budget = [1, 1 << 12, 1 << 16, 64 << 20][budget_ix];
        let spilled = run_campaign(&spilled(preset, seed, mins, "prop", budget, 1))
            .campaign
            .fingerprint();
        prop_assert_eq!(spilled, reference_fingerprint(preset, seed, mins));
    }
}

#[test]
fn spilled_sharded_campaign_matches_the_pinned_golden() {
    // The strongest cross-check available: spill + sharding together must
    // land on the digest pinned from the seed implementation, at every
    // shard count and under a budget small enough that segments are
    // guaranteed on disk.
    for shards in [1, 2, 4, 8] {
        let s = spilled(Preset::Tiny, 101, 5, "golden", 1 << 12, shards);
        let got = run_campaign(&s).campaign.fingerprint();
        assert_eq!(
            got,
            digest("tiny-101"),
            "spilled tiny-101 at {shards} shards diverged from the pinned golden"
        );
    }
}

/// Columnar segments flushed to disk, summed over the vantages.
fn spilled_segments(campaign: &CampaignData) -> usize {
    campaign
        .observers
        .iter()
        .map(|(_, log)| log.spilled_segments())
        .sum()
}

#[test]
fn spilled_logs_actually_spill_and_clean_up() {
    let dir = spill_dir("observe");
    let s = Scenario::builder()
        .preset(Preset::Tiny)
        .seed(101)
        .duration(SimDuration::from_mins(2))
        .spill_dir(dir.clone())
        .measure_budget(1 << 12)
        .build();
    let outcome = run_campaign(&s);
    assert!(
        spilled_segments(&outcome.campaign) > 0,
        "a 4 KiB campaign-wide budget must push segments to disk"
    );
    drop(outcome);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("spill dir readable")
        .filter_map(Result::ok)
        .map(|e| e.file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "dropping the campaign must unlink every segment, found {leftovers:?}"
    );
}

#[test]
fn spilled_peak_is_bounded_by_the_budget_not_the_campaign() {
    // The out-of-core claim in one number: spilled under *half* its own
    // in-memory observer-log peak (floored at 4 KiB), a campaign's summed
    // log high-water mark stays under 1.5x that budget — live maps plus
    // the per-segment key filters — while the dataset stays bit-identical.
    let log_peak = |c: &CampaignData| -> usize {
        c.observers
            .iter()
            .map(|(_, log)| log.peak_mem_bytes())
            .sum()
    };
    for (preset, tag) in [(Preset::Tiny, "bound-tiny"), (Preset::Small, "bound-small")] {
        let mem = run_campaign(&scenario(preset, 7, 2)).campaign;
        let budget = (log_peak(&mem) / 2).max(4096);
        let spill = run_campaign(&spilled(preset, 7, 2, tag, budget, 1)).campaign;
        assert_eq!(spill.fingerprint(), mem.fingerprint(), "{tag}");
        assert!(
            spilled_segments(&spill) > 0,
            "{tag}: half the peak must force segments out"
        );
        let peak = log_peak(&spill);
        assert!(
            (peak as f64) < 1.5 * budget as f64,
            "{tag}: spilled peak {peak} B vs budget {budget} B"
        );
    }
}

#[test]
fn propagation_report_is_shard_count_invariant() {
    // Part of the merge-stability contract: the propagation report (its
    // exact delay sample and every statistic drawn from it) is
    // *bit-identical* at every shard count.
    let reference = propagation::analyze(&run_campaign(&scenario(Preset::Tiny, 101, 5)).campaign);
    assert!(!reference.delays.is_empty(), "campaign must measure delays");
    for shards in [2, 4, 8] {
        let s = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(101)
            .duration(SimDuration::from_mins(5))
            .shards(shards)
            .build();
        let report = propagation::analyze(&run_campaign(&s).campaign);
        assert_eq!(report, reference, "report diverged at {shards} shards");
    }
}

#[test]
fn reports_from_spilled_logs_match_in_memory_reports() {
    // Fingerprint equality covers the raw exports; this covers the
    // analysis layer's streaming consumption (group-scan join) end to
    // end for the four rewired families.
    let mem = run_campaign(&scenario(Preset::Tiny, 101, 5)).campaign;
    let spill = run_campaign(&spilled(Preset::Tiny, 101, 5, "reports", 1 << 12, 1)).campaign;
    assert_eq!(
        propagation::analyze(&mem),
        propagation::analyze(&spill),
        "propagation diverged"
    );
    assert_eq!(
        ethmeter::analysis::first_observation::geo(&mem),
        ethmeter::analysis::first_observation::geo(&spill),
        "first observation (geo) diverged"
    );
    assert_eq!(
        ethmeter::analysis::first_observation::by_pool(&mem, 10),
        ethmeter::analysis::first_observation::by_pool(&spill, 10),
        "first observation (pool) diverged"
    );
    assert_eq!(
        ethmeter::analysis::commit::analyze(&mem),
        ethmeter::analysis::commit::analyze(&spill),
        "commit diverged"
    );
    assert_eq!(
        ethmeter::analysis::redundancy::analyze(&mem),
        ethmeter::analysis::redundancy::analyze(&spill),
        "redundancy diverged"
    );
    assert_eq!(
        ethmeter::analysis::decentralization::analyze(&mem),
        ethmeter::analysis::decentralization::analyze(&spill),
        "decentralization diverged"
    );
}
