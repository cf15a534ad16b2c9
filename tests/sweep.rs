//! Multi-seed grid contracts: parallel fan-out must be a pure wall-clock
//! optimization — per-seed results bit-identical to sequential
//! `run_campaign`, independent of worker count — while distinct seeds
//! produce genuinely independent campaigns.

use std::collections::BTreeSet;

use ethmeter::measure::csv;
use ethmeter::metric::RetainedRun;
use ethmeter::prelude::*;
use ethmeter::types::BlockHash;

fn base() -> Scenario {
    Scenario::builder()
        .preset(Preset::Tiny)
        .duration(SimDuration::from_mins(3))
        .build()
}

const SEEDS: [u64; 8] = [201, 202, 203, 204, 205, 206, 207, 208];

/// The seed-axis grid under test, every outcome retained.
fn sweep(threads: usize) -> GridOutcome<Vec<RetainedRun>> {
    Grid::new(base())
        .seeds(SEEDS)
        .threads(threads)
        .run(RetainRuns::new())
}

/// Per-run `(seed, canonical head)` pairs, in grid order.
fn heads(runs: &[RetainedRun]) -> Vec<(u64, BlockHash)> {
    runs.iter()
        .map(|r| (r.seed, r.outcome.campaign.truth.tree.head()))
        .collect()
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential_runs() {
    let sweep = sweep(4);
    assert_eq!(sweep.output.len(), SEEDS.len());
    assert!(sweep.threads_used >= 2, "sweep must actually run parallel");
    let mut totals = ethmeter::RunStats::default();
    let mut events = 0;
    for (run, &seed) in sweep.output.iter().zip(SEEDS.iter()) {
        assert_eq!(run.seed, seed);
        let mut scenario = base();
        scenario.seed = seed;
        let sequential = run_campaign(&scenario);
        assert_eq!(run.outcome.stats, sequential.stats, "seed {seed}");
        assert_eq!(run.outcome.events, sequential.events, "seed {seed}");
        totals.merge(&sequential.stats);
        events += sequential.events;
        let (pt, st) = (&run.outcome.campaign.truth, &sequential.campaign.truth);
        assert_eq!(pt.tree.head(), st.tree.head(), "seed {seed}");
        assert_eq!(pt.tree.len(), st.tree.len(), "seed {seed}");
        assert_eq!(pt.txs.len(), st.txs.len(), "seed {seed}");
        // Observer logs identical via their canonical CSV serialization.
        for (pa, pb) in run
            .outcome
            .campaign
            .observers
            .iter()
            .zip(sequential.campaign.observers.iter())
        {
            assert_eq!(pa.0.name, pb.0.name);
            assert_eq!(csv::blocks_to_csv(&pa.1), csv::blocks_to_csv(&pb.1));
            assert_eq!(csv::txs_to_csv(&pa.1), csv::txs_to_csv(&pb.1));
        }
    }
    // The grid's own sums are the per-run sums, nothing more.
    assert_eq!(sweep.totals, totals);
    assert_eq!(sweep.events, events);
    assert!(sweep.totals.blocks_produced > 0);
}

#[test]
fn thread_count_does_not_change_results() {
    let one = sweep(1);
    let many = sweep(4);
    assert_eq!(heads(&one.output), heads(&many.output));
    assert_eq!(one.totals, many.totals);
    assert_eq!(one.events, many.events);
}

#[test]
fn parallel_sweep_fingerprints_match_sequential() {
    // The strongest form of the cross-thread determinism contract: the
    // whole-dataset digest of every campaign in an 8-seed parallel sweep
    // equals the digest of the same scenario run sequentially. Any
    // cross-worker state leak (shared RNG, allocation-order dependence,
    // map-iteration nondeterminism) shows up here as a one-integer diff.
    let sweep = sweep(4);
    assert!(sweep.threads_used >= 2, "sweep must actually run parallel");
    for (run, &seed) in sweep.output.iter().zip(SEEDS.iter()) {
        let mut scenario = base();
        scenario.seed = seed;
        let sequential = run_campaign(&scenario);
        assert_eq!(
            run.outcome.campaign.fingerprint(),
            sequential.campaign.fingerprint(),
            "seed {seed}: parallel and sequential campaigns must be bit-identical"
        );
    }
}

#[test]
fn reused_worker_sweeps_equal_fresh_and_sequential() {
    // Grid workers reuse one world+engine across their whole job stream
    // (the default); that reuse must be a pure wall-clock optimization.
    // Pin all three execution styles to the same campaign fingerprints:
    // reused workers, fresh-construction workers, and sequential runs.
    let reused = sweep(2);
    let fresh = Grid::new(base())
        .seeds(SEEDS)
        .threads(2)
        .reuse_workers(false)
        .run(RetainRuns::new());
    assert_eq!(reused.totals, fresh.totals);
    assert_eq!(reused.events, fresh.events);
    for ((r, f), &seed) in reused.output.iter().zip(&fresh.output).zip(&SEEDS) {
        let fp_reused = r.outcome.campaign.fingerprint();
        assert_eq!(
            fp_reused,
            f.outcome.campaign.fingerprint(),
            "seed {seed}: reused-worker sweep diverged from fresh-construction sweep"
        );
        let mut scenario = base();
        scenario.seed = seed;
        assert_eq!(
            fp_reused,
            run_campaign(&scenario).campaign.fingerprint(),
            "seed {seed}: reused-worker sweep diverged from a sequential run"
        );
    }
}

#[test]
fn distinct_seeds_diverge() {
    let heads = heads(&sweep(4).output);
    let distinct: BTreeSet<BlockHash> = heads.iter().map(|&(_, head)| head).collect();
    assert_eq!(
        distinct.len(),
        SEEDS.len(),
        "every seed must grow its own chain: {heads:?}"
    );
}

// ---------------------------------------------------------------------------
// Grid + Metric contracts: streaming collectors must be a pure memory
// optimization — outputs bit-identical across thread counts and to the
// legacy sequential path.

use ethmeter::analysis::propagation::{self, Propagation};
use ethmeter::analysis::Reduce;

const GRID_SEEDS: [u64; 4] = [301, 302, 303, 304];
const INTERBLOCKS: [f64; 2] = [10.0, 20.0];

/// The grid under test: 2 interblock points × 4 seeds, observed through
/// one retained collector plus two streaming ones.
fn run_grid(
    threads: usize,
) -> GridOutcome<(Vec<RetainedRun>, propagation::PropagationReport, GridReport)> {
    Grid::new(base())
        .seeds(GRID_SEEDS)
        .axis("interblock_s", INTERBLOCKS, |s, &secs| {
            s.interblock = SimDuration::from_secs_f64(secs);
        })
        .threads(threads)
        .run((
            RetainRuns::new(),
            Analyze::new(Propagation::new()),
            Scalars::new()
                .column("head", |_, o| o.campaign.truth.tree.head_number() as f64)
                .column("messages", |_, o| o.stats.messages as f64),
        ))
}

/// Materializes one grid job's scenario by hand — the legacy sequential
/// path the grid must match.
fn legacy_scenario(interblock_s: f64, seed: u64) -> Scenario {
    let mut s = base();
    s.interblock = SimDuration::from_secs_f64(interblock_s);
    s.seed = seed;
    s
}

#[test]
fn grid_results_bit_identical_across_thread_counts() {
    let one = run_grid(1);
    let many = run_grid(4);
    assert_eq!(one.threads_used, 1);
    assert!(many.threads_used >= 2, "grid must actually run parallel");
    assert_eq!(one.jobs, 8);
    assert_eq!(one.totals, many.totals);
    assert_eq!(one.events, many.events);
    let (runs_1, fig1_1, report_1) = &one.output;
    let (runs_n, fig1_n, report_n) = &many.output;
    // Streaming outputs: full structural equality, floats included (the
    // PartialEq on Summary/Histogram/Aggregate compares exact values).
    assert_eq!(fig1_1, fig1_n);
    assert_eq!(report_1, report_n);
    // Retained outputs: same grid order, same campaign fingerprints.
    assert_eq!(runs_1.len(), runs_n.len());
    for (a, b) in runs_1.iter().zip(runs_n.iter()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.point, b.point);
        assert_eq!(
            a.outcome.campaign.fingerprint(),
            b.outcome.campaign.fingerprint(),
            "seed {} point {}",
            a.seed,
            a.point
        );
    }
}

#[test]
fn grid_matches_the_legacy_sequential_path() {
    let grid = run_grid(4);
    let (runs, fig1, report) = grid.output;
    // Legacy path: a plain run_campaign loop in grid order, feeding the
    // same reductions sequentially.
    let mut seq_fig1 = Propagation::new();
    let mut idx = 0;
    for &interblock_s in &INTERBLOCKS {
        for &seed in &GRID_SEEDS {
            let scenario = legacy_scenario(interblock_s, seed);
            let outcome = run_campaign(&scenario);
            seq_fig1.observe(&outcome.campaign);
            assert_eq!(
                runs[idx].outcome.campaign.fingerprint(),
                outcome.campaign.fingerprint(),
                "grid job {idx} diverged from sequential run_campaign"
            );
            idx += 1;
        }
    }
    assert_eq!(runs.len(), idx);
    assert_eq!(fig1, seq_fig1.finish());
    // The aggregated table reflects the same runs: every cell aggregates
    // one value per seed.
    assert_eq!(report.rows.len(), INTERBLOCKS.len());
    assert!(report
        .rows
        .iter()
        .all(|r| r.cells.iter().all(|c| c.runs == GRID_SEEDS.len())));
    // Faster blocks -> more canonical blocks, visible in the point rows.
    let head = |i: usize| report.rows[i].cells[0].mean;
    assert!(head(0) > head(1), "{} vs {}", head(0), head(1));
}
