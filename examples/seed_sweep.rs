//! Seed sweep: fan one scenario out across eight seeds on parallel
//! workers, then show that the parallel results are bit-identical to
//! sequential `run_campaign` calls — the paper's many-independent-runs
//! methodology as one `Grid` with a seed axis and the retain-everything
//! collector.
//!
//! ```sh
//! cargo run --release --example seed_sweep
//! ```

use ethmeter::prelude::*;

fn main() {
    let base = Scenario::builder()
        .preset(Preset::Tiny)
        .duration(SimDuration::from_mins(6))
        .build();

    println!(
        "sweeping {} ordinary nodes x {} simulated across 8 seeds ...",
        base.ordinary_nodes, base.duration
    );

    // The grid clones the base scenario per seed and runs the campaigns
    // on a pool of worker threads (here at least two; 0 = one per CPU).
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let sweep = Grid::new(base.clone())
        .seed_range(100, 8)
        .threads(threads)
        .run(RetainRuns::new());
    let runs = &sweep.output;

    println!(
        "done on {} threads: {} events, {} blocks produced, {} txs submitted\n",
        sweep.threads_used, sweep.events, sweep.totals.blocks_produced, sweep.totals.txs_submitted
    );

    println!("seed   head-number  head-hash          messages");
    for run in runs {
        let truth = &run.outcome.campaign.truth;
        println!(
            "{:<6} {:<12} {:<18} {}",
            run.seed,
            truth.tree.head_number(),
            truth.tree.head(),
            run.outcome.stats.messages
        );
    }
    let heads: std::collections::BTreeSet<_> = runs
        .iter()
        .map(|r| r.outcome.campaign.truth.tree.head())
        .collect();
    println!(
        "\n{} distinct canonical heads across {} seeds",
        heads.len(),
        runs.len()
    );

    // Spot-check determinism: re-run one grid point sequentially and
    // compare against the parallel result bit for bit.
    let mut check = base;
    check.seed = runs[3].seed;
    let sequential = run_campaign(&check);
    let parallel = &runs[3].outcome;
    assert_eq!(sequential.stats, parallel.stats);
    assert_eq!(sequential.events, parallel.events);
    assert_eq!(
        sequential.campaign.truth.tree.head(),
        parallel.campaign.truth.tree.head()
    );
    println!("\nsequential spot-check for seed {}: identical", check.seed);
}
