//! Finality security (paper §III-D): consecutive same-pool block
//! sequences, censorship windows, and theory vs observation.
//!
//! Runs the chain-only simulator at the paper's exact scales: the
//! one-month window (201,086 blocks) and the whole-chain scan (7.7M
//! blocks), then prints the analytic probabilities the paper derives.
//!
//! ```sh
//! cargo run --release --example security_censorship
//! ```

use ethmeter::prelude::*;
use ethmeter::stats::runs::{expected_trials_until_run, naive_expected_runs, prob_run_at_least};

fn main() {
    // One month at April-2019 shares.
    let report = run_chain_only(&ChainOnlyConfig::paper_month(2019));
    println!("{report}\n");

    // The paper's arithmetic, recomputed exactly.
    println!("theory at the paper's shares (201,086 blocks):");
    for (name, share, k) in [("Ethermine", 0.259, 8u32), ("Sparkpool", 0.2269, 9)] {
        println!(
            "  {name}: share {share}, runs of {k}: naive E = {:.2}, exact P(>=1) = {:.3}",
            naive_expected_runs(201_086, share, k),
            prob_run_at_least(201_086, share, k),
        );
    }

    // The 14-block run ever observed: how long would one wait?
    let wait_blocks = expected_trials_until_run(0.259, 14);
    let years = wait_blocks * 13.3 / 3.15e7;
    println!(
        "  a 14-run at share 0.259: expected wait {wait_blocks:.2e} blocks (~{years:.0} years)\n"
    );

    // Whole-chain scan: the 10/11/12/14-run regime of §III-D.
    println!("whole-chain scan (7.7M simulated blocks):");
    let report = run_chain_only(&ChainOnlyConfig::paper_whole_chain(2019));
    for row in report.pools.iter().take(4) {
        println!(
            "  {:<16} share {:>6.2}%  longest run {:>2}  censor window {:>4.0}s  runs>=10: {}",
            row.name,
            row.share * 100.0,
            row.longest,
            report.censorship_window(row.longest).as_secs_f64(),
            row.runs_at_least(10),
        );
    }
    println!(
        "\nA pool that can mine 12+ consecutive blocks can revert anything the\n\
         12-confirmation rule calls final — the paper's core security warning."
    );
}
