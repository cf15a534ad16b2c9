//! # ethmeter
//!
//! A geo-distributed measurement and simulation toolkit for Ethereum-like
//! blockchains — a from-scratch Rust reproduction of
//! *Impact of Geo-distribution and Mining Pools on Blockchains: A Study of
//! Ethereum* (Silva, Vavřička, Barreto, Matos; IEEE/IFIP DSN 2020).
//!
//! This facade crate re-exports the full public API of the workspace. Most
//! applications interact with four layers:
//!
//! 1. **Scenario construction** — [`scenario::Scenario`] describes a
//!    simulated Ethereum network: topology, geography, mining pools (with
//!    hash-power shares, probabilistic selfish-strategy knobs, and stateful
//!    [`mining::PoolBehavior`]s — honest publishing or the selfish-mining
//!    withholding machine), transaction workload, and the measurement
//!    vantage points.
//! 2. **Campaign execution** — [`runner`] runs the discrete-event
//!    simulation and returns the observers' raw logs plus ground truth.
//! 3. **Grid execution** — [`grid::Grid`] fans a scenario out over
//!    named parameter axes × seeds on parallel workers, reducing every
//!    outcome through streaming [`metric::Metric`] collectors.
//! 4. **Analysis** — [`analysis`] turns logs into the paper's tables and
//!    figures (propagation delay PDFs, first-observation shares, redundancy,
//!    commit-time CDFs, empty-block censuses, fork tables, sequence CDFs),
//!    one `analyze` call per campaign; a grid reads per-run scalars off
//!    those reports through [`metric::Scalars`].
//!
//! Every result is a pure function of `(scenario, seed)` — reruns,
//! debug vs. release, and parallel grids are bit-identical. That
//! invariant is machine-enforced by the `detlint` static-analysis gate
//! (`cargo run -p ethmeter-detlint -- check`); see `DETERMINISM.md` at
//! the repository root for the rule catalog and pragma syntax.
//!
//! ## Quickstart: one campaign
//!
//! ```
//! use ethmeter::prelude::*;
//!
//! // A small, fast scenario (hundreds of nodes, minutes of simulated time).
//! let scenario = Scenario::builder()
//!     .preset(Preset::Tiny)
//!     .seed(42)
//!     .build();
//! let outcome = run_campaign(&scenario);
//! let report = analysis::propagation::analyze(&outcome.campaign);
//! assert!(report.delays.count() > 0);
//! ```
//!
//! ## Quickstart: a cross-seed grid
//!
//! The paper's claims are statistics *across* runs. A [`grid::Grid`]
//! runs the full cartesian product of its axes and streams every outcome
//! through [`metric::Metric`] collectors — here a per-grid-point
//! results table aggregated across seeds (a Table-1-style cross-seed row
//! per configuration), whose Figure 1 columns come from one
//! [`analysis::propagation::analyze`] call per run:
//!
//! ```
//! use ethmeter::prelude::*;
//!
//! let base = Scenario::builder()
//!     .preset(Preset::Tiny)
//!     .duration(SimDuration::from_mins(2))
//!     .build();
//! let outcome = Grid::new(base)
//!     .seed_range(1, 3)
//!     .axis("tx_rate", [0.5, 1.0], |s, &rate| s.set_tx_rate(rate))
//!     .run(
//!         Scalars::new()
//!             .column("head", |_, o| o.campaign.truth.tree.head_number() as f64)
//!             .columns(["fig1_mean_ms", "fig1_blocks"], |_, o| {
//!                 let fig1 = analysis::propagation::analyze(&o.campaign);
//!                 vec![fig1.delays.mean(), fig1.blocks_measured as f64]
//!             }),
//!     );
//! let table = outcome.output;
//! assert_eq!(table.rows.len(), 2); // one aggregated row per tx_rate
//! assert!(table.rows.iter().all(|row| row.cells[2].mean > 0.0));
//! println!("{table}");             // or table.to_csv() / table.to_json()
//! ```
//!
//! ## Memory model
//!
//! What a grid retains is decided by its metric, not the grid:
//!
//! - **Streamed** (the default posture): [`metric::Scalars`]
//!   reduces each [`runner::CampaignOutcome`] to its named per-run
//!   scalars the moment the run completes; the observer logs and
//!   ground-truth tree are dropped. Peak memory is ~one campaign's
//!   footprint per worker thread, however many runs the grid has
//!   (`peak_rss_mib` on the repository benchmark's `grid-mixed` workload
//!   measures it).
//! - **Retained**: [`metric::RetainRuns`] keeps every outcome in
//!   full — memory grows linearly with the grid. Use it when tests or
//!   tooling need the complete datasets.
//!
//! Either way, results are **bit-identical across thread counts** and to a
//! sequential `run_campaign` loop: per-job metric instances observe one
//! outcome each and fold in grid order.
//!
//! ## Adversarial mining
//!
//! Pools default to [`mining::PoolBehavior::Honest`] (all-honest
//! campaigns are bit-identical to the pre-behavior engine — the golden
//! fingerprints pin that). Switching a pool to
//! [`mining::PoolBehavior::Selfish`] arms the uncle-aware selfish-mining
//! state machine: blocks are withheld on a private branch and released
//! at fork-choice time (match/override/tie), with abandoned blocks
//! published as uncle bait. [`experiments::selfish_threshold`]
//! reproduces the α × γ profitability-threshold surface at chain-only
//! scale, and [`experiments::selfish_sim_grid`] runs the attack
//! inside the full network simulation, where the tie-win fraction γ
//! emerges from gateway placement:
//!
//! ```
//! use ethmeter::mining::{PoolDirectory, SelfishConfig};
//! use ethmeter::prelude::*;
//!
//! let scenario = Scenario::builder()
//!     .preset(Preset::Tiny)
//!     .duration(SimDuration::from_mins(10))
//!     .pools(PoolDirectory::attacker_vs_honest(0.4, 4, SelfishConfig::classic()))
//!     .build();
//! let outcome = run_campaign(&scenario);
//! assert!(outcome.stats.blocks_withheld > 0);
//! let revenue = ethmeter::analysis::rewards::analyze(&outcome.campaign);
//! println!("{revenue}"); // per-pool revenue share vs hash share
//! ```
//!
//! See `examples/` (notably `examples/grid_report.rs` and
//! `examples/selfish_pools.rs`) for end-to-end walkthroughs and
//! `EXPERIMENTS.md` for paper-vs-measured comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ethmeter_core::*;
