//! The processing pipeline: from raw observer logs to every table and
//! figure of the paper's §III.
//!
//! Each module owns one experiment family and produces a typed report with
//! a `Display` implementation that prints the paper-style table:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`propagation`] | Figure 1 (block propagation delay PDF) |
//! | [`redundancy`] | Table II (redundant block receptions) |
//! | [`first_observation`] | Figures 2 and 3 (geographic first-observation shares, per-pool breakdown) |
//! | [`commit`] | Figures 4 and 5 (inclusion/commit CDFs, in- vs out-of-order) |
//! | [`empty_blocks`] | Figure 6 (empty blocks per pool) |
//! | [`forks`] | Table III and §III-C5 (fork census, one-miner forks) |
//! | [`sequences`] | Figure 7 and §III-D (consecutive-block sequences, censorship windows) |
//! | [`rewards`] | Per-pool revenue share vs hash-power share (the selfish-mining yardstick) |
//! | [`reorg`] | Reorg-depth tail `P(revert ≥ k)` vs confirmation policy (double-spend exposure) |
//! | [`decentralization`] | Nakamoto / Gini / HHI scalars over hash power, block production, first observation, and revenue |
//!
//! All analyzers consume a [`ethmeter_measure::CampaignData`]; the
//! sequence analysis is also a fold ([`sequences::RunFold`]) that the fast
//! chain-only simulator feeds one drawn miner at a time. Each analysis is one
//! function from one campaign to one report; statistics across runs are
//! per-run scalars read off these reports (`Scalars` in `ethmeter-core`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
pub mod decentralization;
pub mod empty_blocks;
pub mod first_observation;
pub mod forks;
pub mod propagation;
pub mod redundancy;
pub mod reorg;
pub mod rewards;
pub mod sequences;

#[cfg(test)]
pub(crate) mod testutil;
