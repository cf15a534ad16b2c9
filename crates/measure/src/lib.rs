//! The measurement infrastructure: vantage points, observer logs, and the
//! campaign dataset.
//!
//! This crate is the equivalent of the paper's ~1,000-line Geth
//! instrumentation plus its log schema: each observer captures "all
//! incoming network messages ... together with a local timestamp" (§II).
//! Timestamps are *local* — i.e. skewed by the observer's NTP offset — so
//! every cross-observer analysis inherits the same measurement error the
//! paper discusses.
//!
//! - [`vantage`]: vantage-point descriptions, including the paper's four
//!   (Table I) and the complementary default-peers observer of §III-A2;
//! - [`log`]: per-observer logs (block and transaction reception records);
//! - [`campaign`]: the complete dataset of one run — logs plus simulator
//!   ground truth (the paper's analogue: logs plus Etherscan
//!   cross-checks);
//! - [`csv`]: dataset export/import in a stable text format, standing in
//!   for the paper's published measurement data;
//! - [`spill`]: on-disk segments of fixed-width rows backing
//!   budget-bounded (out-of-core) observer logs for planet-scale
//!   campaigns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod csv;
pub mod log;
pub mod spill;
pub mod vantage;

pub use campaign::{CampaignData, GroundTruth};
pub use log::{BlockMsgKind, BlockRecord, ObserverLog, TxRecord};
pub use spill::SpillConfig;
pub use vantage::VantagePoint;
