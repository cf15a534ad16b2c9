//! Campaign orchestration: scenarios, the simulation world, runners, and
//! per-experiment entry points.
//!
//! This crate wires every substrate together:
//!
//! - [`scenario`]: declarative experiment descriptions with calibrated
//!   presets (from [`Preset::Tiny`] smoke runs to the
//!   paper-shaped [`Preset::PaperScaled`]);
//! - [`world`]: the discrete-event [`world::SimWorld`] — nodes gossiping
//!   over geographic links, pools racing for blocks from geo-located
//!   gateways, the transaction workload, and the instrumented observers;
//! - [`runner`]: one-call campaign execution returning
//!   [`ethmeter_measure::CampaignData`];
//! - [`grid`]: multi-axis campaign grids — named scenario axes × seeds on
//!   parallel workers, reduced through streaming [`metric::Metric`]
//!   collectors at ~constant memory;
//! - [`metric`]: the composable collector API ([`metric::Analyze`] lifts
//!   every `ethmeter-analysis` report, [`metric::Scalars`] builds
//!   cross-seed [`report::GridReport`] tables, [`metric::RetainRuns`]
//!   keeps every full outcome, for tests and tooling that need the
//!   datasets themselves);
//! - [`chainonly`]: the fast block-sequence simulator for month- and
//!   chain-lifetime-scale sequence analyses (Figure 7, §III-D);
//! - [`selfish`]: the chain-only selfish-mining race behind the
//!   profitability-threshold experiments (explicit α and γ, same
//!   withholding machine the full world drives);
//! - [`experiments`]: one function per table/figure, shared by the
//!   examples, the repository benchmark, and the `repro` binary.
//!
//! # Quickstart
//!
//! One campaign:
//!
//! ```
//! use ethmeter_core::prelude::*;
//!
//! let scenario = Scenario::builder().preset(Preset::Tiny).seed(7).build();
//! let outcome = run_campaign(&scenario);
//! assert!(outcome.campaign.truth.tree.head_number() > 0);
//! ```
//!
//! A cross-seed grid, streamed through metric collectors (full campaign
//! datasets are dropped as each run completes; memory stays ~flat no
//! matter how many runs the grid has):
//!
//! ```
//! use ethmeter_core::prelude::*;
//! use ethmeter_core::analysis::propagation::Propagation;
//!
//! let base = Scenario::builder()
//!     .preset(Preset::Tiny)
//!     .duration(SimDuration::from_mins(2))
//!     .build();
//! let outcome = Grid::new(base)
//!     .seed_range(1, 3)
//!     .axis("tx_rate", [0.5, 1.0], |s, &rate| s.set_tx_rate(rate))
//!     .run((
//!         Analyze::new(Propagation::new()),
//!         Scalars::new().column("head", |_, o| {
//!             o.campaign.truth.tree.head_number() as f64
//!         }),
//!     ));
//! let (fig1, table) = outcome.output;
//! assert!(fig1.blocks_measured > 0);
//! println!("{table}"); // or table.to_csv() / table.to_json()
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chainonly;
pub mod experiments;
pub mod grid;
pub mod metric;
pub mod par;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod selfish;
pub mod world;

pub use grid::{AxisSetter, Grid, GridOutcome, GridPoint};
pub use metric::{Analyze, Metric, PerPoint, RetainRuns, RunCtx, Scalars};
pub use par::run_campaign_sharded;
pub use report::{GridReport, GridRow};
pub use runner::{run_campaign, CampaignOutcome, CampaignRunner};
pub use scenario::{Preset, Scenario, ScenarioBuilder, ScenarioError};
pub use selfish::{run_selfish_race, SelfishRaceConfig, SelfishRaceResult};
pub use world::{RunStats, SimWorld};

// Re-export the sub-crates under their natural names so downstream users
// need only depend on the facade.
pub use ethmeter_analysis as analysis;
pub use ethmeter_chain as chain;
pub use ethmeter_dynamics as dynamics;
pub use ethmeter_geo as geo;
pub use ethmeter_measure as measure;
pub use ethmeter_mining as mining;
pub use ethmeter_net as net;
pub use ethmeter_sim as sim;
pub use ethmeter_stats as stats;
pub use ethmeter_txpool as txpool;
pub use ethmeter_types as types;
pub use ethmeter_workload as workload;

/// The most common imports, re-exported for `use ethmeter_core::prelude::*`.
pub mod prelude {
    pub use crate::chainonly::{run_chain_only, ChainOnlyConfig};
    pub use crate::grid::{AxisSetter, Grid, GridOutcome, GridPoint};
    pub use crate::metric::{Analyze, Metric, PerPoint, RetainRuns, RunCtx, Scalars};
    pub use crate::report::{GridReport, GridRow};
    pub use crate::runner::{run_campaign, CampaignOutcome, CampaignRunner};
    pub use crate::scenario::{Preset, Scenario, ScenarioError};
    pub use crate::selfish::{run_selfish_race, SelfishRaceConfig, SelfishRaceResult};
    pub use crate::{
        analysis, chain, dynamics, geo, measure, mining, net, sim, stats, types, workload,
    };
    pub use ethmeter_analysis::Reduce;
    pub use ethmeter_chain::consensus::ConsensusKind;
    pub use ethmeter_dynamics::{DynamicsEvent, DynamicsScript, RegionMask};
    pub use ethmeter_measure::CampaignData;
    pub use ethmeter_stats::Aggregate;
    pub use ethmeter_types::{Region, SimDuration, SimTime};
}
