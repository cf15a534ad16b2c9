//! Statistics toolkit for the measurement pipeline.
//!
//! The paper's processing stage (pandas/NumPy in the original) reduces raw
//! logs to summary statistics, histograms (Figure 1), empirical CDFs
//! (Figures 4, 5, 7), and run-length/censorship analysis (§III-D). This
//! crate implements those reductions:
//!
//! - [`cdf::Cdf`]: the one sorted exact sample — empirical CDF (`at`,
//!   the fraction at or below x), nearest-rank quantiles, mean, standard
//!   deviation and extremes;
//! - [`cdf::Aggregate`]: cross-run condensation of one scalar
//!   statistic (mean ± stddev plus percentile-of-percentiles spread);
//! - [`histogram::Histogram`]: fixed-width binning with PDF normalization;
//! - [`sketch::QuantileSketch`]: fixed-size log-bucketed quantile sketch
//!   with a documented relative error bound;
//! - [`runs`]: run-length extraction and the exact/approximate theory of
//!   longest same-miner block sequences;
//! - [`table`]: plain-text table rendering for paper-style reports.
//!
//! [`Cdf`], [`Histogram`] and [`QuantileSketch`] are pure functions of
//! their sample multiset ([`Cdf`] sorts before it answers and sums in
//! ascending order), so the same values in any order give bit-identical
//! statistics. Statistics across runs are [`Aggregate`]s of one per-run
//! scalar each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod histogram;
pub mod runs;
pub mod sketch;
pub mod table;

pub use cdf::{Aggregate, Cdf};
pub use histogram::Histogram;
pub use sketch::QuantileSketch;
pub use table::Table;
