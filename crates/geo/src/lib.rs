//! Geography substrate: inter-region latency, bandwidth, and clock models.
//!
//! The paper's central finding is that *where* a node sits determines how
//! fast it hears about new blocks, because mining-pool gateways cluster in a
//! few geographic hot-spots. This crate supplies the physical layer that
//! makes those effects emerge in simulation:
//!
//! - [`latency::LatencyModel`]: a base one-way delay matrix over
//!   [`ethmeter_types::Region`]s (calibrated to public backbone RTTs) plus
//!   log-normal jitter;
//! - [`bandwidth::BandwidthClass`]: per-node access capacity, which turns
//!   block size into serialization delay (why empty blocks spread faster);
//! - [`clock::ClockModel`]: NTP-style clock offsets for measurement nodes,
//!   matching the paper's "offsets < 10 ms in 90% of cases, < 100 ms in 99%"
//!   characterization (§II) and surfacing as Figure 2's error bars.
//!
//! # Example
//!
//! ```
//! use ethmeter_geo::latency::LatencyModel;
//! use ethmeter_sim::Xoshiro256;
//! use ethmeter_types::Region;
//!
//! let model = LatencyModel::default();
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let d = model.sample(&mut rng, Region::NorthAmerica, Region::EasternAsia);
//! assert!(d.as_millis_f64() >= 30.0, "transpacific latency is not sub-30ms");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod clock;
pub mod latency;

pub use bandwidth::BandwidthClass;
pub use clock::{ClockModel, ClockSkew};
pub use latency::LatencyModel;
