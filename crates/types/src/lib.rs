//! Shared primitive types for the `ethmeter` workspace.
//!
//! This crate defines the small, dependency-free vocabulary used by every
//! other crate: entity identifiers ([`NodeId`], [`PoolId`], [`TxId`],
//! [`BlockHash`], [`AccountId`]), simulated time ([`SimTime`],
//! [`SimDuration`]), geographic [`Region`]s and byte/bandwidth units.
//!
//! All types are plain newtypes with value semantics: `Copy`, `Eq`, `Ord`,
//! `Hash`, `Debug` and `Display` where meaningful, so they compose cleanly
//! with standard collections and with the deterministic simulator.
//!
//! # Examples
//!
//! ```
//! use ethmeter_types::{SimDuration, SimTime, Region};
//!
//! let start = SimTime::ZERO;
//! let later = start + SimDuration::from_millis(74);
//! assert_eq!((later - start).as_millis_f64(), 74.0);
//! assert_eq!(Region::EasternAsia.abbrev(), "EA");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ids;
pub mod region;
pub mod registry;
pub mod time;
pub mod units;

pub use ids::{AccountId, BlockHash, BlockIdx, BlockNumber, NodeId, Nonce, PoolId, TxId, TxIdx};
pub use region::Region;
pub use registry::{BuildFxHasher, FxHashMap, FxHashSet, Interner};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteSize, Gas};
