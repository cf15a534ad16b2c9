//! P2P overlay substrate: topology, peer state, and Geth-1.8 gossip.
//!
//! Implements the dissemination protocol of the client the paper
//! instrumented (Geth 1.8.23, devp2p `eth/63`):
//!
//! - blocks travel either as **direct pushes** (`NewBlock`, full body, sent
//!   to √(peers) immediately on reception, before full validation) or as
//!   **announcements** (`NewBlockHashes`, sent to the remaining peers after
//!   import), with per-peer known-sets suppressing duplicates — exactly the
//!   two message families of the paper's Table II;
//! - announced blocks are fetched (`GetBlock`/`BlockBody`) with timeouts
//!   and fallback to other announcers, mirroring Geth's fetcher;
//! - transactions relay to peers that don't know them, with a configurable
//!   fanout ([`config::TxRelayPolicy`]) for large-scale runs.
//!
//! Nodes are *decision machines*: each handler consumes a message and
//! appends the [`node::Send`]s it wants performed to a caller-owned
//! buffer (recycled by the driver, so the steady state allocates
//! nothing). Link latency, bandwidth serialization, and validation delays
//! are applied by the simulation driver (`ethmeter-core`), which keeps
//! this crate free of event-loop concerns and independently testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod headerview;
pub mod known;
pub mod message;
pub mod node;
pub mod shard;
pub mod topology;

pub use config::{NetConfig, TxRelayPolicy};
pub use headerview::HeaderView;
pub use message::Message;
pub use node::{GossipScratch, ImportAction, LinkError, Node, Send};
pub use shard::{RemoteEvent, RemoteEventKind, ShardMap};
pub use topology::Topology;
