//! Blockchain substrate: blocks, transactions, the block tree, fork choice,
//! uncles, rewards, and fork classification.
//!
//! This crate implements the ledger layer the paper's measurements sit on:
//!
//! - [`block`]: headers, bodies, and size accounting (why empty blocks are
//!   small and fast);
//! - [`tx`]: transactions with per-sender nonces (the mechanism behind
//!   out-of-order commits, §III-C2);
//! - [`consensus`]: the pluggable [`Consensus`] engine trait (fork-choice
//!   scoring, head selection, validation, uncle/reward policy) with
//!   heaviest-chain, longest-chain, and uncle-weighted GHOST engines;
//! - [`headertree`]: the one fork-choice core — a header-only tree owning
//!   scores, head selection, the canonical index, orphan buffering,
//!   ancestry, derived `safe`/`finalized` markers, an optional pruning
//!   window, and `Result`-based inserts (a gossip node's header view is
//!   this type with a window);
//! - [`tree`]: the ground-truth block tree — an unbounded [`headertree`]
//!   plus block bodies and children;
//! - [`uncles`]: Ethereum's uncle-validity rules and uncle selection over
//!   a [`headertree`], and the reference policies, including the paper's
//!   proposed mitigation (§V) that forbids uncles from a miner that
//!   already holds the same-height main block;
//! - [`rewards`]: the post-Constantinople reward schedule used to reason
//!   about why one-miner forks are profitable;
//! - [`forks`]: extraction and classification of forks from a complete
//!   block set (Table III, §III-C4/C5);
//! - [`registry`]: campaign-global dense registries interning every block
//!   and transaction into contiguous `u32` slots at creation time (the
//!   backbone of the hot path's `Vec`-indexed state).
//!
//! # Example
//!
//! ```
//! use ethmeter_chain::block::BlockBuilder;
//! use ethmeter_chain::tree::BlockTree;
//! use ethmeter_types::PoolId;
//!
//! let mut tree = BlockTree::new();
//! let genesis = tree.genesis_hash();
//! let b1 = BlockBuilder::new(genesis, 1, PoolId(0)).build();
//! let h1 = b1.hash();
//! tree.insert(b1)?;
//! assert_eq!(tree.head(), h1);
//! # Ok::<(), ethmeter_chain::tree::InsertError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod consensus;
pub mod forks;
pub mod headertree;
pub mod registry;
pub mod rewards;
pub mod tree;
pub mod tx;
pub mod uncles;

pub use block::{Block, BlockBuilder, BlockHeader};
pub use consensus::{Consensus, ConsensusKind, HeaviestChain, LongestChain, Score, UncleGhost};
pub use headertree::{HeaderInsert, HeaderTree, InsertError, InsertOutcome};
pub use registry::{BlockRegistry, TxRegistry};
pub use tree::BlockTree;
pub use tx::Transaction;
pub use uncles::UnclePolicy;
