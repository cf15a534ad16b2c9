//! A node-local, memory-bounded view of the block tree.
//!
//! Ordinary peers do not need full block bodies to participate in gossip
//! and fork choice — headers suffice. A node's view is the chain crate's
//! fork-choice core ([`ethmeter_chain::headertree`]) with a pruning
//! window: head selection, the canonical index, orphan buffering and
//! uncle selection all live there, once, shared with the ground-truth
//! `BlockTree`. Nothing about fork choice is defined in this crate.

pub use ethmeter_chain::headertree::{HeaderInsert, HeaderTree as HeaderView, InsertOutcome};
