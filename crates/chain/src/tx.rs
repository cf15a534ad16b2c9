//! Transactions.
//!
//! A transaction's identity is its [`TxId`]; its *ordering constraint* is
//! the `(sender, nonce)` pair: "the transaction creator stamps every
//! transaction with a monotonically increasing nonce ... miners cannot
//! include out-of-order transactions in a block until they receive all
//! foregoing transactions" (§III-C2).

use ethmeter_types::{AccountId, ByteSize, Gas, NodeId, Nonce, SimTime, TxId};

/// A transaction as seen by the network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Unique id (stands in for the transaction hash).
    pub id: TxId,
    /// The externally-owned account that signed it.
    pub sender: AccountId,
    /// Per-sender sequence number.
    pub nonce: Nonce,
    /// Fee bid, in gwei per gas. Miners order candidates by this.
    pub gas_price: u64,
    /// Gas consumed if included (bounds how many txs fit a block).
    pub gas: Gas,
    /// Wire size.
    pub size: ByteSize,
    /// When the creator first handed it to its origin node.
    pub submitted_at: SimTime,
    /// The node where it entered the network.
    pub origin: NodeId,
}

/// Gas consumed by a plain value transfer; the workload default.
pub const SIMPLE_TX_GAS: Gas = 21_000;
