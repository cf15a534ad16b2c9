//! Transaction mempool with Geth's pending/queued semantics.
//!
//! Geth splits a node's transaction pool into **pending** (executable now:
//! the sender's nonces form a gap-free run from the account's next nonce)
//! and **queued** (future nonces, waiting for their predecessors). This
//! split is the machinery behind the paper's §III-C2 finding: transactions
//! received out of order "must wait for their delayed predecessors before
//! committing", inflating their commit delay (Figure 5).
//!
//! Block packing follows Geth's price-sorted strategy: repeatedly take the
//! highest-gas-price *executable* transaction across accounts, respecting
//! per-sender nonce order, until the block gas limit is exhausted.
//!
//! # Example
//!
//! ```
//! use ethmeter_txpool::{AddOutcome, Mempool};
//! use ethmeter_chain::tx::{Transaction, SIMPLE_TX_GAS};
//! use ethmeter_types::{AccountId, ByteSize, NodeId, SimTime, TxId};
//!
//! let mut pool = Mempool::new();
//! let tx = |id: u64, nonce: u64, price: u64| Transaction {
//!     id: TxId(id), sender: AccountId(1), nonce, gas_price: price,
//!     gas: SIMPLE_TX_GAS, size: ByteSize::from_bytes(180),
//!     submitted_at: SimTime::ZERO, origin: NodeId(0),
//! };
//! // Nonce 1 arrives before nonce 0: it queues.
//! assert_eq!(pool.add(&tx(11, 1, 5)), AddOutcome::Queued);
//! assert_eq!(pool.add(&tx(10, 0, 5)), AddOutcome::Pending);
//! // Both are now executable, in nonce order.
//! let mut block = Vec::new();
//! pool.pack_into(1_000_000, &mut block);
//! assert_eq!(block, vec![TxId(10), TxId(11)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use ethmeter_chain::tx::Transaction;
use ethmeter_types::{AccountId, FxHashMap, Gas, Nonce, TxId};

/// What happened when a transaction was offered to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// Executable immediately (contiguous nonce run).
    Pending,
    /// Future nonce; parked until predecessors arrive.
    Queued,
    /// Replaced a same-nonce transaction with a lower gas price.
    Replaced,
    /// Already known (same id, or same nonce at a non-better price).
    Known,
    /// Nonce below the account's committed nonce; useless.
    Stale,
}

/// The slice of a [`Transaction`] the pool needs to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TxMeta {
    id: TxId,
    gas_price: u64,
    gas: Gas,
}

/// A per-node transaction pool.
#[derive(Debug, Clone, Default)]
pub struct Mempool {
    /// sender -> nonce -> tx meta (pending and queued together; the
    /// pending/queued boundary is derived from `next_nonce`).
    ///
    /// All three maps are keyed through `FxHasher64`: account and
    /// transaction ids are small integers, so the default SipHash is pure
    /// overhead on the per-gossip-event add path. No output ever depends
    /// on map iteration order (packing tie-breaks on `(price, account)`),
    /// so the hasher choice is behavior-neutral.
    per_account: FxHashMap<AccountId, BTreeMap<Nonce, TxMeta>>,
    /// sender -> next nonce the chain expects (all lower nonces committed).
    next_nonce: FxHashMap<AccountId, Nonce>,
    /// Reverse index for membership tests.
    by_id: FxHashMap<TxId, (AccountId, Nonce)>,
}

impl Mempool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the pool currently holds this transaction.
    pub fn contains(&self, id: TxId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Number of transactions currently held (pending + queued).
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True if the pool holds nothing.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// The next nonce the pool believes the chain expects from `sender`.
    pub fn expected_nonce(&self, sender: AccountId) -> Nonce {
        self.next_nonce.get(&sender).copied().unwrap_or(0)
    }

    /// Count of executable transactions (gap-free runs).
    #[cfg(test)]
    pub fn pending_count(&self) -> usize {
        self.per_account
            .iter()
            .map(|(acct, txs)| {
                let mut expected = self.expected_nonce(*acct);
                let mut run = 0usize;
                for &nonce in txs.keys() {
                    if nonce == expected {
                        run += 1;
                        expected += 1;
                    } else {
                        break;
                    }
                }
                run
            })
            .sum()
    }

    /// Count of parked (future-nonce) transactions.
    #[cfg(test)]
    pub fn queued_count(&self) -> usize {
        self.len() - self.pending_count()
    }

    /// Offers a transaction to the pool.
    pub fn add(&mut self, tx: &Transaction) -> AddOutcome {
        if self.by_id.contains_key(&tx.id) {
            return AddOutcome::Known;
        }
        let expected = self.expected_nonce(tx.sender);
        if tx.nonce < expected {
            return AddOutcome::Stale;
        }
        let slots = self.per_account.entry(tx.sender).or_default();
        if let Some(existing) = slots.get(&tx.nonce) {
            // Same-nonce replacement: require a strictly better price
            // (Geth additionally requires a 10% bump; strict improvement is
            // the behavior that matters for ordering).
            if tx.gas_price > existing.gas_price {
                let old_id = existing.id;
                slots.insert(
                    tx.nonce,
                    TxMeta {
                        id: tx.id,
                        gas_price: tx.gas_price,
                        gas: tx.gas,
                    },
                );
                self.by_id.remove(&old_id);
                self.by_id.insert(tx.id, (tx.sender, tx.nonce));
                return AddOutcome::Replaced;
            }
            return AddOutcome::Known;
        }
        slots.insert(
            tx.nonce,
            TxMeta {
                id: tx.id,
                gas_price: tx.gas_price,
                gas: tx.gas,
            },
        );
        self.by_id.insert(tx.id, (tx.sender, tx.nonce));
        // Executable iff every nonce in [expected, tx.nonce] is present.
        let txs = &self.per_account[&tx.sender];
        let contiguous = (expected..=tx.nonce).all(|n| txs.contains_key(&n));
        if contiguous {
            AddOutcome::Pending
        } else {
            AddOutcome::Queued
        }
    }

    /// Packs a block into `out` (cleared first): highest-gas-price
    /// executable transactions first, respecting per-sender nonce order,
    /// until `gas_limit` is filled. Ids land in inclusion order; a reused
    /// buffer keeps its allocation across blocks.
    ///
    /// The pool itself is not mutated — call [`Mempool::on_block`] when
    /// the block commits.
    pub fn pack_into(&self, gas_limit: Gas, out: &mut Vec<TxId>) {
        out.clear();
        // cursor per account: next executable nonce during this packing.
        let mut cursors: FxHashMap<AccountId, Nonce> = FxHashMap::default();
        let mut gas_left = gas_limit;
        loop {
            // Find the best-priced executable candidate across accounts.
            let mut best: Option<(u64, AccountId, Nonce, TxMeta)> = None;
            // detlint::allow(unordered-iter, reason = "argmax fold with a total-order (price, account) tie-break below; the selected candidate is iteration-order independent")
            for (&acct, txs) in &self.per_account {
                let cursor = *cursors.get(&acct).unwrap_or(&self.expected_nonce(acct));
                let Some(meta) = txs.get(&cursor) else {
                    continue; // gap or exhausted
                };
                if meta.gas > gas_left {
                    continue;
                }
                let candidate = (meta.gas_price, acct, cursor, *meta);
                // Tie-break by (price, then account id) for determinism.
                let better = match &best {
                    None => true,
                    Some((bp, bacct, ..)) => {
                        candidate.0 > *bp || (candidate.0 == *bp && acct < *bacct)
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
            let Some((_, acct, nonce, meta)) = best else {
                break;
            };
            out.push(meta.id);
            gas_left -= meta.gas;
            cursors.insert(acct, nonce + 1);
        }
    }

    /// Forgets every transaction and every account nonce, retaining the
    /// maps' allocations. A cleared pool behaves exactly like a new one.
    pub fn clear(&mut self) {
        self.per_account.clear();
        self.next_nonce.clear();
        self.by_id.clear();
    }

    /// Applies a committed block: advances account nonces past every
    /// included transaction and drops included and stale entries.
    pub fn on_block<'a, I>(&mut self, included: I)
    where
        I: IntoIterator<Item = &'a Transaction>,
    {
        for tx in included {
            let next = self.next_nonce.entry(tx.sender).or_insert(0);
            if tx.nonce + 1 > *next {
                *next = tx.nonce + 1;
            }
        }
        // Drop everything below each account's new nonce.
        let next_nonce = &self.next_nonce;
        let by_id = &mut self.by_id;
        self.per_account.retain(|acct, txs| {
            let floor = next_nonce.get(acct).copied().unwrap_or(0);
            let stale: Vec<Nonce> = txs.range(..floor).map(|(&n, _)| n).collect();
            for n in stale {
                if let Some(meta) = txs.remove(&n) {
                    by_id.remove(&meta.id);
                }
            }
            !txs.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethmeter_chain::tx::SIMPLE_TX_GAS;
    use ethmeter_types::{ByteSize, NodeId, SimTime};

    pub(super) fn pack(pool: &Mempool, gas_limit: Gas) -> Vec<TxId> {
        let mut out = Vec::new();
        pool.pack_into(gas_limit, &mut out);
        out
    }

    fn tx(id: u64, sender: u32, nonce: u64, price: u64) -> Transaction {
        Transaction {
            id: TxId(id),
            sender: AccountId(sender),
            nonce,
            gas_price: price,
            gas: SIMPLE_TX_GAS,
            size: ByteSize::from_bytes(180),
            submitted_at: SimTime::ZERO,
            origin: NodeId(0),
        }
    }

    #[test]
    fn in_order_arrivals_are_pending() {
        let mut pool = Mempool::new();
        assert_eq!(pool.add(&tx(1, 1, 0, 10)), AddOutcome::Pending);
        assert_eq!(pool.add(&tx(2, 1, 1, 10)), AddOutcome::Pending);
        assert_eq!(pool.pending_count(), 2);
        assert_eq!(pool.queued_count(), 0);
    }

    #[test]
    fn gap_queues_until_filled() {
        let mut pool = Mempool::new();
        assert_eq!(pool.add(&tx(2, 1, 1, 10)), AddOutcome::Queued);
        assert_eq!(pool.add(&tx(3, 1, 2, 10)), AddOutcome::Queued);
        assert_eq!(pool.pending_count(), 0);
        assert_eq!(pool.queued_count(), 2);
        // Filling the gap makes the whole run executable.
        assert_eq!(pool.add(&tx(1, 1, 0, 10)), AddOutcome::Pending);
        assert_eq!(pool.pending_count(), 3);
        assert_eq!(pool.queued_count(), 0);
    }

    #[test]
    fn duplicates_and_stale() {
        let mut pool = Mempool::new();
        let t = tx(1, 1, 0, 10);
        assert_eq!(pool.add(&t), AddOutcome::Pending);
        assert_eq!(pool.add(&t), AddOutcome::Known);
        // Same nonce, worse or equal price: Known.
        assert_eq!(pool.add(&tx(2, 1, 0, 10)), AddOutcome::Known);
        assert_eq!(pool.add(&tx(3, 1, 0, 5)), AddOutcome::Known);
        // Same nonce, better price: Replaced.
        assert_eq!(pool.add(&tx(4, 1, 0, 20)), AddOutcome::Replaced);
        assert!(!pool.contains(TxId(1)));
        assert!(pool.contains(TxId(4)));
        // Commit it; now nonce 0 is stale.
        pool.on_block([&tx(4, 1, 0, 20)]);
        assert_eq!(pool.add(&tx(5, 1, 0, 30)), AddOutcome::Stale);
    }

    #[test]
    fn pack_orders_by_price_respecting_nonces() {
        let mut pool = Mempool::new();
        // Account 1: cheap then expensive (nonce order binds them).
        pool.add(&tx(1, 1, 0, 1));
        pool.add(&tx(2, 1, 1, 100));
        // Account 2: expensive single.
        pool.add(&tx(3, 2, 0, 50));
        let packed = pack(&pool, 10 * SIMPLE_TX_GAS);
        // 50 beats 1; then after account 2 drains, account 1's nonce 0
        // unlocks nonce 1 (100) only after nonce 0 (price 1) is taken.
        assert_eq!(packed, vec![TxId(3), TxId(1), TxId(2)]);
    }

    #[test]
    fn pack_respects_gas_limit() {
        let mut pool = Mempool::new();
        for i in 0..10 {
            pool.add(&tx(i, i as u32, 0, 10));
        }
        let packed = pack(&pool, 3 * SIMPLE_TX_GAS);
        assert_eq!(packed.len(), 3);
        let none = pack(&pool, SIMPLE_TX_GAS - 1);
        assert!(none.is_empty());
    }

    #[test]
    fn pack_skips_queued_gaps() {
        let mut pool = Mempool::new();
        pool.add(&tx(1, 1, 0, 10));
        pool.add(&tx(3, 1, 2, 99)); // gap at nonce 1
        let packed = pack(&pool, 10 * SIMPLE_TX_GAS);
        assert_eq!(packed, vec![TxId(1)]);
    }

    #[test]
    fn on_block_prunes_and_promotes() {
        let mut pool = Mempool::new();
        pool.add(&tx(1, 1, 0, 10));
        pool.add(&tx(2, 1, 1, 10));
        pool.add(&tx(3, 1, 2, 10));
        // Block includes nonces 0 and 1 (mined elsewhere, different ids).
        pool.on_block([&tx(100, 1, 0, 10), &tx(101, 1, 1, 10)]);
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(TxId(3)));
        assert_eq!(pool.expected_nonce(AccountId(1)), 2);
        assert_eq!(pool.pending_count(), 1);
        // Re-offering a committed nonce is stale.
        assert_eq!(pool.add(&tx(4, 1, 1, 10)), AddOutcome::Stale);
    }

    #[test]
    fn on_block_handles_unknown_senders() {
        let mut pool = Mempool::new();
        pool.on_block([&tx(1, 9, 4, 10)]);
        assert_eq!(pool.expected_nonce(AccountId(9)), 5);
        assert!(pool.is_empty());
    }

    #[test]
    fn multi_account_independence() {
        let mut pool = Mempool::new();
        pool.add(&tx(1, 1, 1, 10)); // queued (gap at 0)
        pool.add(&tx(2, 2, 0, 10)); // pending
        assert_eq!(pool.pending_count(), 1);
        assert_eq!(pool.queued_count(), 1);
        pool.on_block([&tx(3, 1, 0, 10)]);
        // Account 1's queued tx promotes once nonce 0 commits.
        assert_eq!(pool.pending_count(), 2);
        assert_eq!(pool.queued_count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::pack;
    use super::*;
    use ethmeter_chain::tx::SIMPLE_TX_GAS;
    use ethmeter_types::{ByteSize, NodeId, SimTime};
    use proptest::prelude::*;

    fn arb_tx() -> impl Strategy<Value = Transaction> {
        (0u32..4, 0u64..8, 1u64..100, 0u64..u64::MAX).prop_map(|(s, n, p, id)| Transaction {
            id: TxId(id),
            sender: AccountId(s),
            nonce: n,
            gas_price: p,
            gas: SIMPLE_TX_GAS,
            size: ByteSize::from_bytes(180),
            submitted_at: SimTime::ZERO,
            origin: NodeId(0),
        })
    }

    proptest! {
        /// Whatever arrival order, a packed block never contains a nonce
        /// gap and never violates per-sender nonce ordering.
        #[test]
        fn packed_blocks_are_nonce_valid(txs in proptest::collection::vec(arb_tx(), 0..64)) {
            let mut pool = Mempool::new();
            let mut by_id = std::collections::HashMap::new();
            for t in &txs {
                pool.add(t);
                by_id.insert(t.id, (t.sender, t.nonce));
            }
            let packed = pack(&pool, 1_000 * SIMPLE_TX_GAS);
            // Per-sender nonces in the packed list must be 0,1,2,... exactly.
            let mut seen: std::collections::HashMap<AccountId, Nonce> = Default::default();
            for id in &packed {
                let &(sender, nonce) = by_id.get(id).expect("packed tx came from input");
                let expected = seen.get(&sender).copied().unwrap_or(0);
                prop_assert_eq!(nonce, expected, "sender {:?}", sender);
                seen.insert(sender, expected + 1);
            }
            // No duplicate ids.
            let set: std::collections::HashSet<_> = packed.iter().collect();
            prop_assert_eq!(set.len(), packed.len());
        }

        /// pending + queued always equals len, and counts never go negative
        /// through arbitrary add/commit interleavings.
        #[test]
        fn counts_are_consistent(
            txs in proptest::collection::vec(arb_tx(), 0..48),
            commit_every in 1usize..8,
        ) {
            let mut pool = Mempool::new();
            for (i, t) in txs.iter().enumerate() {
                pool.add(t);
                prop_assert_eq!(pool.pending_count() + pool.queued_count(), pool.len());
                if i % commit_every == 0 {
                    let packed = pack(&pool, 8 * SIMPLE_TX_GAS);
                    let committed: Vec<Transaction> = txs
                        .iter()
                        .filter(|t| packed.contains(&t.id))
                        .cloned()
                        .collect();
                    pool.on_block(committed.iter());
                    prop_assert_eq!(pool.pending_count() + pool.queued_count(), pool.len());
                    // Committed txs are gone.
                    for id in packed {
                        prop_assert!(!pool.contains(id));
                    }
                }
            }
        }
    }
}
