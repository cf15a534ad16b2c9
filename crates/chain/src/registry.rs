//! Campaign-global block and transaction registries with dense storage.
//!
//! The simulation world is the single producer of blocks and
//! transactions; these registries intern each artifact into a contiguous
//! `u32` slot ([`ethmeter_types::BlockIdx`] / [`ethmeter_types::TxIdx`])
//! at creation time. Everything downstream — per-node gossip state, wire
//! sizing, import scheduling — then addresses artifacts by slot (array
//! indexing) instead of by 64-bit hash (hash-map probing), which is the
//! core of the dense-state hot path.
//!
//! Hashes remain the boundary vocabulary: messages, observer logs, and
//! exported datasets all speak [`BlockHash`]/[`TxId`]; slots never leak
//! out of a single campaign.

use ethmeter_types::{BlockHash, BlockIdx, FxHashMap, Interner, TxId, TxIdx};

use crate::block::Block;
use crate::tx::Transaction;

/// Dense, append-only storage of every block produced in one campaign.
#[derive(Debug, Clone, Default)]
pub struct BlockRegistry {
    interner: Interner<BlockHash>,
    blocks: Vec<Block>,
}

impl BlockRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `block`, returning its dense slot. Re-inserting a hash
    /// already present keeps the first block (hashes are content-derived,
    /// so a duplicate hash is the same block).
    pub fn insert(&mut self, block: Block) -> BlockIdx {
        let slot = self.interner.intern(block.hash());
        if slot as usize == self.blocks.len() {
            self.blocks.push(block);
        }
        BlockIdx(slot)
    }

    /// The dense slot of `hash`, if registered.
    #[inline]
    pub fn idx_of(&self, hash: BlockHash) -> Option<BlockIdx> {
        self.interner.lookup(hash).map(BlockIdx)
    }

    /// Looks a block up by hash.
    #[inline]
    pub fn get(&self, hash: BlockHash) -> Option<&Block> {
        self.interner
            .lookup(hash)
            .map(|slot| &self.blocks[slot as usize])
    }

    /// The block in `idx`'s slot.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not issued by this registry.
    #[inline]
    pub fn by_idx(&self, idx: BlockIdx) -> &Block {
        &self.blocks[idx.index()]
    }

    /// Number of registered blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no block was registered.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// All registered blocks, in slot (= creation) order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Moves every block out, in slot order, leaving the interner behind.
    /// The registry is unusable afterwards until [`BlockRegistry::clear`]
    /// runs — this exists so the campaign boundary can materialize owned
    /// ground-truth blocks without cloning them.
    pub fn take_blocks(&mut self) -> Vec<Block> {
        std::mem::take(&mut self.blocks)
    }

    /// Forgets every block, retaining allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.interner.clear();
        self.blocks.clear();
    }
}

/// Dense, append-only storage of every transaction submitted in one
/// campaign.
///
/// The workload driver assigns [`TxId`]s sequentially from 1, so the
/// dense slot is simply `id - 1`: no interning table is needed at all,
/// and `TxId → Transaction` resolution is one bounds-checked array index.
/// [`TxRegistry::insert`] enforces the sequential contract.
#[derive(Debug, Clone, Default)]
pub struct TxRegistry {
    txs: Vec<Transaction>,
}

impl TxRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the next transaction, returning its dense slot.
    ///
    /// # Panics
    ///
    /// Panics if `tx.id` breaks the sequential-from-1 contract.
    pub fn insert(&mut self, tx: Transaction) -> TxIdx {
        let expected = self.txs.len() as u64 + 1;
        assert_eq!(
            tx.id.raw(),
            expected,
            "TxRegistry requires sequential ids (got {}, expected {expected})",
            tx.id
        );
        self.txs.push(tx);
        TxIdx((self.txs.len() - 1) as u32)
    }

    /// The dense slot of `id`, if registered.
    #[inline]
    pub fn idx_of(&self, id: TxId) -> Option<TxIdx> {
        let raw = id.raw();
        if raw >= 1 && raw <= self.txs.len() as u64 {
            Some(TxIdx((raw - 1) as u32))
        } else {
            None
        }
    }

    /// Looks a transaction up by id.
    #[inline]
    pub fn get(&self, id: TxId) -> Option<&Transaction> {
        self.idx_of(id).map(|idx| &self.txs[idx.index()])
    }

    /// The transaction in `idx`'s slot.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not issued by this registry.
    #[inline]
    pub fn by_idx(&self, idx: TxIdx) -> &Transaction {
        &self.txs[idx.index()]
    }

    /// Number of registered transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True if no transaction was registered.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// All transactions in slot (= id) order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> + '_ {
        self.txs.iter()
    }

    /// Forgets every transaction, retaining allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.txs.clear();
    }

    /// Converts into the boundary representation used by exported ground
    /// truth (analysis consumes a `TxId`-keyed map).
    pub fn into_map(self) -> FxHashMap<TxId, Transaction> {
        self.txs.into_iter().map(|t| (t.id, t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use ethmeter_types::{AccountId, ByteSize, NodeId, PoolId, SimTime};

    fn block(salt: u64) -> Block {
        BlockBuilder::new(BlockHash(1), 1, PoolId(0))
            .salt(salt)
            .build()
    }

    fn tx(id: u64) -> Transaction {
        Transaction {
            id: TxId(id),
            sender: AccountId(1),
            nonce: 0,
            gas_price: 1,
            gas: 21_000,
            size: ByteSize::from_bytes(180),
            submitted_at: SimTime::ZERO,
            origin: NodeId(0),
        }
    }

    #[test]
    fn blocks_intern_densely_and_resolve_both_ways() {
        let mut reg = BlockRegistry::new();
        assert!(reg.is_empty());
        let a = block(1);
        let b = block(2);
        let ia = reg.insert(a.clone());
        let ib = reg.insert(b.clone());
        assert_eq!((ia, ib), (BlockIdx(0), BlockIdx(1)));
        assert_eq!(reg.insert(a.clone()), ia, "re-insert keeps the slot");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.idx_of(a.hash()), Some(ia));
        assert_eq!(reg.idx_of(BlockHash(999)), None);
        assert_eq!(reg.by_idx(ib).hash(), b.hash());
        assert_eq!(reg.get(a.hash()).expect("present").hash(), a.hash());
    }

    #[test]
    fn txs_enforce_sequential_contract() {
        let mut reg = TxRegistry::new();
        assert_eq!(reg.insert(tx(1)), TxIdx(0));
        assert_eq!(reg.insert(tx(2)), TxIdx(1));
        assert_eq!(reg.idx_of(TxId(2)), Some(TxIdx(1)));
        assert_eq!(reg.idx_of(TxId(0)), None);
        assert_eq!(reg.idx_of(TxId(3)), None);
        assert_eq!(reg.by_idx(TxIdx(0)).id, TxId(1));
        assert_eq!(reg.get(TxId(2)).expect("present").id, TxId(2));
        assert_eq!(reg.iter().count(), 2);
        let map = reg.into_map();
        assert_eq!(map.len(), 2);
        assert_eq!(map[&TxId(1)].id, TxId(1));
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn out_of_order_tx_id_rejected() {
        let mut reg = TxRegistry::new();
        reg.insert(tx(5));
    }
}
