//! Block headers and bodies.
//!
//! Block *size* matters to the measurements: a block's wire size determines
//! its serialization delay on access links, which is the physical reason
//! empty blocks "can be propagated earlier ... and faster, since they become
//! smaller due to the absence of transactions" (§III-C3).

use ethmeter_types::{BlockHash, BlockNumber, ByteSize, PoolId, SimTime, TxId};

use crate::uncles::MAX_UNCLES;

/// Approximate RLP size of an Ethereum block header, in bytes.
pub const HEADER_BYTES: u64 = 540;

/// Approximate average RLP size of one transaction, in bytes.
pub const TX_BYTES: u64 = 180;

/// The consensus-relevant part of a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    hash: BlockHash,
    parent: BlockHash,
    number: BlockNumber,
    miner: PoolId,
    /// When the miner sealed the block (true simulation time).
    mined_at: SimTime,
    /// Per-block difficulty. The simulator holds difficulty constant (the
    /// difficulty-adjustment dynamics are outside the paper's scope), so
    /// total difficulty orders chains by length exactly as Ethereum's
    /// heaviest-chain rule does under steady hash rate.
    difficulty: u64,
}

impl BlockHeader {
    /// The block's hash.
    pub fn hash(&self) -> BlockHash {
        self.hash
    }

    /// The parent block's hash.
    pub fn parent(&self) -> BlockHash {
        self.parent
    }

    /// The height of this block.
    pub fn number(&self) -> BlockNumber {
        self.number
    }

    /// The pool that mined this block.
    pub fn miner(&self) -> PoolId {
        self.miner
    }

    /// The sealing instant.
    pub fn mined_at(&self) -> SimTime {
        self.mined_at
    }

    /// The per-block difficulty.
    pub fn difficulty(&self) -> u64 {
        self.difficulty
    }
}

/// A full block: header, transaction list, and uncle references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    header: BlockHeader,
    txs: Vec<TxId>,
    uncles: Uncles,
}

/// A block's uncle references, held inline: no block cites more than
/// [`MAX_UNCLES`], so a list costs no allocation (and takes the 24 bytes
/// a `Vec` header did). Unused slots stay zero, so derived equality
/// compares the lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Uncles {
    hashes: [BlockHash; MAX_UNCLES],
    len: u8,
}

impl Uncles {
    fn as_slice(&self) -> &[BlockHash] {
        &self.hashes[..usize::from(self.len)]
    }
}

impl Block {
    /// The header.
    pub fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// The block's hash (shorthand for `header().hash()`).
    pub fn hash(&self) -> BlockHash {
        self.header.hash
    }

    /// The parent hash.
    pub fn parent(&self) -> BlockHash {
        self.header.parent
    }

    /// The height.
    pub fn number(&self) -> BlockNumber {
        self.header.number
    }

    /// The mining pool.
    pub fn miner(&self) -> PoolId {
        self.header.miner
    }

    /// The sealing instant.
    pub fn mined_at(&self) -> SimTime {
        self.header.mined_at
    }

    /// Transactions included in this block, in execution order.
    pub fn txs(&self) -> &[TxId] {
        &self.txs
    }

    /// Uncle headers referenced by this block.
    pub fn uncles(&self) -> &[BlockHash] {
        self.uncles.as_slice()
    }

    /// True if the block carries no transactions (§III-C3's subject).
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Approximate wire size: header + transactions + uncle headers.
    pub fn size(&self) -> ByteSize {
        ByteSize::from_bytes(
            HEADER_BYTES
                + self.txs.len() as u64 * TX_BYTES
                + u64::from(self.uncles.len) * HEADER_BYTES,
        )
    }
}

/// Builder for blocks ([C-BUILDER]); the only way to construct one, which
/// lets the constructor enforce hash uniqueness conventions in one place.
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone)]
pub struct BlockBuilder {
    parent: BlockHash,
    number: BlockNumber,
    miner: PoolId,
    mined_at: SimTime,
    difficulty: u64,
    txs: Vec<TxId>,
    uncles: Uncles,
    hash_salt: u64,
}

impl BlockBuilder {
    /// Starts a block on `parent` at height `number`, mined by `miner`.
    pub fn new(parent: BlockHash, number: BlockNumber, miner: PoolId) -> Self {
        BlockBuilder {
            parent,
            number,
            miner,
            mined_at: SimTime::ZERO,
            difficulty: 1,
            txs: Vec::new(),
            uncles: Uncles::default(),
            hash_salt: 0,
        }
    }

    /// Sets the sealing time.
    pub fn mined_at(mut self, at: SimTime) -> Self {
        self.mined_at = at;
        self
    }

    /// Sets the difficulty (default 1).
    pub fn difficulty(mut self, difficulty: u64) -> Self {
        self.difficulty = difficulty;
        self
    }

    /// Sets the transaction list.
    pub fn txs(mut self, txs: Vec<TxId>) -> Self {
        self.txs = txs;
        self
    }

    /// Sets the uncle references (any list of hashes: a `Vec`, an
    /// array, or an iterator such as a pick list's hashes).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_UNCLES`] are supplied.
    pub fn uncles(mut self, uncles: impl IntoIterator<Item = BlockHash>) -> Self {
        let mut list = Uncles::default();
        for hash in uncles {
            let at = usize::from(list.len);
            assert!(
                at < MAX_UNCLES,
                "a block may reference at most {MAX_UNCLES} uncles"
            );
            list.hashes[at] = hash;
            list.len += 1;
        }
        self.uncles = list;
        self
    }

    /// Adds entropy distinguishing blocks that would otherwise have
    /// identical fields (two same-miner same-parent blocks — the one-miner
    /// fork case — must still get distinct hashes).
    pub fn salt(mut self, salt: u64) -> Self {
        self.hash_salt = salt;
        self
    }

    /// Builds the block, deriving its hash from all header fields.
    pub fn build(self) -> Block {
        // Combine the identity-bearing fields into the hash preimage. Tx
        // ids participate so blocks with different bodies differ.
        let mut acc = self.parent.raw() ^ self.number.rotate_left(17);
        acc ^= (u64::from(self.miner.raw())).rotate_left(32);
        acc ^= self.mined_at.as_nanos().rotate_left(7);
        acc ^= self.hash_salt.rotate_left(43);
        for (i, tx) in self.txs.iter().enumerate() {
            acc ^= tx.raw().rotate_left((i % 63) as u32 + 1);
        }
        for u in self.uncles.as_slice() {
            acc ^= u.raw().rotate_left(11);
        }
        let hash = BlockHash::mix(acc);
        Block {
            header: BlockHeader {
                hash,
                parent: self.parent,
                number: self.number,
                miner: self.miner,
                mined_at: self.mined_at,
                difficulty: self.difficulty,
            },
            txs: self.txs,
            uncles: self.uncles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let b = BlockBuilder::new(BlockHash(1), 5, PoolId(3))
            .mined_at(SimTime::from_secs(60))
            .difficulty(7)
            .txs(vec![TxId(10), TxId(11)])
            .build();
        assert_eq!(b.parent(), BlockHash(1));
        assert_eq!(b.number(), 5);
        assert_eq!(b.miner(), PoolId(3));
        assert_eq!(b.mined_at(), SimTime::from_secs(60));
        assert_eq!(b.header().difficulty(), 7);
        assert_eq!(b.txs(), &[TxId(10), TxId(11)]);
        assert!(!b.is_empty());
    }

    #[test]
    fn empty_block_is_smaller() {
        let empty = BlockBuilder::new(BlockHash(1), 1, PoolId(0)).build();
        let full = BlockBuilder::new(BlockHash(1), 1, PoolId(0))
            .txs((0..100).map(TxId).collect())
            .build();
        assert!(empty.is_empty());
        assert_eq!(empty.size().as_bytes(), HEADER_BYTES);
        assert_eq!(full.size().as_bytes(), HEADER_BYTES + 100 * TX_BYTES);
        assert!(full.size() > empty.size());
    }

    #[test]
    fn uncle_references_add_size() {
        let b = BlockBuilder::new(BlockHash(1), 2, PoolId(0))
            .uncles(vec![BlockHash(9)])
            .build();
        assert_eq!(b.size().as_bytes(), 2 * HEADER_BYTES);
        assert_eq!(b.uncles(), &[BlockHash(9)]);
    }

    #[test]
    fn hashes_distinguish_content() {
        let base = || BlockBuilder::new(BlockHash(1), 5, PoolId(3));
        let a = base().build();
        let b = base().txs(vec![TxId(1)]).build();
        let c = base().salt(1).build();
        let d = base().mined_at(SimTime::from_secs(1)).build();
        let hashes = [a.hash(), b.hash(), c.hash(), d.hash()];
        for i in 0..hashes.len() {
            for j in 0..i {
                assert_ne!(hashes[i], hashes[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn identical_builds_share_hash() {
        let a = BlockBuilder::new(BlockHash(1), 5, PoolId(3)).build();
        let b = BlockBuilder::new(BlockHash(1), 5, PoolId(3)).build();
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_uncles_rejected() {
        let _ = BlockBuilder::new(BlockHash(1), 2, PoolId(0)).uncles(vec![
            BlockHash(1),
            BlockHash(2),
            BlockHash(3),
        ]);
    }
}
