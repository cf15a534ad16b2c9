//! Wire messages of the simulated `eth/63` protocol.
//!
//! The paper's Table II distinguishes exactly two ways a block reaches a
//! peer — "light announcements (consisting of only the block's hash)" and
//! direct propagation "(including both header and body)" — plus the fetch
//! round-trip announcements trigger. Transactions are relayed one at a
//! time. Every message carries exactly one id, so a `Message` is a tag and
//! a word.

use ethmeter_types::{BlockHash, ByteSize, TxId};

/// Approximate wire overhead of any devp2p message (RLP framing, message
/// id, signature envelope).
pub const MSG_OVERHEAD_BYTES: u64 = 60;

/// Bytes per announced hash in `NewBlockHashes` (hash + number).
pub const ANNOUNCE_ENTRY_BYTES: u64 = 40;

/// A protocol message. Block bodies are addressed by hash; the driver
/// resolves bodies through its block registry when sizing and delivering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// `NewBlockHashes`: light announcement of block availability.
    Announce(BlockHash),
    /// `NewBlock`: unsolicited full block (header + body), the "direct
    /// propagation" path.
    NewBlock(BlockHash),
    /// `GetBlockHeaders`/`GetBlockBodies` collapsed into one fetch request.
    GetBlock(BlockHash),
    /// The fetch response carrying the full block.
    BlockBody(BlockHash),
    /// A complete transaction.
    Tx(TxId),
}

impl Message {
    /// Computes the wire size, resolving block/tx payload sizes via
    /// `block_size` and `tx_size` lookups.
    pub fn size<B, T>(&self, block_size: B, tx_size: T) -> ByteSize
    where
        B: FnOnce(BlockHash) -> ByteSize,
        T: FnOnce(TxId) -> ByteSize,
    {
        let payload = match *self {
            Message::Announce(_) | Message::GetBlock(_) => ANNOUNCE_ENTRY_BYTES,
            Message::NewBlock(h) | Message::BlockBody(h) => block_size(h).as_bytes(),
            Message::Tx(t) => tx_size(t).as_bytes(),
        };
        ByteSize::from_bytes(MSG_OVERHEAD_BYTES + payload)
    }

    /// True for the two block-bearing message kinds (Table II's "Whole
    /// Blocks" row).
    pub fn carries_block_body(&self) -> bool {
        matches!(self, Message::NewBlock(_) | Message::BlockBody(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_block(_: BlockHash) -> ByteSize {
        ByteSize::from_bytes(25_000)
    }

    fn fixed_tx(_: TxId) -> ByteSize {
        ByteSize::from_bytes(180)
    }

    #[test]
    fn announcement_is_light() {
        let ann = Message::Announce(BlockHash(1));
        let full = Message::NewBlock(BlockHash(1));
        let a = ann.size(fixed_block, fixed_tx);
        let f = full.size(fixed_block, fixed_tx);
        assert_eq!(a.as_bytes(), MSG_OVERHEAD_BYTES + ANNOUNCE_ENTRY_BYTES);
        assert_eq!(f.as_bytes(), 25_060);
        assert!(f.as_bytes() > 100 * a.as_bytes() / 2);
    }

    #[test]
    fn tx_sizes_from_the_registry() {
        let one = Message::Tx(TxId(1));
        assert_eq!(
            one.size(fixed_block, fixed_tx).as_bytes(),
            MSG_OVERHEAD_BYTES + 180
        );
        assert!(!one.carries_block_body());
    }

    #[test]
    fn body_kind_classification() {
        assert!(Message::NewBlock(BlockHash(1)).carries_block_body());
        assert!(Message::BlockBody(BlockHash(1)).carries_block_body());
        assert!(!Message::Announce(BlockHash(1)).carries_block_body());
        assert!(!Message::GetBlock(BlockHash(1)).carries_block_body());
    }
}
