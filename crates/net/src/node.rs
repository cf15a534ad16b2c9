//! The per-node protocol state machine.
//!
//! A [`Node`] makes Geth-1.8's gossip decisions: push full blocks to
//! √(peers) immediately on arrival (before import), announce to the rest
//! after import, fetch announced blocks with timeout fallback, and relay
//! fresh transactions. It returns the [`Send`]s it wants performed; the
//! simulation driver applies link latency and schedules delivery, keeping
//! this type synchronous and unit-testable.
//!
//! Hot-path layout: all per-peer and per-artifact state is dense, and a
//! node's share of it is proportional to its degree and to the keys
//! gossip is currently touching — never to the size of the network.
//! Blocks and transactions arrive with their campaign-interned slots
//! ([`BlockIdx`]/[`TxIdx`], issued by the driver's registries at creation
//! time) and peers are addressed by connection position:
//!
//! - a message's sender is turned into its position by the peer index, a
//!   flat probe table of packed `(NodeId, position)` words kept at most
//!   half full (`2 × degree` slots, a few cache lines), so the lookup is
//!   O(1) without a table as wide as the id space;
//! - what the node and each peer are known to have is two key-major
//!   bitmap families ([`PeerKnownSet`]) with one layout: position 0 is the
//!   node itself and position `p + 1` is peer `p`. In the family keyed by
//!   [`BlockIdx`] the node's own position holds the block bodies it has
//!   (the last `4 × header_window` arrivals); in the family keyed by
//!   [`TxIdx`] it is the node's "seen" bit. A delivery's own check, the
//!   sender's known-bit and the relay fan-out all land in the same row,
//!   and each family's eviction queues are chains of chunks in one pool,
//!   so a node's whole gossip state is a handful of allocations however
//!   many peers it has.
//!
//! What that guarantees: the gossip bookkeeping itself — who knows what,
//! what is being fetched, what awaits import — holds no hash map, keyed
//! by `NodeId`, `BlockHash` or anything else. Handlers do reach two
//! hash-keyed structures, both bounded by their own window rather than
//! by the campaign: the node's header view (`chain`, the chain crate's
//! fork-choice core with a pruning window), which `on_block_arrival`,
//! `on_announce` and `on_fetch_timeout` probe with `chain.contains(hash)`
//! when the node holds no body for the block and `on_import_complete`
//! inserts into; and, on the nodes that run one, the `Mempool`. Wire
//! messages still carry real hashes; slots never leave the process.
//!
//! Handlers are allocation-free in steady state: every handler appends
//! its outgoing messages to a caller-owned `Vec<Send>` (the driver
//! recycles one buffer across all events), every message is one id, and
//! all intermediate candidate lists live in one caller-owned
//! [`GossipScratch`] passed beside that buffer — they hold nothing between
//! calls, so a copy per node would only be ten thousand cold allocations.
//!
//! [`TxIdx`]: ethmeter_types::TxIdx

use std::sync::Arc;

use ethmeter_chain::block::Block;
use ethmeter_chain::consensus::Consensus;
use ethmeter_chain::TxRegistry;
use ethmeter_sim::Xoshiro256;
use ethmeter_types::{BlockHash, BlockIdx, NodeId, TxId};

use crate::config::{NetConfig, TxRelayPolicy};
use crate::headerview::{HeaderView, InsertOutcome};
use crate::known::PeerKnownSet;
use crate::message::Message;
use ethmeter_txpool::Mempool;

/// An outgoing message the driver must deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Send {
    /// Destination peer.
    pub to: NodeId,
    /// Payload.
    pub msg: Message,
}

/// Whether the node wants an import scheduled after validation latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportAction {
    /// Schedule `on_import_complete` for this block after validation time.
    Schedule(BlockIdx),
    /// Nothing to do (duplicate or unwanted).
    None,
}

#[derive(Debug, Clone)]
struct FetchState {
    announcers: Vec<NodeId>,
    tried: usize,
}

/// Candidate lists of one handler call, owned by the driver and shared by
/// every node (cleared before use; nothing survives a call).
#[derive(Debug, Default)]
pub struct GossipScratch {
    /// Relay candidates as `(family position, peer)` pairs. Carrying the
    /// position avoids a peer-index lookup per send in the fan-out loops.
    targets: Vec<(u32, NodeId)>,
    /// The sampled subset of `targets` under a √ fan-out.
    picks: Vec<(u32, NodeId)>,
    /// Sampled fan-out indices into `targets`.
    sampled: Vec<usize>,
}

/// The node's own position in both known-set families; peer `p` is at
/// [`peer_pos`]`(p)`.
const SELF_POS: usize = 0;

/// Position of the peer at slab position `pos` in a known-set family.
#[inline]
fn peer_pos(pos: usize) -> usize {
    pos + 1
}

/// Fibonacci-hash bucket of `key` in a power-of-two table of `len` slots.
#[inline]
fn fib_bucket(key: u32, len: usize) -> usize {
    debug_assert!(len.is_power_of_two());
    let h = u64::from(key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) as usize & (len - 1)
}

/// `NodeId → peer position` in O(degree) memory: a linear-probing table
/// of `(id << 32) | (position + 1)` words, 0 marking a free slot. The
/// length is a power of two at least twice the number of peers (or zero
/// before the first link), so probe chains stay short and always end.
#[derive(Debug, Default)]
struct PeerIndex {
    slots: Vec<u64>,
}

impl PeerIndex {
    #[inline]
    fn get(&self, peer: NodeId) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = fib_bucket(peer.raw(), self.slots.len());
        loop {
            let entry = self.slots[i];
            if entry == 0 {
                return None;
            }
            if (entry >> 32) as u32 == peer.raw() {
                return Some((entry as u32 - 1) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Places an entry; the caller guarantees `peer` is absent and a free
    /// slot exists.
    fn place(&mut self, peer: NodeId, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut i = fib_bucket(peer.raw(), self.slots.len());
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (u64::from(peer.raw()) << 32) | (pos as u64 + 1);
    }

    /// Makes the table map exactly `peers[pos] → pos`, at most half full.
    /// It grows to fit and never shrinks.
    fn rebuild(&mut self, peers: &[NodeId]) {
        let len = (2 * peers.len())
            .next_power_of_two()
            .max(8)
            .max(self.slots.len());
        self.slots.clear();
        self.slots.resize(len, 0);
        for (pos, &peer) in peers.iter().enumerate() {
            self.place(peer, pos);
        }
    }

    /// Records the peer just pushed at the tail of `peers`.
    fn push(&mut self, peers: &[NodeId]) {
        if self.slots.len() < 2 * peers.len() {
            self.rebuild(peers);
        } else {
            self.place(peers[peers.len() - 1], peers.len() - 1);
        }
    }

    fn clear(&mut self) {
        self.slots.fill(0);
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }
}

/// Why a runtime link add was rejected (see [`Node::try_add_link`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// Both endpoints are the same node.
    SelfLink,
    /// The link already exists.
    Duplicate,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::SelfLink => write!(f, "self-link"),
            LinkError::Duplicate => write!(f, "duplicate link"),
        }
    }
}

impl std::error::Error for LinkError {}

/// A network node: peer links, chain view, gossip state, and (for miner
/// gateways) a mempool.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    peers: Vec<NodeId>,
    /// Position of each peer in `peers` (slab key for the per-peer state
    /// below).
    peer_index: PeerIndex,
    /// Known-block sets keyed by [`BlockIdx`] — one family (see
    /// [`PeerKnownSet`]: a key-major bitmap plus one pool of FIFO chunks)
    /// holding the blocks whose body this node holds (or is importing) at
    /// [`SELF_POS`] and what each peer is known to have at [`peer_pos`].
    known_blocks: PeerKnownSet,
    /// Known-tx sets keyed by [`TxIdx`](ethmeter_types::TxIdx) — a second
    /// family with the same layout, holding the transactions this node
    /// has seen at [`SELF_POS`]: a delivery checks that bit and floods the
    /// rest of the same recent row, so all of it sits on one hot cache
    /// line.
    known_txs: PeerKnownSet,
    chain: HeaderView,
    /// Blocks with a scheduled import: `(slot, provenance)`. In-flight
    /// imports are at most a handful, so a flat vector with linear probes
    /// beats any hashed structure.
    import_pending: Vec<(BlockIdx, Option<NodeId>)>,
    /// Blocks currently being fetched (same flat-vector reasoning).
    fetching: Vec<(BlockIdx, FetchState)>,
    mempool: Option<Mempool>,
    /// A cleared mempool parked here across [`Node::reset`] so a node
    /// that is a gateway again next campaign reuses the allocation.
    spare_mempool: Option<Mempool>,
}

impl Node {
    /// Creates a node rooted at `genesis`, with fork choice driven by
    /// `consensus`.
    pub fn new(
        id: NodeId,
        genesis: BlockHash,
        cfg: &NetConfig,
        consensus: Arc<dyn Consensus>,
    ) -> Self {
        let mut node = Node {
            id,
            peers: Vec::new(),
            peer_index: PeerIndex::default(),
            known_blocks: PeerKnownSet::new(),
            known_txs: PeerKnownSet::new(),
            chain: HeaderView::with_consensus(genesis, cfg.header_window, Arc::clone(&consensus)),
            import_pending: Vec::new(),
            fetching: Vec::new(),
            mempool: None,
            spare_mempool: None,
        };
        node.reset(id, genesis, cfg, consensus);
        node
    }

    /// Rewinds the node to the state `Node::new(id, genesis, cfg,
    /// consensus)` builds (`new` is an empty shell plus this
    /// call), keeping every allocation: peer slabs, the known-set
    /// families' chunk pools, the header view's maps, and the mempool (if
    /// re-enabled). Campaign-over-campaign behavior is identical to a
    /// fresh node.
    pub fn reset(
        &mut self,
        id: NodeId,
        genesis: BlockHash,
        cfg: &NetConfig,
        consensus: Arc<dyn Consensus>,
    ) {
        self.id = id;
        self.peers.clear();
        self.peer_index.clear();
        self.known_blocks.clear();
        self.known_txs.clear();
        let own = (
            self.known_blocks.add_peer(4 * cfg.header_window as usize),
            self.known_txs.add_peer(cfg.known_txs_cap),
        );
        debug_assert_eq!(own, (SELF_POS, SELF_POS));
        self.chain.reset_with(genesis, cfg.header_window, consensus);
        self.import_pending.clear();
        self.fetching.clear();
        if let Some(mut pool) = self.mempool.take() {
            pool.clear();
            self.spare_mempool = Some(pool);
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's header view of the chain.
    pub fn chain(&self) -> &HeaderView {
        &self.chain
    }

    /// Connected peers, in connection order.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Attaches a mempool (miner gateways and any node that should track
    /// executable transactions).
    pub fn enable_mempool(&mut self) {
        if self.mempool.is_none() {
            self.mempool = Some(self.spare_mempool.take().unwrap_or_default());
        }
    }

    /// The node's mempool, if enabled.
    pub fn mempool(&self) -> Option<&Mempool> {
        self.mempool.as_ref()
    }

    /// Registers a bidirectional link (the driver calls this on both
    /// ends). This is the only link-add path: a malformed link — self-link
    /// or duplicate — surfaces a structured [`LinkError`] instead of
    /// panicking, whether it comes from topology construction or from the
    /// runtime join/heal path inside a shard worker.
    pub fn try_add_link(&mut self, peer: NodeId, cfg: &NetConfig) -> Result<(), LinkError> {
        if peer == self.id {
            return Err(LinkError::SelfLink);
        }
        if self.pos_of(peer).is_some() {
            return Err(LinkError::Duplicate);
        }
        let pos = self.peers.len();
        self.peers.push(peer);
        self.peer_index.push(&self.peers);
        let registered = (
            self.known_blocks.add_peer(cfg.known_blocks_cap),
            self.known_txs.add_peer(cfg.known_txs_cap),
        );
        debug_assert_eq!(
            registered,
            (peer_pos(pos), peer_pos(pos)),
            "peer slabs advance in lockstep"
        );
        Ok(())
    }

    /// True if `peer` is currently linked.
    #[inline]
    pub fn is_peer(&self, peer: NodeId) -> bool {
        self.pos_of(peer).is_some()
    }

    /// Tears down the link to `peer`, dropping its per-link gossip state
    /// (known-blocks and known-txs bits) without disturbing any other
    /// link's state. Returns `false` if no such link exists.
    ///
    /// In-flight fetch/announce bookkeeping may still name the departed
    /// peer; the driver drops sends addressed to non-peers, and arrivals
    /// from non-peers are already tolerated as no-ops.
    pub fn disconnect(&mut self, peer: NodeId) -> bool {
        let Some(pos) = self.pos_of(peer) else {
            return false;
        };
        self.peers.swap_remove(pos);
        self.peer_index.rebuild(&self.peers);
        self.known_blocks.remove_peer(peer_pos(pos));
        self.known_txs.remove_peer(peer_pos(pos));
        true
    }

    /// Degree of this node.
    #[cfg(test)]
    pub fn degree(&self) -> usize {
        self.peers.len()
    }

    /// Heap bytes held by this node's gossip state: the peer slabs and
    /// index and the known-block and known-tx families (bitmap pages,
    /// chunk pools and cursors). A diagnostic for the layout contract in
    /// the module doc — it must track the node's degree and gossip window,
    /// not the network's size. The header view and the mempool are not
    /// counted.
    // detlint::allow(unread-pub, reason = "the per-node memory budget of run telemetry (ROADMAP item 6) reads it; core tests pin it today")
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.peers.capacity() * size_of::<NodeId>()
            + self.peer_index.heap_bytes()
            + self.known_blocks.heap_bytes()
            + self.known_txs.heap_bytes()
    }

    /// The node's known-tx family: its own seen-set at position 0, then one
    /// bounded set per peer in connection order (diagnostics).
    pub fn known_txs(&self) -> &PeerKnownSet {
        &self.known_txs
    }

    /// The slab position of `peer`, if connected.
    #[inline]
    fn pos_of(&self, peer: NodeId) -> Option<usize> {
        self.peer_index.get(peer)
    }

    #[inline]
    fn mark_peer_knows_block(&mut self, peer: NodeId, idx: BlockIdx) {
        if let Some(p) = self.pos_of(peer) {
            self.known_blocks.insert(peer_pos(p), idx.raw());
        }
    }

    #[inline]
    fn pending_provenance(&mut self, idx: BlockIdx) -> Option<Option<NodeId>> {
        self.import_pending
            .iter()
            .position(|&(i, _)| i == idx)
            .map(|at| self.import_pending.swap_remove(at).1)
    }

    #[inline]
    fn is_import_pending(&self, idx: BlockIdx) -> bool {
        self.import_pending.iter().any(|&(i, _)| i == idx)
    }

    /// Handles a full block arriving — by unsolicited push (`NewBlock`),
    /// fetch response (`BlockBody`), or local mining (`from = None`).
    ///
    /// `idx` is the block's campaign-interned slot (from the driver's
    /// registry). Appends the immediate relays (full-block pushes to
    /// √(peers)) to `out` and returns whether to schedule an import.
    #[allow(clippy::too_many_arguments)]
    pub fn on_block_arrival(
        &mut self,
        from: Option<NodeId>,
        block: &Block,
        idx: BlockIdx,
        cfg: &NetConfig,
        rng: &mut Xoshiro256,
        scratch: &mut GossipScratch,
        out: &mut Vec<Send>,
    ) -> ImportAction {
        let hash = block.hash();
        if let Some(p) = from {
            self.mark_peer_knows_block(p, idx);
        }
        if let Some(at) = self.fetching.iter().position(|(i, _)| *i == idx) {
            self.fetching.swap_remove(at);
        }
        if self.has_block_body(idx) || self.chain.contains(hash) || self.is_import_pending(idx) {
            return ImportAction::None;
        }
        self.known_blocks.insert(SELF_POS, idx.raw());

        // Relay policy: push head candidates and side blocks within the
        // relay window.
        let head_number = self.chain.head_number();
        let improves = block.number() > head_number;
        let recent = block.number() + cfg.relay_window > head_number;
        let relay = improves || recent;

        if relay {
            let GossipScratch {
                targets, sampled, ..
            } = scratch;
            targets.clear();
            for pos in 0..self.peers.len() {
                let p = self.peers[pos];
                if Some(p) != from && !self.known_blocks.contains(peer_pos(pos), idx.raw()) {
                    targets.push((peer_pos(pos) as u32, p));
                }
            }
            // Locally produced blocks (miner gateways) are pushed to every
            // peer: pool gateway software floods its own blocks to minimize
            // orphan risk, unlike vanilla Geth's sqrt relay.
            let fanout = if from.is_none() {
                targets.len()
            } else {
                cfg.push_fanout(self.peers.len()).min(targets.len())
            };
            rng.sample_indices_into(targets.len(), fanout, sampled);
            out.reserve(sampled.len());
            for &t in sampled.iter() {
                let (pos, peer) = targets[t];
                self.known_blocks.insert(pos as usize, idx.raw());
                out.push(Send {
                    to: peer,
                    msg: Message::NewBlock(hash),
                });
            }
        }
        self.import_pending.push((idx, from));
        ImportAction::Schedule(idx)
    }

    /// Handles a `NewBlockHashes` announcement of `hash` (interned at
    /// `idx`): fetch the block from the announcer unless it is held or
    /// already being fetched (Geth's fetcher). The request is appended to
    /// `out`; returns whether one was sent, so the driver can arm the
    /// fetch timeout.
    pub fn on_announce(
        &mut self,
        from: NodeId,
        hash: BlockHash,
        idx: BlockIdx,
        out: &mut Vec<Send>,
    ) -> bool {
        self.mark_peer_knows_block(from, idx);
        if self.has_block_body(idx) || self.chain.contains(hash) || self.is_import_pending(idx) {
            return false;
        }
        if let Some((_, f)) = self.fetching.iter_mut().find(|(i, _)| *i == idx) {
            if !f.announcers.contains(&from) {
                f.announcers.push(from);
            }
            return false;
        }
        self.fetching.push((
            idx,
            FetchState {
                announcers: vec![from],
                tried: 1,
            },
        ));
        out.push(Send {
            to: from,
            msg: Message::GetBlock(hash),
        });
        true
    }

    /// Fetch timeout: re-request from the next announcer, or give up.
    ///
    /// Appends the re-request (if any) to `out` and returns whether one
    /// was sent; the driver re-arms the timeout when it was.
    pub fn on_fetch_timeout(
        &mut self,
        hash: BlockHash,
        idx: BlockIdx,
        out: &mut Vec<Send>,
    ) -> bool {
        let Some(at) = self.fetching.iter().position(|(i, _)| *i == idx) else {
            return false;
        };
        let held = self.has_block_body(idx) || self.chain.contains(hash);
        let f = &mut self.fetching[at].1;
        if !held && f.tried < f.announcers.len() {
            let next = f.announcers[f.tried];
            f.tried += 1;
            out.push(Send {
                to: next,
                msg: Message::GetBlock(hash),
            });
            return true;
        }
        // Held already, or out of announcers (give up; a push may still
        // deliver it): the fetch is over.
        self.fetching.swap_remove(at);
        false
    }

    /// Serves a fetch request if the body is available (appended to
    /// `out`).
    pub fn on_get_block(
        &mut self,
        from: NodeId,
        hash: BlockHash,
        idx: BlockIdx,
        out: &mut Vec<Send>,
    ) {
        if !self.has_block_body(idx) {
            return;
        }
        self.mark_peer_knows_block(from, idx);
        out.push(Send {
            to: from,
            msg: Message::BlockBody(hash),
        });
    }

    /// Completes an import after validation latency: inserts into the
    /// chain view, prunes the mempool, and announces to unknowing peers
    /// (appended to `out`).
    ///
    /// `txs` is the driver's registry, which resolves the block's
    /// transactions when a mempool has to be pruned. Returns true if the
    /// block became the node's head.
    pub fn on_import_complete(
        &mut self,
        block: &Block,
        idx: BlockIdx,
        txs: &TxRegistry,
        cfg: &NetConfig,
        out: &mut Vec<Send>,
    ) -> bool {
        let hash = block.hash();
        let provenance = self.pending_provenance(idx).flatten();
        let outcome = self.chain.insert(
            hash,
            block.parent(),
            block.number(),
            block.miner(),
            block.header().difficulty(),
            block.uncles(),
        );
        let new_head = matches!(outcome, Ok(InsertOutcome::Attached { new_head: true, .. }));

        if outcome == Ok(InsertOutcome::Orphaned) {
            // Ask whoever gave us the block for its parent (Geth's fetcher
            // backfill). If it was locally mined there is no one to ask.
            if let Some(p) = provenance {
                out.push(Send {
                    to: p,
                    msg: Message::GetBlock(block.parent()),
                });
            }
            return new_head;
        }

        if let Some(pool) = self.mempool.as_mut() {
            if new_head {
                pool.on_block(block.txs().iter().filter_map(|&id| txs.get(id)));
            }
        }

        // Post-import announcement to everyone not known to have it.
        let head_number = self.chain.head_number();
        let recent = block.number() + cfg.relay_window > head_number;
        if new_head || recent {
            for pos in 0..self.peers.len() {
                // One fused probe: `insert` is a no-op on a peer that
                // already knows the block.
                if !self.known_blocks.insert(peer_pos(pos), idx.raw()) {
                    continue;
                }
                out.push(Send {
                    to: self.peers[pos],
                    msg: Message::Announce(hash),
                });
            }
        }
        new_head
    }

    /// Handles a transaction (`from = None` for a local submission
    /// injected by the workload), given by id and resolved against the
    /// driver's registry `txs`; an id it never issued is skipped.
    ///
    /// Appends the relays to `out`. A fresh transaction is added to the
    /// mempool if one is enabled.
    #[allow(clippy::too_many_arguments)]
    pub fn on_transactions(
        &mut self,
        from: Option<NodeId>,
        id: TxId,
        txs: &TxRegistry,
        cfg: &NetConfig,
        rng: &mut Xoshiro256,
        scratch: &mut GossipScratch,
        out: &mut Vec<Send>,
    ) {
        let Some(idx) = txs.idx_of(id) else {
            return;
        };
        if let Some(p) = from.and_then(|p| self.pos_of(p)) {
            self.known_txs.insert(peer_pos(p), idx.raw());
        }
        if !self.known_txs.insert(SELF_POS, idx.raw()) {
            return;
        }
        if let Some(pool) = self.mempool.as_mut() {
            pool.add(txs.by_idx(idx));
        }
        let GossipScratch {
            targets,
            picks,
            sampled,
        } = scratch;
        // Choose relay targets, each with its position in the known-tx
        // family.
        targets.clear();
        for pos in 0..self.peers.len() {
            let p = self.peers[pos];
            if Some(p) != from {
                targets.push((peer_pos(pos) as u32, p));
            }
        }
        let targets = if cfg.tx_relay == TxRelayPolicy::Sqrt {
            let fanout = cfg.push_fanout(self.peers.len()).min(targets.len());
            rng.sample_indices_into(targets.len(), fanout, sampled);
            // Picks may reference positions in any order, so they are
            // gathered into a second buffer rather than compacted in place.
            picks.clear();
            picks.extend(sampled.iter().map(|&t| targets[t]));
            picks
        } else {
            targets
        };
        // `insert` returning true ⟺ the peer did not know the tx, so one
        // fused probe replaces the old contains-then-insert pair; the set
        // state afterwards is identical (duplicate inserts are no-ops).
        out.reserve(targets.len());
        for &(pos, peer) in targets.iter() {
            if self.known_txs.insert(pos as usize, idx.raw()) {
                out.push(Send {
                    to: peer,
                    msg: Message::Tx(id),
                });
            }
        }
    }

    /// True if this block is currently being fetched.
    #[cfg(test)]
    pub fn is_fetching(&self, idx: BlockIdx) -> bool {
        self.fetching.iter().any(|(i, _)| *i == idx)
    }

    /// True if the node holds (or is importing) this block's body — one
    /// of its last `4 × header_window` arrivals.
    #[inline]
    pub fn has_block_body(&self, idx: BlockIdx) -> bool {
        self.known_blocks.contains(SELF_POS, idx.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethmeter_chain::block::BlockBuilder;
    use ethmeter_chain::consensus::ConsensusKind;
    use ethmeter_chain::tx::Transaction;
    use ethmeter_chain::BlockRegistry;
    use ethmeter_types::{AccountId, ByteSize, PoolId, SimTime};
    use std::collections::HashSet;

    fn cfg() -> NetConfig {
        NetConfig::default()
    }

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(7)
    }

    fn genesis() -> BlockHash {
        BlockHash::mix(0)
    }

    fn node(id: u32, n_peers: u32) -> Node {
        let c = cfg();
        let mut n = Node::new(NodeId(id), genesis(), &c, ConsensusKind::Heaviest.build());
        for p in 0..n_peers {
            if p != id {
                n.try_add_link(NodeId(p), &c)
                    .expect("well-formed test link");
            }
        }
        n
    }

    fn block1() -> Block {
        BlockBuilder::new(genesis(), 1, PoolId(0))
            .mined_at(SimTime::from_secs(13))
            .build()
    }

    /// Interns `block` the way the driver does at creation time.
    fn intern(reg: &mut BlockRegistry, block: &Block) -> BlockIdx {
        reg.insert(block.clone())
    }

    /// A registry holding transactions `TxId(1)..=TxId(n)`, interned the
    /// way the driver does at submission time.
    fn tx_registry(n: u64) -> TxRegistry {
        let mut reg = TxRegistry::new();
        for id in 1..=n {
            reg.insert(Transaction {
                id: TxId(id),
                sender: AccountId(1),
                nonce: id - 1,
                gas_price: 5,
                gas: 21_000,
                size: ByteSize::from_bytes(180),
                submitted_at: SimTime::ZERO,
                origin: NodeId(0),
            });
        }
        reg
    }

    /// Out-buffer wrappers so assertions read like the old value-returning
    /// API.
    fn arrive(
        n: &mut Node,
        from: Option<NodeId>,
        b: &Block,
        idx: BlockIdx,
        c: &NetConfig,
        rng: &mut Xoshiro256,
    ) -> (Vec<Send>, ImportAction) {
        let mut sends = Vec::new();
        let action = n.on_block_arrival(
            from,
            b,
            idx,
            c,
            rng,
            &mut GossipScratch::default(),
            &mut sends,
        );
        (sends, action)
    }

    fn import(
        n: &mut Node,
        b: &Block,
        idx: BlockIdx,
        txs: &TxRegistry,
        c: &NetConfig,
    ) -> (Vec<Send>, bool) {
        let mut sends = Vec::new();
        let new_head = n.on_import_complete(b, idx, txs, c, &mut sends);
        (sends, new_head)
    }

    /// The fetch handlers also report whether they sent a request; the
    /// wrappers check that against the buffer.
    fn announce(n: &mut Node, from: NodeId, hash: BlockHash, idx: BlockIdx) -> Vec<Send> {
        let mut sends = Vec::new();
        let sent = n.on_announce(from, hash, idx, &mut sends);
        assert_eq!(sent, !sends.is_empty());
        sends
    }

    fn timeout(n: &mut Node, hash: BlockHash, idx: BlockIdx) -> Vec<Send> {
        let mut sends = Vec::new();
        let sent = n.on_fetch_timeout(hash, idx, &mut sends);
        assert_eq!(sent, !sends.is_empty());
        sends
    }

    fn get_block(n: &mut Node, from: NodeId, hash: BlockHash, idx: BlockIdx) -> Vec<Send> {
        let mut sends = Vec::new();
        n.on_get_block(from, hash, idx, &mut sends);
        sends
    }

    fn transactions(
        n: &mut Node,
        from: Option<NodeId>,
        id: TxId,
        txs: &TxRegistry,
        c: &NetConfig,
        rng: &mut Xoshiro256,
    ) -> Vec<Send> {
        let mut sends = Vec::new();
        n.on_transactions(
            from,
            id,
            txs,
            c,
            rng,
            &mut GossipScratch::default(),
            &mut sends,
        );
        sends
    }

    #[test]
    fn push_relays_to_sqrt_peers_and_schedules_import() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 25);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let (sends, action) = arrive(&mut n, Some(NodeId(1)), &b, idx, &cfg(), &mut rng());
        assert_eq!(action, ImportAction::Schedule(idx));
        // sqrt(25) = 5 pushes, never back to the sender.
        assert_eq!(sends.len(), 5);
        assert!(sends.iter().all(|s| s.to != NodeId(1)));
        assert!(sends
            .iter()
            .all(|s| matches!(s.msg, Message::NewBlock(h) if h == b.hash())));
        // Distinct targets.
        let set: HashSet<NodeId> = sends.iter().map(|s| s.to).collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn handlers_append_to_the_out_buffer() {
        // The driver recycles one buffer across events; handlers must
        // append, never clear.
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 25);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let mut sends = vec![Send {
            to: NodeId(7),
            msg: Message::GetBlock(BlockHash(1234)),
        }];
        n.on_block_arrival(
            Some(NodeId(1)),
            &b,
            idx,
            &cfg(),
            &mut rng(),
            &mut GossipScratch::default(),
            &mut sends,
        );
        assert_eq!(sends[0].to, NodeId(7), "pre-existing entry untouched");
        assert_eq!(sends.len(), 6);
    }

    #[test]
    fn duplicate_arrivals_do_nothing() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 25);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let (_, first) = arrive(&mut n, Some(NodeId(1)), &b, idx, &cfg(), &mut rng());
        assert!(matches!(first, ImportAction::Schedule(_)));
        let (sends, second) = arrive(&mut n, Some(NodeId(2)), &b, idx, &cfg(), &mut rng());
        assert!(sends.is_empty());
        assert_eq!(second, ImportAction::None);
    }

    #[test]
    fn import_complete_announces_to_unknowing_peers() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 10);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let c = cfg();
        let (pushes, _) = arrive(&mut n, Some(NodeId(1)), &b, idx, &c, &mut rng());
        let pushed_to: HashSet<NodeId> = pushes.iter().map(|s| s.to).collect();
        let (sends, new_head) = import(&mut n, &b, idx, &TxRegistry::new(), &c);
        assert!(new_head);
        // Announcements go to everyone who neither sent nor received it.
        let announced: HashSet<NodeId> = sends.iter().map(|s| s.to).collect();
        assert!(announced.is_disjoint(&pushed_to));
        assert!(!announced.contains(&NodeId(1)));
        assert_eq!(announced.len(), 9 - pushed_to.len());
        assert!(sends.iter().all(|s| s.msg == Message::Announce(b.hash())));
    }

    #[test]
    fn announce_triggers_single_fetch() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 5);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let sends = announce(&mut n, NodeId(1), b.hash(), idx);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].to, NodeId(1));
        assert!(matches!(sends[0].msg, Message::GetBlock(h) if h == b.hash()));
        assert!(n.is_fetching(idx));
        // Second announcer recorded, no second request.
        let sends = announce(&mut n, NodeId(2), b.hash(), idx);
        assert!(sends.is_empty());
        // Timeout falls over to the second announcer.
        let retry = timeout(&mut n, b.hash(), idx);
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].to, NodeId(2));
        // Exhausted announcers: gives up.
        let give_up = timeout(&mut n, b.hash(), idx);
        assert!(give_up.is_empty());
        assert!(!n.is_fetching(idx));
    }

    #[test]
    fn fetch_resolves_on_arrival() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 5);
        let b = block1();
        let idx = intern(&mut reg, &b);
        announce(&mut n, NodeId(1), b.hash(), idx);
        let (_, action) = arrive(&mut n, Some(NodeId(1)), &b, idx, &cfg(), &mut rng());
        assert!(matches!(action, ImportAction::Schedule(_)));
        assert!(!n.is_fetching(idx));
        assert!(timeout(&mut n, b.hash(), idx).is_empty());
    }

    #[test]
    fn get_block_served_only_when_held() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 5);
        let b = block1();
        let idx = intern(&mut reg, &b);
        assert!(get_block(&mut n, NodeId(1), b.hash(), idx).is_empty());
        arrive(&mut n, Some(NodeId(2)), &b, idx, &cfg(), &mut rng());
        assert!(n.has_block_body(idx));
        let resp = get_block(&mut n, NodeId(1), b.hash(), idx);
        assert_eq!(resp.len(), 1);
        assert!(matches!(resp[0].msg, Message::BlockBody(h) if h == b.hash()));
    }

    #[test]
    fn body_set_keeps_the_last_four_header_windows_of_arrivals() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 3);
        let c = cfg();
        let bound = 4 * c.header_window;
        let mut arrive_salted = |n: &mut Node, salt: u64| {
            let b = BlockBuilder::new(genesis(), 1, PoolId(0))
                .salt(salt)
                .build();
            let idx = intern(&mut reg, &b);
            arrive(n, Some(NodeId(1)), &b, idx, &c, &mut rng());
            (b.hash(), idx)
        };
        let (first, first_idx) = arrive_salted(&mut n, 0);
        for salt in 1..bound {
            arrive_salted(&mut n, salt);
        }
        assert!(n.has_block_body(first_idx), "{bound} arrivals all held");
        arrive_salted(&mut n, bound);
        assert!(!n.has_block_body(first_idx), "the oldest body is evicted");
        assert!(get_block(&mut n, NodeId(2), first, first_idx).is_empty());
    }

    #[test]
    fn orphan_import_requests_parent() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 5);
        let c = cfg();
        // Block at height 2 whose parent (height 1) we never saw.
        let b1 = block1();
        let b2 = BlockBuilder::new(b1.hash(), 2, PoolId(0)).build();
        let i2 = intern(&mut reg, &b2);
        let (_, action) = arrive(&mut n, Some(NodeId(3)), &b2, i2, &c, &mut rng());
        assert!(matches!(action, ImportAction::Schedule(_)));
        let (sends, new_head) = import(&mut n, &b2, i2, &TxRegistry::new(), &c);
        assert!(!new_head);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].to, NodeId(3));
        assert!(matches!(sends[0].msg, Message::GetBlock(h) if h == b1.hash()));
    }

    #[test]
    fn transactions_relay_to_all_unknowing_peers() {
        let mut n = node(99, 6);
        let c = cfg();
        let txs = tx_registry(1);
        let sends = transactions(&mut n, Some(NodeId(1)), TxId(1), &txs, &c, &mut rng());
        // 5 peers other than the sender.
        assert_eq!(sends.len(), 5);
        assert!(sends.iter().all(|s| s.msg == Message::Tx(TxId(1))));
        // Replay: nothing fresh, nothing sent.
        assert!(transactions(&mut n, Some(NodeId(2)), TxId(1), &txs, &c, &mut rng()).is_empty());
        // An id the registry never issued is skipped.
        assert!(transactions(&mut n, Some(NodeId(2)), TxId(7), &txs, &c, &mut rng()).is_empty());
    }

    #[test]
    fn sqrt_tx_relay_caps_fanout() {
        let mut n = node(99, 25);
        let mut c = cfg();
        c.tx_relay = TxRelayPolicy::Sqrt;
        let sends = transactions(&mut n, None, TxId(2), &tx_registry(2), &c, &mut rng());
        assert_eq!(sends.len(), 5); // sqrt(25) = 5
    }

    #[test]
    fn mempool_admits_gossiped_txs_and_prunes_included_ones() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 3);
        n.enable_mempool();
        let c = cfg();
        let registry = tx_registry(1);
        transactions(&mut n, None, TxId(1), &registry, &c, &mut rng());
        assert_eq!(n.mempool().expect("enabled").len(), 1);
        let mut packed = Vec::new();
        n.mempool()
            .expect("enabled")
            .pack_into(8_000_000, &mut packed);
        assert_eq!(packed, vec![TxId(1)]);

        // A block including tx0 prunes it from the mempool.
        let b = BlockBuilder::new(genesis(), 1, PoolId(0))
            .txs(vec![TxId(1)])
            .build();
        let idx = intern(&mut reg, &b);
        arrive(&mut n, None, &b, idx, &c, &mut rng());
        let (_, new_head) = import(&mut n, &b, idx, &registry, &c);
        assert!(new_head);
        assert_eq!(n.mempool().expect("enabled").len(), 0);
    }

    #[test]
    fn locally_mined_block_pushes_to_all_peers() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 9);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let (sends, action) = arrive(&mut n, None, &b, idx, &cfg(), &mut rng());
        assert!(matches!(action, ImportAction::Schedule(_)));
        // Gateway flood: every peer, not just sqrt.
        assert_eq!(sends.len(), 9);
    }

    #[test]
    fn side_blocks_outside_the_relay_window_are_not_relayed() {
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 9);
        let c = cfg();
        // Advance the node's head far beyond 1 by importing a chain.
        let mut parent = genesis();
        for i in 1..=10u64 {
            let b = BlockBuilder::new(parent, i, PoolId(0)).salt(i).build();
            parent = b.hash();
            let idx = intern(&mut reg, &b);
            arrive(&mut n, Some(NodeId(1)), &b, idx, &c, &mut rng());
            import(&mut n, &b, idx, &TxRegistry::new(), &c);
        }
        assert_eq!(n.chain().head_number(), 10);
        // A late fork block at height 1 does not improve the head and is
        // outside the relay window: no pushes.
        let stale = BlockBuilder::new(genesis(), 1, PoolId(5)).salt(99).build();
        let si = intern(&mut reg, &stale);
        let (sends, action) = arrive(&mut n, Some(NodeId(2)), &stale, si, &c, &mut rng());
        assert!(sends.is_empty());
        // It is still imported (valid block), just not relayed.
        assert!(matches!(action, ImportAction::Schedule(_)));
    }

    #[test]
    fn messages_from_non_peers_are_tolerated() {
        // Provenance marking from an unconnected node (e.g. a link torn
        // down mid-flight in future scenarios) must be a silent no-op,
        // exactly like the old NodeId-keyed map's `get_mut` miss.
        let mut reg = BlockRegistry::new();
        let mut n = node(99, 3);
        let b = block1();
        let idx = intern(&mut reg, &b);
        let (sends, action) = arrive(&mut n, Some(NodeId(1000)), &b, idx, &cfg(), &mut rng());
        assert!(matches!(action, ImportAction::Schedule(_)));
        // Relays still go to real peers (the stranger is not among them).
        assert!(sends.iter().all(|s| s.to != NodeId(1000)));
        assert!(!sends.is_empty());
    }

    #[test]
    fn reset_behaves_like_a_fresh_node() {
        let c = cfg();
        let mut rng_a = rng();
        // Drive a node through a full little lifecycle...
        let mut reg = BlockRegistry::new();
        let mut used = node(99, 8);
        used.enable_mempool();
        let b = block1();
        let idx = intern(&mut reg, &b);
        arrive(&mut used, Some(NodeId(1)), &b, idx, &c, &mut rng_a);
        import(&mut used, &b, idx, &TxRegistry::new(), &c);
        let txs = tx_registry(9);
        transactions(&mut used, Some(NodeId(2)), TxId(1), &txs, &c, &mut rng_a);

        // ...then reset it and wire the same topology as a fresh twin.
        used.reset(NodeId(99), genesis(), &c, ConsensusKind::Heaviest.build());
        for p in 0..8 {
            used.try_add_link(NodeId(p), &c)
                .expect("well-formed test link");
        }
        used.enable_mempool();
        let mut fresh = node(99, 8);
        fresh.enable_mempool();

        assert_eq!(used.chain().head(), fresh.chain().head());
        assert_eq!(used.degree(), fresh.degree());
        assert_eq!(used.mempool().expect("enabled").len(), 0);
        // Identical RNG stream + identical state must produce identical
        // sends for a fresh campaign's first block and transaction.
        let mut reg2 = BlockRegistry::new();
        let b2 = BlockBuilder::new(genesis(), 1, PoolId(2)).salt(7).build();
        let i2 = intern(&mut reg2, &b2);
        let mut r1 = Xoshiro256::seed_from_u64(5);
        let mut r2 = Xoshiro256::seed_from_u64(5);
        let (s_used, a_used) = arrive(&mut used, Some(NodeId(1)), &b2, i2, &c, &mut r1);
        let (s_fresh, a_fresh) = arrive(&mut fresh, Some(NodeId(1)), &b2, i2, &c, &mut r2);
        assert_eq!(s_used, s_fresh);
        assert_eq!(a_used, a_fresh);
        assert_eq!(
            transactions(&mut used, Some(NodeId(3)), TxId(9), &txs, &c, &mut r1),
            transactions(&mut fresh, Some(NodeId(3)), TxId(9), &txs, &c, &mut r2),
        );
    }

    #[test]
    fn try_add_link_reports_structured_errors() {
        let c = cfg();
        let mut n = node(99, 3);
        assert_eq!(n.try_add_link(NodeId(99), &c), Err(LinkError::SelfLink));
        assert_eq!(n.try_add_link(NodeId(1), &c), Err(LinkError::Duplicate));
        assert_eq!(n.try_add_link(NodeId(50), &c), Ok(()));
        assert!(n.is_peer(NodeId(50)));
        assert_eq!(n.degree(), 4);
    }

    #[test]
    fn disconnect_removes_only_the_severed_link() {
        let c = cfg();
        let mut n = node(99, 5); // peers 0..=4
        assert!(n.is_peer(NodeId(2)));
        assert!(n.disconnect(NodeId(2)));
        assert!(!n.is_peer(NodeId(2)));
        assert!(!n.disconnect(NodeId(2)), "second disconnect is a no-op");
        assert_eq!(n.degree(), 4);
        for p in [0u32, 1, 3, 4] {
            assert!(n.is_peer(NodeId(p)), "peer {p} untouched");
        }
        // Re-dial reuses the vacated slab slot cleanly.
        assert_eq!(n.try_add_link(NodeId(2), &c), Ok(()));
        assert_eq!(n.degree(), 5);
    }

    #[test]
    fn disconnect_drops_per_link_gossip_state_without_disturbing_others() {
        let c = cfg();
        let mut rng_a = rng();
        let mut reg = BlockRegistry::new();

        // Drive a node with torn-and-redialed link 1 and a fresh twin
        // that never had link 1's history; after the re-dial both must
        // behave identically (per-link state fully forgotten).
        let mut churned = node(99, 8);
        let b = block1();
        let idx = intern(&mut reg, &b);
        arrive(&mut churned, Some(NodeId(1)), &b, idx, &c, &mut rng_a);
        import(&mut churned, &b, idx, &TxRegistry::new(), &c);
        let txs = tx_registry(2);
        transactions(&mut churned, Some(NodeId(1)), TxId(1), &txs, &c, &mut rng_a);
        assert!(churned.disconnect(NodeId(1)));
        assert_eq!(churned.try_add_link(NodeId(1), &c), Ok(()));

        // The re-dialed link no longer remembers what peer 1 knew: an
        // announce of the same block goes back out to peer 1 too.
        let mut sends = Vec::new();
        churned.on_announce(NodeId(3), b.hash(), idx, &mut sends);
        // (peer 3 announced; nothing for peer 1 here — the real probe is
        // the tx relay below, which consults the known-txs family.)
        let relays = transactions(&mut churned, None, TxId(2), &txs, &c, &mut rng_a);
        assert!(
            relays.iter().any(|s| s.to == NodeId(1)),
            "re-dialed link must have forgotten nothing-known state"
        );
    }
}

#[cfg(test)]
mod peer_index_proptests {
    use super::*;
    use ethmeter_chain::consensus::ConsensusKind;
    use proptest::prelude::*;

    const SELF_ID: NodeId = NodeId(5);
    /// Small ids collide in the probe table; the huge ones would size a
    /// `NodeId`-indexed table at gigabytes.
    const UNIVERSE: [NodeId; 12] = [
        NodeId(0),
        NodeId(1),
        NodeId(2),
        NodeId(3),
        NodeId(4),
        SELF_ID,
        NodeId(6),
        NodeId(7),
        NodeId(8),
        NodeId(1 << 20),
        NodeId(1 << 31),
        NodeId(u32::MAX - 1),
    ];

    fn fresh(cfg: &NetConfig) -> Node {
        Node::new(
            SELF_ID,
            BlockHash::mix(0),
            cfg,
            ConsensusKind::Heaviest.build(),
        )
    }

    proptest! {
        /// Under random link adds, disconnects, re-adds and resets the
        /// peer index answers exactly like a scan of the peer slab, the
        /// slab itself follows `Vec::swap_remove`, and malformed adds are
        /// reported without changing anything.
        #[test]
        fn peer_index_matches_a_scan_of_the_peer_slab(
            ops in proptest::collection::vec((0usize..UNIVERSE.len(), 0u8..16), 1..160),
        ) {
            let cfg = NetConfig::default();
            let mut node = fresh(&cfg);
            let mut model: Vec<NodeId> = Vec::new();
            for &(which, kind) in &ops {
                let peer = UNIVERSE[which];
                let at = model.iter().position(|&p| p == peer);
                match kind {
                    0 => {
                        node.reset(
                            SELF_ID,
                            BlockHash::mix(0),
                            &cfg,
                            ConsensusKind::Heaviest.build(),
                        );
                        model.clear();
                    }
                    1..=5 => {
                        prop_assert_eq!(node.disconnect(peer), at.is_some());
                        if let Some(at) = at {
                            model.swap_remove(at);
                        }
                    }
                    _ => {
                        let expected = if peer == SELF_ID {
                            Err(LinkError::SelfLink)
                        } else if at.is_some() {
                            Err(LinkError::Duplicate)
                        } else {
                            model.push(peer);
                            Ok(())
                        };
                        prop_assert_eq!(node.try_add_link(peer, &cfg), expected);
                    }
                }
                prop_assert_eq!(node.peers(), &model[..]);
                prop_assert_eq!(node.known_txs.peers(), model.len() + 1);
                for &probe in &UNIVERSE {
                    let scanned = model.iter().position(|&p| p == probe);
                    prop_assert_eq!(node.pos_of(probe), scanned, "pos_of({})", probe);
                    prop_assert_eq!(node.is_peer(probe), scanned.is_some());
                }
            }
        }
    }
}
