//! Node-to-shard partitioning and the cross-shard event vocabulary of
//! the deterministic parallel engine.
//!
//! The parallel engine replicates the world's *construction* on every
//! shard and partitions its *execution*: each shard processes only the
//! events addressed to entities it owns, and anything destined for a
//! foreign entity is buffered as a [`RemoteEvent`] and exchanged at the
//! next window barrier. Two invariants make that exchange sound:
//!
//! - **Geography-aware, region-atomic ownership.** [`ShardMap::by_region`]
//!   never splits a region across shards, so intra-region gossip — the
//!   bulk of traffic under latency-aware peer selection — stays
//!   shard-local. Regions are packed onto shards by longest-processing-
//!   time-first over node counts; with more shards than populated
//!   regions, the surplus shards legitimately own nothing.
//! - **Hash-addressed payloads.** Dense registry slots (`BlockIdx`) are
//!   shard-local and never cross a shard boundary: remote block
//!   injections travel by [`BlockHash`] and are re-resolved against the
//!   receiver's registry after replica ingestion. Wire [`Message`]s are
//!   already hash/`TxId`-addressed and cross unchanged.

use ethmeter_types::{BlockHash, NodeId, Region, SimTime};

use crate::message::Message;

/// An immutable node → shard ownership table.
///
/// Built once per campaign (every shard derives the identical map from
/// the replicated scenario build) and shared read-only by all workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    owner: Vec<u32>,
    shards: usize,
}

impl ShardMap {
    /// Partitions nodes across `shards` workers without ever splitting a
    /// region: regions are sorted by population (largest first, region
    /// index breaking ties) and each is assigned to the least-loaded
    /// shard so far (lowest shard id breaking ties). Deterministic in
    /// its inputs; shards may end up empty when `shards` exceeds the
    /// number of populated regions.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn by_region(regions: &[Region], shards: usize) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        let mut counts = [0usize; Region::COUNT];
        for r in regions {
            counts[r.index()] += 1;
        }
        // LPT over populated regions: largest region first, each onto
        // the currently lightest shard.
        let mut order: Vec<usize> = (0..Region::COUNT).filter(|&i| counts[i] > 0).collect();
        order.sort_by_key(|&i| (usize::MAX - counts[i], i));
        let mut load = vec![0usize; shards];
        let mut region_shard = [0u32; Region::COUNT];
        for i in order {
            let lightest = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect("shards > 0");
            region_shard[i] = lightest as u32;
            load[lightest] += counts[i];
        }
        ShardMap {
            owner: regions.iter().map(|r| region_shard[r.index()]).collect(),
            shards,
        }
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not covered by the map.
    #[inline]
    pub fn owner(&self, node: NodeId) -> usize {
        self.owner[node.index()] as usize
    }

    /// True iff `shard` owns `node`.
    #[inline]
    pub fn owns(&self, shard: usize, node: NodeId) -> bool {
        self.owner[node.index()] as usize == shard
    }

    /// Number of shards the map partitions into (including empty ones).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes covered by the map.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// True for a map over zero nodes.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Nodes owned by `shard`.
    #[cfg(test)]
    pub fn population(&self, shard: usize) -> usize {
        self.owner.iter().filter(|&&o| o as usize == shard).count()
    }
}

/// The payload of one cross-shard event, addressed entirely by hashes
/// and node ids — never by shard-local registry slots.
#[derive(Debug, Clone)]
pub enum RemoteEventKind {
    /// A gossip message crossing the shard boundary.
    Deliver {
        /// Sending node (owned by the emitting shard).
        from: NodeId,
        /// Receiving node (owned by the ingesting shard).
        to: NodeId,
        /// The wire message, hash/`TxId`-addressed and thus portable.
        msg: Message,
    },
    /// A pool's sealed block reaching one of its non-primary gateways
    /// that lives on another shard. The block travels by hash; the
    /// receiver resolves it against its registry after ingesting the
    /// window's replica blocks.
    Inject {
        /// The gateway node (owned by the ingesting shard).
        node: NodeId,
        /// The sealed block's hash.
        block: BlockHash,
    },
}

/// One event emitted for a foreign shard, buffered until the next
/// window barrier.
///
/// `(at, origin, seq)` gives barrier ingestion a total, deterministic
/// order that is independent of worker scheduling: `seq` is the
/// emitting shard's monotone emission counter, so events from one shard
/// ingest in emission order and same-instant events from different
/// shards break ties by origin node.
#[derive(Debug, Clone)]
pub struct RemoteEvent {
    /// Absolute delivery instant (at or after the next window start, by
    /// the conservative-lookahead contract).
    pub at: SimTime,
    /// The node whose handler emitted the event (sort tie-break).
    pub origin: NodeId,
    /// Emission counter within the emitting shard's window.
    pub seq: u64,
    /// What happens at `at`.
    pub kind: RemoteEventKind,
}

impl RemoteEventKind {
    /// The node this event is addressed to; only that node's owner shard
    /// may schedule it.
    pub fn dest(&self) -> NodeId {
        match self {
            RemoteEventKind::Deliver { to, .. } => *to,
            RemoteEventKind::Inject { node, .. } => *node,
        }
    }
}

impl RemoteEvent {
    /// The deterministic barrier ingestion key.
    pub fn sort_key(&self) -> (u64, u32, u64) {
        (self.at.as_nanos(), self.origin.raw(), self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(n: usize) -> Vec<Region> {
        // Deterministic mixed population across all regions, heavier in
        // the low-index regions (mirrors the default weight skew).
        (0..n)
            .map(|i| Region::ALL[(i * i + i / 3) % Region::COUNT])
            .collect()
    }

    #[test]
    fn regions_are_atomic() {
        let regions = spread(500);
        let map = ShardMap::by_region(&regions, 4);
        // Every node of one region lands on the same shard.
        let mut seen = [None; Region::COUNT];
        for (i, r) in regions.iter().enumerate() {
            let owner = map.owner(NodeId(i as u32));
            match seen[r.index()] {
                None => seen[r.index()] = Some(owner),
                Some(prev) => assert_eq!(prev, owner, "region {r} split across shards"),
            }
        }
    }

    #[test]
    fn lpt_balances_node_counts() {
        let regions = spread(800);
        let map = ShardMap::by_region(&regions, 4);
        let pops: Vec<usize> = (0..4).map(|s| map.population(s)).collect();
        assert_eq!(pops.iter().sum::<usize>(), 800);
        // Region-atomic LPT cannot be perfect, but no shard should hold
        // more than half the network when 8 regions feed 4 shards.
        assert!(pops.iter().all(|&p| p > 0 && p <= 400), "pops {pops:?}");
    }

    #[test]
    fn more_shards_than_regions_leaves_empties() {
        let regions = vec![Region::ALL[0]; 10];
        let map = ShardMap::by_region(&regions, 4);
        assert_eq!(map.population(0), 10);
        assert_eq!(map.population(1) + map.population(2) + map.population(3), 0);
        assert_eq!(map.shards(), 4);
    }

    #[test]
    fn map_is_deterministic_and_one_shard_owns_everything() {
        let regions = spread(300);
        assert_eq!(
            ShardMap::by_region(&regions, 3),
            ShardMap::by_region(&regions, 3)
        );
        let single = ShardMap::by_region(&regions[..7], 1);
        assert_eq!(single.len(), 7);
        assert!(!single.is_empty());
        assert!((0..7).all(|i| single.owns(0, NodeId(i))));
    }

    #[test]
    fn remote_event_sort_key_orders_time_origin_seq() {
        let ev = |at: u64, origin: u32, seq: u64| RemoteEvent {
            at: SimTime::from_nanos(at),
            origin: NodeId(origin),
            seq,
            kind: RemoteEventKind::Inject {
                node: NodeId(origin),
                block: BlockHash(1),
            },
        };
        let mut evs = [ev(5, 1, 0), ev(3, 9, 2), ev(3, 2, 7), ev(3, 2, 4)];
        evs.sort_by_key(RemoteEvent::sort_key);
        let keys: Vec<_> = evs.iter().map(|e| e.sort_key()).collect();
        assert_eq!(
            keys,
            vec![(3, 2, 4), (3, 2, 7), (3, 9, 2), (5, 1, 0)],
            "time first, then origin node, then emission order"
        );
    }
}
