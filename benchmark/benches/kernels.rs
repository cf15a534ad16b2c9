//! Isolated kernels: one product structure each, driven at the
//! cardinalities the traced workload just ran at, so that cost per
//! operation times the campaign's exact counts estimates a layer's share
//! of the run. Each kernel does a few million operations at most.

use std::hint::black_box;
use std::time::Instant;

use ethmeter_core::chain::tx::Transaction;
use ethmeter_core::geo::LatencyModel;
use ethmeter_core::net::headerview::HeaderView;
use ethmeter_core::net::known::PeerKnownSet;
use ethmeter_core::net::topology::{DegreePlan, Topology};
use ethmeter_core::sim::engine::{Scheduler, World};
use ethmeter_core::sim::event::EventQueue;
use ethmeter_core::sim::{Engine, Xoshiro256};
use ethmeter_core::stats::sketch::QuantileSketch;
use ethmeter_core::stats::Cdf;
use ethmeter_core::txpool::Mempool;
use ethmeter_core::types::{
    AccountId, BlockHash, ByteSize, NodeId, PoolId, Region, SimDuration, SimTime, TxId,
};

use crate::inputs::XorShift;

/// What the traced campaign looked like to its data structures.
#[derive(Debug, Clone, Copy)]
pub struct Cardinalities {
    pub nodes: usize,
    pub peers_per_node: usize,
    /// Mean depth of the event queue.
    pub pending: usize,
    /// Distinct gossip keys (transactions) the run saw.
    pub keys: usize,
    pub known_cap: usize,
    pub header_window: u64,
    pub txs_per_block: usize,
    pub gas_limit: u64,
}

const OPS: usize = 2_000_000;

fn ns_per(ops: usize, start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The classic hold model: pop the earliest event, push it back a
/// random increment later, queue depth constant.
pub fn queue_push_pop_ns(pending: usize) -> f64 {
    let mut rng = XorShift::new(1);
    let mut queue = EventQueue::new();
    for i in 0..pending.max(1) {
        queue.push(SimTime::from_nanos(rng.below(200_000_000)), i as u32);
    }
    let start = Instant::now();
    for _ in 0..OPS {
        let (t, e) = queue.pop().expect("depth is constant");
        queue.push(t + SimDuration::from_nanos(rng.below(200_000_000)), e);
    }
    black_box(queue.len());
    ns_per(OPS, start)
}

/// A world that does nothing but reschedule: what the engine loop and
/// the queue cost per event with no handler behind them.
struct Hold(XorShift);

impl World for Hold {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
        sched.after(SimDuration::from_nanos(self.0.below(200_000_000)), event);
    }
}

pub fn null_world_ns_per_event(pending: usize) -> f64 {
    let mut rng = XorShift::new(2);
    let mut engine = Engine::new(Hold(XorShift::new(3)));
    for i in 0..pending.max(1) {
        engine.schedule(SimTime::from_nanos(rng.below(200_000_000)), i as u32);
    }
    let start = Instant::now();
    engine.run_with_limits(SimTime::MAX, OPS as u64);
    black_box(engine.processed());
    ns_per(OPS, start)
}

/// One known-set family per node, every fresh key flooded to every peer
/// of every node in turn, as gossip does. Returns `(insert, contains)`.
pub fn known_set_ns(c: &Cardinalities) -> (f64, f64) {
    let peers = c.peers_per_node.max(1);
    let nodes = c.nodes.max(1);
    let keys = (OPS / (nodes * peers)).clamp(4, c.keys.max(4));
    let mut sets: Vec<PeerKnownSet> = (0..nodes)
        .map(|_| {
            let mut set = PeerKnownSet::new();
            for _ in 0..peers {
                set.add_peer(c.known_cap);
            }
            set
        })
        .collect();
    let start = Instant::now();
    let mut fresh = 0usize;
    for key in 0..keys as u32 {
        for set in &mut sets {
            for pos in 0..peers {
                fresh += usize::from(set.insert(pos, key));
            }
        }
    }
    let insert = ns_per(keys * nodes * peers, start);
    assert_eq!(
        fresh,
        keys * nodes * peers,
        "every key was new to every peer"
    );
    let start = Instant::now();
    let mut hits = 0usize;
    // Half the probes hit (keys just inserted), half miss (keys to come).
    for key in (keys / 2) as u32..(keys + keys / 2) as u32 {
        for set in &sets {
            for pos in 0..peers {
                hits += usize::from(set.contains(pos, key));
            }
        }
    }
    black_box(hits);
    (insert, ns_per(keys * nodes * peers, start))
}

/// One header view per node, each new block offered to every node.
pub fn headerview_insert_ns(c: &Cardinalities) -> f64 {
    let nodes = c.nodes.max(1);
    let blocks = (OPS / nodes).clamp(8, 512) as u64;
    let genesis = BlockHash::mix(0);
    let mut views: Vec<HeaderView> = (0..nodes)
        .map(|_| HeaderView::new(genesis, c.header_window))
        .collect();
    let start = Instant::now();
    let mut parent = genesis;
    for number in 1..=blocks {
        let hash = BlockHash::mix(number);
        for view in &mut views {
            black_box(view.insert(hash, parent, number, PoolId((number % 7) as u16), 1, &[]));
        }
        parent = hash;
    }
    ns_per(blocks as usize * nodes, start)
}

pub fn latency_sample_ns() -> f64 {
    let model = LatencyModel::default();
    let mut rng = Xoshiro256::seed_from_u64(4);
    let start = Instant::now();
    let mut total = 0u64;
    for i in 0..OPS {
        let from = Region::ALL[i % Region::COUNT];
        let to = Region::ALL[(i / Region::COUNT) % Region::COUNT];
        total = total.wrapping_add(model.sample(&mut rng, from, to).as_nanos());
    }
    black_box(total);
    ns_per(OPS, start)
}

/// A miner's pool in steady state: a block's worth of transactions
/// arrives, a block is packed, the block commits. Returns `(add, pack)`.
pub fn txpool_ns(c: &Cardinalities) -> (f64, f64) {
    let per_block = c.txs_per_block.max(1);
    let cycles = (OPS / 8 / per_block).max(1);
    let mut pool = Mempool::new();
    let mut rng = XorShift::new(5);
    let mut seq = 0u64;
    let (mut add_ns, mut pack_ns) = (0u128, 0u128);
    let mut batch: Vec<Transaction> = Vec::with_capacity(per_block);
    let mut packed = Vec::new();
    for _ in 0..cycles {
        batch.clear();
        for _ in 0..per_block {
            batch.push(Transaction {
                id: TxId((seq + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                sender: AccountId((seq % 97) as u32),
                nonce: seq / 97,
                gas_price: 1 + rng.below(50),
                gas: 21_000 + rng.below(60_000),
                size: ByteSize::from_bytes(180),
                submitted_at: SimTime::ZERO,
                origin: NodeId(0),
            });
            seq += 1;
        }
        let start = Instant::now();
        for tx in &batch {
            black_box(pool.add(tx));
        }
        add_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        pool.pack_into(c.gas_limit, &mut packed);
        pack_ns += start.elapsed().as_nanos();
        black_box(packed.len());
        // Everything offered commits, so the pool holds one block's worth.
        pool.on_block(batch.iter());
    }
    (
        add_ns as f64 / (cycles * per_block) as f64,
        pack_ns as f64 / cycles as f64,
    )
}

/// Seconds to wire a random overlay of the campaign's size.
pub fn topology_build_s(c: &Cardinalities) -> f64 {
    let nodes = c.nodes.max(2);
    let target = c.peers_per_node.clamp(1, nodes - 1);
    let plan = DegreePlan {
        targets: vec![target; nodes],
        caps: vec![(target * 12 / 5).min(nodes - 1); nodes],
    };
    let mut rng = Xoshiro256::seed_from_u64(6);
    let start = Instant::now();
    black_box(Topology::random(&plan, &mut rng).edge_count());
    start.elapsed().as_secs_f64()
}

/// Returns `(Cdf build + one quantile, per value; sketch insert)`.
pub fn stats_ns() -> (f64, f64) {
    let mut rng = XorShift::new(7);
    let n = OPS / 4;
    let values: Vec<f64> = (0..n).map(|_| 50.0 + 400.0 * rng.unit()).collect();
    let start = Instant::now();
    black_box(Cdf::from_values(values.iter().copied()).quantile(0.5));
    let cdf = ns_per(n, start);
    let start = Instant::now();
    let mut sketch = QuantileSketch::new();
    for &v in &values {
        sketch.record(v);
    }
    black_box(sketch.count());
    (cdf, ns_per(n, start))
}
