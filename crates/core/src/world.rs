//! The discrete-event simulation world.
//!
//! [`SimWorld`] owns every entity of a campaign — the P2P nodes (ordinary
//! peers, pool gateways, instrumented observers), the global block and
//! transaction registries, the mining races, and the workload generator —
//! and interprets the [`Event`] alphabet for the [`ethmeter_sim::Engine`].
//!
//! Storage is dense end to end: blocks and transactions are interned into
//! contiguous slots at creation time ([`ethmeter_chain::BlockRegistry`] /
//! [`ethmeter_chain::TxRegistry`]), events carry those slots, nodes and
//! pools live in `Vec`s addressed by raw [`NodeId`]/[`PoolId`] indices,
//! and per-node gossip state is slab-indexed (see [`ethmeter_net::Node`]).
//! Real hashes appear exactly where the outside world looks: wire
//! messages and observer logs.
//!
//! The steady state is also allocation-free: node handlers append their
//! outgoing messages to one world-owned `Vec<Send>` recycled across every
//! event, the scheduler writes follow-up events straight into the
//! engine's queue slab, every wire [`Message`] is one id (so an
//! [`Event`] is three words), fan-out sampling and block packing run
//! through world-owned scratch buffers, and the ground-truth block tree
//! is materialized from the registry only at the campaign boundary — the
//! hot path never clones a block.
//!
//! Worlds are reusable: [`SimWorld::reset`] rewinds everything to what
//! `SimWorld::new` would build for a scenario while retaining every
//! allocation (registries, node tables, known-set chunk pools, observer
//! logs), which is what lets sweep workers run whole job streams without
//! rebuilding their heap footprint per seed.
//!
//! Timing model per message: fixed processing overhead + sender-uplink
//! serialization + sampled geographic link latency + receiver-downlink
//! serialization. Block imports additionally pay a validation delay that
//! grows with transaction count (why empty blocks win races), and pools
//! re-target their miners a sampled lag after their gateway switches heads
//! (the stale-mining window behind the fork rate).

use ethmeter_chain::block::{Block, BlockBuilder};
use ethmeter_chain::consensus::{Consensus, ConsensusKind};
use ethmeter_chain::tree::BlockTree;
use ethmeter_chain::tx::Transaction;
use ethmeter_chain::uncles::UnclePolicy;
use ethmeter_chain::{BlockRegistry, TxRegistry};
use ethmeter_dynamics::{DynamicsEvent, RegionMask};
use ethmeter_geo::{BandwidthClass, ClockSkew};
use ethmeter_measure::{BlockMsgKind, ObserverLog, SpillConfig, VantagePoint};
use ethmeter_mining::{
    next_block_delay, BlockPlan, PoolBehavior, PoolDirectory, SelfishOutcome, SelfishState,
};
use ethmeter_net::topology::DegreePlan;
use ethmeter_net::{
    GossipScratch, ImportAction, Message, Node, RemoteEvent, RemoteEventKind, Send, ShardMap,
    Topology,
};
use ethmeter_sim::dist::{Exp, LogNormal};
use ethmeter_sim::engine::Scheduler;
use ethmeter_sim::{World, Xoshiro256};
use ethmeter_types::{
    AccountId, BlockHash, BlockIdx, BlockNumber, ByteSize, FxHashMap, FxHashSet, NodeId, PoolId,
    Region, SimDuration, SimTime, TxId, TxIdx,
};
use std::sync::Arc;

use crate::scenario::Scenario;

/// The event alphabet of a campaign.
///
/// Block- and transaction-bearing events carry dense registry slots
/// ([`BlockIdx`]/[`TxIdx`]); wire [`Message`]s keep real hashes.
#[derive(Debug, Clone)]
pub enum Event {
    /// A message arrives at a node.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// A node finishes validating/importing a block.
    ImportDone {
        /// The importing node.
        node: NodeId,
        /// The block's registry slot.
        idx: BlockIdx,
    },
    /// A fetcher timeout fires.
    FetchTimeout {
        /// The fetching node.
        node: NodeId,
        /// The fetched block's registry slot.
        idx: BlockIdx,
    },
    /// A pool's miners solve a block at their current target.
    PoolSolve {
        /// The pool.
        pool: PoolId,
    },
    /// A pool re-reads its primary gateway's head (post-lag).
    PoolRetarget {
        /// The pool.
        pool: PoolId,
    },
    /// A freshly mined block reaches one of the pool's gateways.
    InjectBlock {
        /// The gateway node.
        node: NodeId,
        /// The block's registry slot.
        idx: BlockIdx,
    },
    /// A selfish pool publishes a (previously withheld) block — decided
    /// at fork-choice time by its behavior machine, never at mint time.
    PoolRelease {
        /// The releasing pool.
        pool: PoolId,
        /// The withheld block's registry slot.
        idx: BlockIdx,
    },
    /// The workload generator plans its next submission.
    NextSubmission,
    /// A planned transaction enters the network at its origin node.
    InjectTx {
        /// The transaction's registry slot.
        idx: TxIdx,
    },
    /// A scheduled [`DynamicsEvent`] from the scenario's
    /// [`ethmeter_dynamics::DynamicsScript`] fires. Carries the script
    /// entry index; the event itself is looked up in the world's copy of
    /// the script. Like [`Event::NextSubmission`], dynamics events are
    /// *replicated*: every shard of a parallel run executes every one of
    /// them (topology and degradation scalars are part of the replicated
    /// world), and the merge subtracts the duplicates from event totals.
    Dynamics {
        /// Index into the scenario's dynamics script.
        entry: u32,
    },
    /// The next spam transaction of an active tx-flood window is due.
    /// Replicated on every shard (the spam stream is part of the global
    /// workload, like [`Event::NextSubmission`]); only the shard owning
    /// the drawn origin node injects.
    FloodTick,
}

/// Counters accumulated during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Messages delivered.
    pub messages: u64,
    /// Bytes moved (wire sizes).
    pub bytes: u64,
    /// Blocks produced by miners (including duplicates/malfunctions).
    pub blocks_produced: u64,
    /// Duplicate (one-miner fork) blocks produced.
    pub duplicates_produced: u64,
    /// Transactions submitted.
    pub txs_submitted: u64,
    /// Block imports completed across all nodes.
    pub imports: u64,
    /// Blocks withheld on a private branch at mint time (selfish pools).
    pub blocks_withheld: u64,
    /// Blocks published through fork-choice-time release events (matches,
    /// overrides, tie releases, abandoned-branch uncle bait, race wins).
    pub blocks_released: u64,
}

impl RunStats {
    /// Field-wise accumulation, used to aggregate sweeps of campaigns.
    pub fn merge(&mut self, other: &RunStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.blocks_produced += other.blocks_produced;
        self.duplicates_produced += other.duplicates_produced;
        self.txs_submitted += other.txs_submitted;
        self.imports += other.imports;
        self.blocks_withheld += other.blocks_withheld;
        self.blocks_released += other.blocks_released;
    }
}

#[derive(Debug, Clone)]
struct DupState {
    parent: BlockHash,
    height: BlockNumber,
    original: BlockHash,
    same_txs: bool,
    txs: Vec<TxId>,
}

struct ObserverState {
    skew: ClockSkew,
}

/// Per-pool mining state, addressed by raw [`PoolId`] index.
struct PoolState {
    /// The pool's gateway nodes (primary first).
    gateways: Vec<NodeId>,
    /// `(parent, height)` the pool's miners currently work on.
    target: (BlockHash, BlockNumber),
    /// Per-pool hash salt counter. Block hashes mix in the miner id, so
    /// per-pool counters keep hashes campaign-unique while letting each
    /// pool's salt sequence be independent of every other pool's mining
    /// activity (which is what lets shards mint blocks concurrently).
    salt: u64,
    /// Live duplication episode, if any (honest pools only).
    dup: Option<DupState>,
    /// The selfish-mining machine, for pools running
    /// [`PoolBehavior::Selfish`]. `None` keeps honest pools on the
    /// pre-behavior code path bit for bit.
    selfish: Option<SelfishState<BlockIdx>>,
}

/// Mutable runtime-dynamics state: degradation scalars, which nodes are
/// down (with their parked links), which links a partition severed, and
/// the live flood window. Replicated identically on every shard — all of
/// it is driven by replicated [`Event::Dynamics`]/[`Event::FloodTick`]
/// events and the dedicated `rng_dynamics` stream.
#[derive(Debug, Clone)]
struct DynamicsState {
    /// Multiplier on every sampled link latency (1.0 = nominal).
    latency_scale: f64,
    /// Divisor-style multiplier on bandwidth: transfer times are scaled
    /// by `1 / bandwidth_scale` (1.0 = nominal, 0.5 = half throughput).
    bandwidth_scale: f64,
    /// Nodes currently down, each with the peer links parked at teardown
    /// (re-dialed on [`DynamicsEvent::NodeUp`]). Insertion-ordered.
    down: Vec<(NodeId, Vec<NodeId>)>,
    /// Links severed by [`DynamicsEvent::Partition`]/`LinkDown`, awaiting
    /// a heal. Stored `(a, b)` in severance order.
    severed: Vec<(NodeId, NodeId)>,
    /// Spam rate of the active flood window, if any (txs per sim-second).
    flood_rate: Option<f64>,
    /// Sequence number for spam-sender account ids (top of the u32 range,
    /// far above any workload account).
    spam_seq: u32,
    /// `Dynamics` + `FloodTick` events processed (replicated on every
    /// shard; the parallel merge subtracts the duplicates, exactly like
    /// `submissions`).
    fired: u64,
}

impl DynamicsState {
    fn reset(&mut self) {
        self.latency_scale = 1.0;
        self.bandwidth_scale = 1.0;
        self.down.clear();
        self.severed.clear();
        self.flood_rate = None;
        self.spam_seq = 0;
        self.fired = 0;
    }
}

impl Default for DynamicsState {
    fn default() -> Self {
        let mut s = DynamicsState {
            latency_scale: 0.0,
            bandwidth_scale: 0.0,
            down: Vec::new(),
            severed: Vec::new(),
            flood_rate: None,
            spam_seq: 0,
            fired: 0,
        };
        s.reset();
        s
    }
}

/// The campaign world (see module docs).
pub struct SimWorld {
    // Configuration (copied out of the scenario).
    net: ethmeter_net::NetConfig,
    latency: ethmeter_geo::LatencyModel,
    interblock: SimDuration,
    gas_limit: u64,
    miner_lag: Exp,
    import_jitter: LogNormal,
    /// Intra-pool distribution delay of a sealed block to each gateway,
    /// built once here instead of per broadcast.
    intra_gateway_delay: Exp,
    duration: SimDuration,

    // Entities (all Vec-indexed by raw NodeId).
    nodes: Vec<Node>,
    node_meta: Vec<(Region, BandwidthClass)>,
    gateway_pool: Vec<Option<PoolId>>,
    observer_slot: Vec<Option<usize>>,
    observers: Vec<ObserverState>,
    logs: Vec<ObserverLog>,
    vantages: Vec<VantagePoint>,

    // Registries. Blocks and txs are interned at creation; every hot
    // lookup is a dense-slot array index. The registry is also the single
    // owner of every block: ground truth is derived from it at the
    // campaign boundary instead of being cloned block-by-block during the
    // run.
    blocks: BlockRegistry,
    txs: TxRegistry,
    genesis: BlockHash,
    /// Consensus engine shared by every node's chain view and the
    /// ground-truth tree (from [`Scenario::consensus`]).
    consensus: Arc<dyn Consensus>,

    // Mining (Vec-indexed by raw PoolId).
    pools: PoolDirectory,
    pool_states: Vec<PoolState>,

    // Workload. Accounts are multi-homed: exchanges and wallet backends
    // submit through several geographically distinct nodes, which is what
    // lets burst transactions race each other onto different gossip paths
    // and arrive out of nonce order (§III-C2).
    generator: ethmeter_workload::TxGenerator,
    account_homes: Vec<[NodeId; 3]>,

    // Randomness. The workload stream is world-global (and replayed
    // verbatim by every shard of a parallel run); all other draws come
    // from per-entity lanes — one stream per node, per pool, and per
    // observer clock — so executing only an ownership subset of events
    // never perturbs any other entity's stream. Sequential execution
    // consumes the lanes in exactly the same per-lane order.
    lanes_node: Vec<Xoshiro256>,
    lanes_pool: Vec<Xoshiro256>,
    lanes_clock: Vec<Xoshiro256>,
    rng_workload: Xoshiro256,
    /// Stream for dynamics draws (flood inter-arrival gaps and origin
    /// picks). World-global and replayed verbatim on every shard, like
    /// the workload stream; forked *after* the lanes so static worlds
    /// (empty script, no draws) keep their historical streams bit for bit.
    rng_dynamics: Xoshiro256,

    /// The scenario's dynamics script, copied at reset. Empty for static
    /// worlds, in which case none of the dynamics machinery runs and the
    /// hot path is byte-identical to the pre-dynamics code.
    dyn_script: Vec<(SimTime, DynamicsEvent)>,
    /// Runtime dynamics state (see [`DynamicsState`]).
    dynamics: DynamicsState,

    // Recycled per-event buffers (cleared before use; never observable).
    /// Outgoing-message buffer shared by every handler invocation.
    send_scratch: Vec<Send>,
    /// Relay-candidate lists shared by every node's gossip handlers.
    gossip_scratch: GossipScratch,
    /// Mempool packing buffer.
    pack_buf: Vec<TxId>,
    /// Recent-ancestor transaction set for double-inclusion guarding.
    ancestor_scratch: FxHashSet<TxId>,

    /// Sharded-execution context. `None` (the default after every
    /// [`SimWorld::reset`]) is the sequential reference: the world owns
    /// every entity and schedules everything locally. `Some` makes the
    /// world one shard of a parallel run: events addressed to foreign
    /// entities divert to the outbox for the next window barrier.
    shard: Option<ShardCtx>,
    /// `NextSubmission` events processed (replicated on every shard;
    /// the parallel merge subtracts the duplicates from event totals).
    submissions: u64,
    /// Campaign ordinal on this world (increments per [`SimWorld::reset`]).
    /// Folded into spill-segment file names so a reused runner's past
    /// campaigns — whose extracted data may still reference its segment
    /// files — never collide with the next campaign's spill output.
    measure_epoch: u64,
    /// Run counters.
    pub stats: RunStats,
}

/// One shard's view of a partitioned campaign (see [`crate::par`]).
struct ShardCtx {
    /// The shared node → shard ownership table.
    map: Arc<ShardMap>,
    /// This shard's id.
    me: u32,
    /// Per-pool ownership: a pool belongs to the shard owning its
    /// primary gateway, which co-locates the only cross-entity mutable
    /// coupling (pool state ↔ primary-gateway chain view).
    owned_pools: Vec<bool>,
    /// Cross-shard events emitted this window, in emission order.
    outbox: Vec<RemoteEvent>,
    /// Monotone emission counter feeding [`RemoteEvent::seq`].
    emit_seq: u64,
    /// Registry slots below this watermark have already been replicated
    /// to the other shards (or arrived as replicas from them).
    block_watermark: usize,
    /// Registry slots of locally minted blocks, in creation order — the
    /// merge rebuilds the global creation order from these.
    local_created: Vec<usize>,
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimWorld {{ nodes: {}, pools: {}, blocks: {}, txs: {} }}",
            self.nodes.len(),
            self.pools.len(),
            self.blocks.len(),
            self.txs.len()
        )
    }
}

impl SimWorld {
    /// Builds the world for a scenario (topology, node placement, gateway
    /// wiring, observers) without scheduling anything.
    pub fn new(scenario: &Scenario) -> Self {
        let genesis = BlockTree::shared_genesis_hash();
        let mut world = SimWorld {
            net: scenario.net.clone(),
            latency: scenario.latency.clone(),
            interblock: scenario.interblock,
            gas_limit: scenario.gas_limit,
            miner_lag: Exp::with_mean(1.0),
            import_jitter: LogNormal::with_median(1.0, 0.1),
            intra_gateway_delay: Exp::with_mean(0.015),
            duration: scenario.duration,
            nodes: Vec::new(),
            node_meta: Vec::new(),
            gateway_pool: Vec::new(),
            observer_slot: Vec::new(),
            observers: Vec::new(),
            logs: Vec::new(),
            vantages: Vec::new(),
            blocks: BlockRegistry::new(),
            txs: TxRegistry::new(),
            genesis,
            consensus: ConsensusKind::Heaviest.build(),
            pools: scenario.pools.clone(),
            pool_states: Vec::new(),
            generator: ethmeter_workload::TxGenerator::new(scenario.workload.clone()),
            account_homes: Vec::new(),
            lanes_node: Vec::new(),
            lanes_pool: Vec::new(),
            lanes_clock: Vec::new(),
            rng_workload: Xoshiro256::seed_from_u64(0),
            rng_dynamics: Xoshiro256::seed_from_u64(0),
            dyn_script: Vec::new(),
            dynamics: DynamicsState::default(),
            send_scratch: Vec::new(),
            gossip_scratch: GossipScratch::default(),
            pack_buf: Vec::new(),
            ancestor_scratch: FxHashSet::default(),
            shard: None,
            submissions: 0,
            measure_epoch: 0,
            stats: RunStats::default(),
        };
        world.reset(scenario);
        world
    }

    /// Rewinds the world to exactly what `SimWorld::new(scenario)` builds
    /// — same topology, same placement, same RNG streams, same observers —
    /// while reusing every allocation already held: the registries, the
    /// node slabs and their known-set probe tables, the observer-log maps,
    /// and the scratch buffers. `new` itself is implemented through this
    /// method, so the fresh and reused paths cannot diverge.
    ///
    /// A world whose campaign was extracted with [`SimWorld::take_campaign`]
    /// must be reset before its next run.
    pub fn reset(&mut self, scenario: &Scenario) {
        let epoch = self.measure_epoch;
        self.measure_epoch += 1;
        let mut root = Xoshiro256::seed_from_u64(scenario.seed);
        let mut rng_topo = root.fork("topology");
        let mut rng_place = root.fork("placement");
        self.rng_workload = root.fork("workload");
        let mut rng_clock = root.fork("clock");
        let mut lane_src = root.fork("lanes");
        // Forked last: static worlds never draw from it, so the streams
        // above (and thus every pre-dynamics golden) are untouched.
        self.rng_dynamics = root.fork("dynamics");

        self.net = scenario.net.clone();
        self.latency = scenario.latency.clone();
        self.interblock = scenario.interblock;
        self.gas_limit = scenario.gas_limit;
        self.miner_lag = Exp::with_mean(scenario.miner_lag_mean.as_secs_f64().max(1e-6));
        self.import_jitter = LogNormal::with_median(1.0, scenario.net.import_jitter_sigma);
        self.intra_gateway_delay = Exp::with_mean(0.015);
        self.duration = scenario.duration;
        self.pools = scenario.pools.clone();
        self.vantages = scenario.vantages.clone();

        let n_ordinary = scenario.ordinary_nodes;
        let total_gateways: usize = self.pools.iter().map(|p| p.gateway_count).sum();
        let n_obs = scenario.vantages.len();
        let n = n_ordinary + total_gateways + n_obs;

        // Regions and bandwidth per node.
        let region_weights: Vec<f64> = scenario.region_weights.iter().map(|&(_, w)| w).collect();
        let regions: Vec<Region> = scenario.region_weights.iter().map(|&(r, _)| r).collect();
        self.node_meta.clear();
        self.node_meta.reserve(n);
        for _ in 0..n_ordinary {
            let region = regions[rng_place.choose_weighted(&region_weights)];
            self.node_meta
                .push((region, BandwidthClass::sample_ordinary(&mut rng_place)));
        }
        let mut gateways: Vec<Vec<NodeId>> = vec![Vec::new(); self.pools.len()];
        self.gateway_pool.clear();
        self.gateway_pool.resize(n_ordinary, None);
        for pool in self.pools.iter() {
            for region in pool.plan_gateway_regions() {
                let id = NodeId(self.node_meta.len() as u32);
                self.node_meta.push((region, BandwidthClass::Backbone));
                self.gateway_pool.push(Some(pool.id));
                gateways[pool.id.index()].push(id);
            }
        }
        self.observer_slot.clear();
        self.observer_slot.resize(self.node_meta.len(), None);
        self.observers.clear();
        for (slot, v) in scenario.vantages.iter().enumerate() {
            self.node_meta.push((v.region, BandwidthClass::Backbone));
            self.gateway_pool.push(None);
            self.observer_slot.push(Some(slot));
            self.observers.push(ObserverState {
                skew: scenario.clock.skew(&mut rng_clock),
            });
            // Observer logs are reused across campaigns: clear in place
            // (releasing oversized buffers per the log's shrink policy).
            match self.logs.get_mut(slot) {
                Some(log) => log.clear(),
                None => self.logs.push(ObserverLog::new()),
            }
            // Budgeted campaigns spill to per-vantage columnar segments.
            // The epoch in the prefix keeps this campaign's files disjoint
            // from any still-referenced files of earlier campaigns on a
            // reused world.
            if let Some(dir) = &scenario.spill_dir {
                let budget =
                    (scenario.measure_budget_bytes / scenario.vantages.len().max(1)).max(1);
                self.logs[slot].set_spill(Some(SpillConfig {
                    dir: dir.clone(),
                    budget_bytes: budget,
                    prefix: format!("{}-e{epoch:04}", SpillConfig::sanitize(&v.name)),
                }));
            }
        }
        self.logs.truncate(n_obs);

        // Per-entity RNG lanes, derived positionally from one dedicated
        // stream: node lanes first, then pool lanes, then observer clock
        // lanes. Every shard of a parallel run replays this construction
        // identically, so lane `k` is the same stream everywhere.
        self.lanes_node.clear();
        self.lanes_node.extend(
            (0..self.node_meta.len()).map(|_| Xoshiro256::seed_from_u64(lane_src.next_u64())),
        );
        self.lanes_pool.clear();
        self.lanes_pool
            .extend((0..self.pools.len()).map(|_| Xoshiro256::seed_from_u64(lane_src.next_u64())));
        self.lanes_clock.clear();
        self.lanes_clock
            .extend((0..n_obs).map(|_| Xoshiro256::seed_from_u64(lane_src.next_u64())));

        // Topology: dial targets per role.
        let mut targets = Vec::with_capacity(n);
        let mut caps = Vec::with_capacity(n);
        for i in 0..self.node_meta.len() {
            if let Some(slot) = self.observer_slot[i] {
                // The paper's main observers ran "unlimited" peers, which
                // on mainnet meant holding a few percent of the ~15,000
                // nodes. We scale that adjacency *fraction*: observers
                // connect to about a fifth of the network (at least 32
                // peers), so first receptions still travel through public
                // intermediate hops rather than teleporting one hop from
                // every gateway. The redundancy observer keeps Geth's
                // default 25 peers.
                let v = &scenario.vantages[slot];
                let scaled_cap = (self.node_meta.len() / 3).max(32);
                let t = if v.default_peers {
                    v.peer_target
                } else {
                    v.peer_target.min(scaled_cap)
                };
                targets.push(t);
                caps.push(t + 16);
            } else if self.gateway_pool[i].is_some() {
                targets.push(scenario.gateway_degree);
                caps.push(scenario.gateway_degree * 2);
            } else {
                // Ordinary Geth: ~half the peer budget is outbound dials.
                targets.push(scenario.net.default_peer_target / 2 + 1);
                caps.push(scenario.net.max_peer_cap);
            }
        }
        // Pool gateways are hidden infrastructure: observers cannot peer
        // with them directly, so measurements see blocks only after at
        // least one public hop — as in the real network.
        let observer_slot = &self.observer_slot;
        let gateway_pool = &self.gateway_pool;
        let is_observer = |v: usize| observer_slot[v].is_some();
        let is_gateway = |v: usize| gateway_pool[v].is_some();
        let topo = Topology::random_with_constraint(
            &DegreePlan { targets, caps },
            &mut rng_topo,
            |a, b| !((is_observer(a) && is_gateway(b)) || (is_observer(b) && is_gateway(a))),
        );

        self.genesis = BlockTree::shared_genesis_hash();
        self.consensus = scenario.consensus.build();
        let consensus = Arc::clone(&self.consensus);
        for i in 0..self.node_meta.len() {
            let (region, bandwidth) = self.node_meta[i];
            match self.nodes.get_mut(i) {
                Some(node) => node.reset(
                    NodeId(i as u32),
                    region,
                    bandwidth,
                    self.genesis,
                    &scenario.net,
                    Arc::clone(&consensus),
                ),
                None => self.nodes.push(Node::new(
                    NodeId(i as u32),
                    region,
                    bandwidth,
                    self.genesis,
                    &scenario.net,
                    Arc::clone(&consensus),
                )),
            }
        }
        self.nodes.truncate(self.node_meta.len());
        for i in 0..self.node_meta.len() {
            for &j in topo.neighbors(NodeId(i as u32)) {
                if j.index() > i {
                    self.nodes[i]
                        .try_add_link(j, &scenario.net)
                        .expect("topology produces well-formed links");
                    self.nodes[j.index()]
                        .try_add_link(NodeId(i as u32), &scenario.net)
                        .expect("topology produces well-formed links");
                }
            }
        }
        for list in &gateways {
            for &g in list {
                self.nodes[g.index()].enable_mempool();
            }
        }

        // Accounts live on ordinary nodes, three submission points each.
        self.account_homes.clear();
        self.account_homes.reserve(scenario.workload.accounts);
        for _ in 0..scenario.workload.accounts {
            self.account_homes.push([
                NodeId(rng_place.index(n_ordinary.max(1)) as u32),
                NodeId(rng_place.index(n_ordinary.max(1)) as u32),
                NodeId(rng_place.index(n_ordinary.max(1)) as u32),
            ]);
        }

        self.pool_states.clear();
        let (genesis, pools) = (self.genesis, &self.pools);
        self.pool_states
            .extend(
                gateways
                    .into_iter()
                    .zip(pools.iter())
                    .map(|(gws, cfg)| PoolState {
                        gateways: gws,
                        target: (genesis, 1),
                        salt: 1,
                        dup: None,
                        selfish: match cfg.behavior {
                            PoolBehavior::Honest => None,
                            PoolBehavior::Selfish(scfg) => Some(SelfishState::new(scfg, genesis)),
                        },
                    }),
            );

        self.blocks.clear();
        self.txs.clear();
        self.generator = ethmeter_workload::TxGenerator::new(scenario.workload.clone());
        self.send_scratch.clear();
        self.pack_buf.clear();
        self.ancestor_scratch.clear();
        self.shard = None;
        self.submissions = 0;
        self.dyn_script.clear();
        self.dyn_script
            .extend_from_slice(scenario.dynamics.entries());
        self.dynamics.reset();
        self.stats = RunStats::default();
    }

    /// The events that bootstrap a run (one solve per pool, the workload
    /// pump). On a shard, only locally owned pools get their solve — but
    /// the workload pump runs everywhere (the transaction stream is
    /// replicated so every shard can resolve any `TxId`).
    pub fn initial_events(&mut self) -> Vec<(SimTime, Event)> {
        let mut evs = Vec::new();
        for pool in 0..self.pools.len() {
            let pid = PoolId(pool as u16);
            let share = self.pools.pool(pid).share;
            if share <= 0.0 || !self.owns_pool(pid) {
                continue;
            }
            let d = next_block_delay(share, self.interblock, &mut self.lanes_pool[pid.index()]);
            evs.push((SimTime::ZERO + d, Event::PoolSolve { pool: pid }));
        }
        evs.push((SimTime::ZERO, Event::NextSubmission));
        // The whole dynamics script is scheduled up front, on every shard
        // (replicated — topology mutations and degradation scalars apply
        // to the replicated world wholesale).
        for (i, &(at, _)) in self.dyn_script.iter().enumerate() {
            evs.push((at, Event::Dynamics { entry: i as u32 }));
        }
        evs
    }

    /// Materializes the ground-truth block tree from the registry by
    /// replaying every block in creation order — identical to the tree an
    /// incremental builder would have produced, because parents are always
    /// registered before children.
    pub(crate) fn build_truth_tree(
        engine: Arc<dyn Consensus>,
        blocks: impl IntoIterator<Item = Block>,
    ) -> BlockTree {
        let mut tree = BlockTree::with_consensus(engine);
        for block in blocks {
            // Duplicate hashes cannot occur (the registry deduplicates at
            // interning time); orphans cannot occur (creation order).
            tree.insert(block)
                .expect("truth replay cannot orphan or duplicate");
        }
        tree
    }

    /// Finishes the campaign without consuming the world: observer logs
    /// and the transaction table are cloned out (the world keeps its
    /// allocations for the next [`SimWorld::reset`]), while ground-truth
    /// blocks are *moved* out of the registry — the world must be reset
    /// before it runs again.
    pub fn take_campaign(&mut self, duration: SimDuration) -> ethmeter_measure::CampaignData {
        let tree = Self::build_truth_tree(Arc::clone(&self.consensus), self.blocks.take_blocks());
        ethmeter_measure::CampaignData {
            observers: self
                .vantages
                .iter()
                .cloned()
                .zip(self.logs.iter().cloned())
                .collect(),
            truth: ethmeter_measure::GroundTruth {
                tree,
                txs: self.txs.to_map(),
                pool_names: self.pools.iter().map(|p| p.name.clone()).collect(),
                pool_shares: self.pools.iter().map(|p| p.share).collect(),
                interblock: self.interblock,
                duration,
            },
        }
    }

    /// Finishes the campaign: hands out observer logs and ground truth.
    /// Unlike [`SimWorld::take_campaign`], this consumes the world and
    /// *moves* the logs and the transaction table into the dataset — the
    /// one-shot path pays no clone of the campaign's largest structures.
    pub fn into_campaign(mut self, duration: SimDuration) -> ethmeter_measure::CampaignData {
        let tree = Self::build_truth_tree(Arc::clone(&self.consensus), self.blocks.take_blocks());
        ethmeter_measure::CampaignData {
            observers: self.vantages.into_iter().zip(self.logs).collect(),
            truth: ethmeter_measure::GroundTruth {
                tree,
                txs: self.txs.into_map(),
                pool_names: self.pools.iter().map(|p| p.name.clone()).collect(),
                pool_shares: self.pools.iter().map(|p| p.share).collect(),
                interblock: self.interblock,
                duration,
            },
        }
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Ground-truth tree, materialized from the registry (for in-flight
    /// or post-run inspection; the campaign boundary builds the same tree
    /// without cloning).
    pub fn truth(&self) -> BlockTree {
        Self::build_truth_tree(
            Arc::clone(&self.consensus),
            self.blocks.blocks().iter().cloned(),
        )
    }

    fn primary_gateway(&self, pool: PoolId) -> NodeId {
        self.pool_states[pool.index()].gateways[0]
    }

    fn import_duration(&mut self, node: NodeId, idx: BlockIdx) -> SimDuration {
        let tx_count = self.blocks.by_idx(idx).txs().len() as u64;
        let base = self.net.import_base + self.net.import_per_tx * tx_count;
        let hw = self.node_meta[node.index()].1.import_factor();
        base.mul_f64(
            hw * self
                .import_jitter
                .sample(&mut self.lanes_node[node.index()]),
        )
    }

    /// Applies link timing and schedules delivery of a node's sends,
    /// draining the buffer so it can be recycled.
    fn dispatch_sends(
        &mut self,
        from: NodeId,
        sends: &mut Vec<Send>,
        sched: &mut Scheduler<Event>,
    ) {
        let (from_region, from_bw) = self.node_meta[from.index()];
        let dynamics_on = !self.dyn_script.is_empty();
        for send in sends.drain(..) {
            // Runtime topology mutations can sever a link between a
            // request and its reply: a handler may address a node that is
            // no longer a peer. Such sends die on the torn-down link.
            // Dropping happens *before* the lane draw — the link no
            // longer exists, so it costs no latency sample — and the node
            // peer tables are replicated, so every shard agrees. Static
            // worlds skip the check entirely (handlers only ever address
            // live peers there).
            if dynamics_on && !self.nodes[from.index()].is_peer(send.to) {
                continue;
            }
            let size = {
                let blocks = &self.blocks;
                let txs = &self.txs;
                send.msg.size(
                    |h| blocks.get(h).map(|b| b.size()).unwrap_or(ByteSize::ZERO),
                    |t| txs.get(t).map(|x| x.size).unwrap_or(ByteSize::ZERO),
                )
            };
            let (to_region, to_bw) = self.node_meta[send.to.index()];
            // The link draw always comes from the *sender's* lane — the
            // sender is local by construction, so the draw happens on
            // exactly one shard, in the sender's processing order,
            // whether or not the destination is foreign.
            let mut link =
                self.latency
                    .sample(&mut self.lanes_node[from.index()], from_region, to_region);
            let mut xfer = from_bw.transfer_time(size) + to_bw.transfer_time(size);
            if dynamics_on {
                // Degradation scalars apply to the sampled values only
                // when a script is attached; the explicit `!= 1.0` guards
                // are exact (the scalars are only ever set, never
                // computed). A sub-1.0 latency scale stays safe for the
                // sharded engine because its lookahead bound tightens by
                // the script's *minimum* scale (see `crate::par`).
                if self.dynamics.latency_scale != 1.0 {
                    link = link.mul_f64(self.dynamics.latency_scale);
                }
                if self.dynamics.bandwidth_scale != 1.0 {
                    xfer = xfer.mul_f64(1.0 / self.dynamics.bandwidth_scale);
                }
            }
            let delay = self.net.proc_overhead + link + xfer;
            self.stats.bytes += size.as_bytes();
            if let Some(ctx) = self.shard.as_mut() {
                if !ctx.map.owns(ctx.me as usize, send.to) {
                    ctx.outbox.push(RemoteEvent {
                        at: sched.now() + delay,
                        origin: from,
                        seq: ctx.emit_seq,
                        kind: RemoteEventKind::Deliver {
                            from,
                            to: send.to,
                            msg: send.msg,
                        },
                    });
                    ctx.emit_seq += 1;
                    continue;
                }
            }
            sched.after(
                delay,
                Event::Deliver {
                    from,
                    to: send.to,
                    msg: send.msg,
                },
            );
        }
    }

    /// Packs a block template for `pool` on top of `parent`, filtering
    /// out transactions already included in the last few ancestors (the
    /// guard against double inclusion while imports are in flight). Runs
    /// entirely on world-owned scratch; only the returned template (which
    /// the block will own) is allocated.
    fn pack_for(&mut self, pool: PoolId, parent: BlockHash) -> Vec<TxId> {
        let gw = self.primary_gateway(pool);
        let mut packed = std::mem::take(&mut self.pack_buf);
        match self.nodes[gw.index()].mempool() {
            Some(m) => m.pack_into(self.gas_limit, &mut packed),
            None => packed.clear(),
        }
        self.ancestor_scratch.clear();
        let mut cur = parent;
        for _ in 0..8 {
            let Some(b) = self.blocks.get(cur) else {
                break;
            };
            self.ancestor_scratch.extend(b.txs().iter().copied());
            cur = b.parent();
        }
        let included = &self.ancestor_scratch;
        let out = packed
            .iter()
            .copied()
            .filter(|t| !included.contains(t))
            .collect();
        self.pack_buf = packed;
        out
    }

    /// The uncle-reference policy in force for a minting pool: the
    /// engine's policy when it imposes one, otherwise the pool's
    /// configured strategy. The shipped engines impose
    /// [`UnclePolicy::Standard`] — defer to the pool — preserving the
    /// historical per-pool ablation behavior bit for bit.
    fn effective_uncle_policy(&self, pool_policy: UnclePolicy) -> UnclePolicy {
        match self.consensus.uncle_policy() {
            UnclePolicy::Standard => pool_policy,
            stricter => stricter,
        }
    }

    /// Registers a block, returning its dense slot. The registry is the
    /// single owner; ground truth is derived from it at the campaign
    /// boundary. On a shard, the slot is also recorded as locally minted
    /// so the window barrier can replicate it and the merge can rebuild
    /// global creation order.
    fn register_block(&mut self, block: Block) -> BlockIdx {
        self.stats.blocks_produced += 1;
        // Mint-time consensus validation. The parent is absent only for
        // children of the (unregistered) genesis, which have nothing to
        // validate against.
        if let Some(parent) = self.blocks.get(block.parent()) {
            self.consensus
                .validate(block.hash(), block.number(), parent.number())
                .expect("minted block must satisfy the consensus engine");
        }
        let idx = self.blocks.insert(block);
        if let Some(ctx) = self.shard.as_mut() {
            ctx.local_created.push(idx.index());
        }
        idx
    }

    /// Injects a block at every gateway of its pool. Pools run dedicated
    /// internal distribution (stratum relays), so each gateway — primary
    /// included — receives the sealed block after a small independent
    /// delay rather than via public gossip.
    fn broadcast_from_gateways(
        &mut self,
        pool: PoolId,
        idx: BlockIdx,
        sched: &mut Scheduler<Event>,
    ) {
        let n_gws = self.pool_states[pool.index()].gateways.len();
        let hash = self.blocks.by_idx(idx).hash();
        for g in 0..n_gws {
            let gw = self.pool_states[pool.index()].gateways[g];
            // Pool-lane draw: only the pool's owner shard runs this, so
            // the lane order matches sequential execution exactly.
            let delay = SimDuration::from_millis(5)
                + self
                    .intra_gateway_delay
                    .sample_duration(&mut self.lanes_pool[pool.index()]);
            if let Some(ctx) = self.shard.as_mut() {
                if !ctx.map.owns(ctx.me as usize, gw) {
                    // Foreign gateway: the injection crosses by hash and
                    // re-resolves after the receiver ingests replicas.
                    ctx.outbox.push(RemoteEvent {
                        at: sched.now() + delay,
                        origin: gw,
                        seq: ctx.emit_seq,
                        kind: RemoteEventKind::Inject {
                            node: gw,
                            block: hash,
                        },
                    });
                    ctx.emit_seq += 1;
                    continue;
                }
            }
            sched.after(delay, Event::InjectBlock { node: gw, idx });
        }
    }

    fn inject_block_at(&mut self, node: NodeId, idx: BlockIdx, sched: &mut Scheduler<Event>) {
        let mut sends = std::mem::take(&mut self.send_scratch);
        let action = {
            let block = self.blocks.by_idx(idx);
            self.nodes[node.index()].on_block_arrival(
                None,
                block,
                idx,
                &self.net,
                &mut self.lanes_node[node.index()],
                &mut self.gossip_scratch,
                &mut sends,
            )
        };
        if let ImportAction::Schedule(i) = action {
            let d = self.import_duration(node, i);
            sched.after(d, Event::ImportDone { node, idx: i });
        }
        self.dispatch_sends(node, &mut sends, sched);
        self.send_scratch = sends;
    }

    /// Builds and publishes one block for `pool` at its current target.
    fn solve_normal(&mut self, pool: PoolId, now: SimTime, sched: &mut Scheduler<Event>) {
        let cfg = self.pools.pool(pool).clone();
        let plan = BlockPlan::decide(&cfg, &mut self.lanes_pool[pool.index()]);
        let (parent, number) = self.pool_states[pool.index()].target;
        let gw = self.primary_gateway(pool);
        let policy = self.effective_uncle_policy(cfg.strategy.uncle_policy);
        let uncles = self.nodes[gw.index()].chain().select_uncles(parent, policy);
        let txs = if plan.empty {
            Vec::new()
        } else {
            self.pack_for(pool, parent)
        };
        let salt = self.next_salt(pool);
        let block = BlockBuilder::new(parent, number, pool)
            .mined_at(now)
            .txs(txs.clone())
            .uncles(uncles)
            .salt(salt)
            .build();
        let hash = block.hash();
        let idx = self.register_block(block);
        self.broadcast_from_gateways(pool, idx, sched);

        // Malfunction burst: extra same-height siblings released at once.
        for k in 0..plan.malfunction_extra {
            let sibling_txs =
                if self.lanes_pool[pool.index()].chance(cfg.strategy.duplicate_same_txset_prob) {
                    txs.clone()
                } else {
                    txs.iter().copied().skip(k + 1).collect()
                };
            let salt = self.next_salt(pool);
            let sib = BlockBuilder::new(parent, number, pool)
                .mined_at(now)
                .txs(sibling_txs)
                .salt(salt)
                .build();
            let sib_idx = self.register_block(sib);
            self.stats.duplicates_produced += 1;
            self.broadcast_from_gateways(pool, sib_idx, sched);
        }

        if plan.attempt_duplicate {
            // Keep mining at this height: the next solve yields a
            // duplicate (one-miner fork) instead of extending the chain.
            self.pool_states[pool.index()].dup = Some(DupState {
                parent,
                height: number,
                original: hash,
                same_txs: plan.duplicate_same_txs,
                txs,
            });
        } else {
            self.pool_states[pool.index()].target = (hash, number + 1);
        }
    }

    /// Ends a duplication episode: resume mining at the freshest target.
    fn resume_after_duplication(&mut self, pool: PoolId, ds: &DupState) {
        let gw = self.primary_gateway(pool);
        let head = self.nodes[gw.index()].chain().head();
        let head_number = self.nodes[gw.index()].chain().head_number();
        self.pool_states[pool.index()].target = if head_number >= ds.height {
            (head, head_number + 1)
        } else {
            (ds.original, ds.height + 1)
        };
    }

    /// Mines one block onto a selfish pool's private branch — or, mid
    /// tie-race, publishes it on the spot. The behavior machine owns the
    /// mining target; publication happens only through
    /// [`Event::PoolRelease`].
    fn solve_selfish(&mut self, pool: PoolId, now: SimTime, sched: &mut Scheduler<Event>) {
        let mut state = self.pool_states[pool.index()]
            .selfish
            .take()
            .expect("solve_selfish is only dispatched to selfish pools");
        let (parent, number) = state.target();
        let gw = self.primary_gateway(pool);
        // Only the first private block sits on a parent the gateway's
        // public view knows; it references orphaned honest blocks as
        // uncles (the Niu–Feng revenue channel). Deeper private parents
        // are invisible to the view, so deeper blocks reference none.
        let uncles = if self.nodes[gw.index()].chain().contains(parent) {
            let policy = self.effective_uncle_policy(self.pools.pool(pool).strategy.uncle_policy);
            self.nodes[gw.index()].chain().select_uncles(parent, policy)
        } else {
            Vec::new()
        };
        let txs = self.pack_for(pool, parent);
        let salt = self.next_salt(pool);
        let block = BlockBuilder::new(parent, number, pool)
            .mined_at(now)
            .txs(txs)
            .uncles(uncles)
            .salt(salt)
            .build();
        let hash = block.hash();
        let idx = self.register_block(block);
        let (outcome, releases) = state.on_solve(hash, idx);
        if outcome == SelfishOutcome::Withheld {
            self.stats.blocks_withheld += 1;
        }
        for r in releases {
            sched.now_event(Event::PoolRelease { pool, idx: r });
        }
        self.pool_states[pool.index()].selfish = Some(state);
    }

    /// Fork-choice-time hook: the selfish pool's primary gateway adopted
    /// a new head, and the behavior machine decides what to release.
    fn selfish_head_update(&mut self, pool: PoolId, sched: &mut Scheduler<Event>) {
        let gw = self.primary_gateway(pool);
        let head = self.nodes[gw.index()].chain().head();
        let head_number = self.nodes[gw.index()].chain().head_number();
        let mut state = self.pool_states[pool.index()]
            .selfish
            .take()
            .expect("head updates are only routed to selfish pools");
        // Did the network adopt our branch? Withheld tips can never be
        // ancestors of a public head, so this is false until we release.
        let extends_tip = state.tip().is_some_and(|(tip, tip_number)| {
            head_number >= tip_number
                && self.nodes[gw.index()].chain().ancestor_at(head, tip_number) == Some(tip)
        });
        let (_, releases) = state.on_public_head(head, head_number, extends_tip);
        for r in releases {
            sched.now_event(Event::PoolRelease { pool, idx: r });
        }
        self.pool_states[pool.index()].selfish = Some(state);
    }

    fn on_pool_release(&mut self, pool: PoolId, idx: BlockIdx, sched: &mut Scheduler<Event>) {
        self.stats.blocks_released += 1;
        self.broadcast_from_gateways(pool, idx, sched);
    }

    /// The next hash salt of `pool`'s counter.
    fn next_salt(&mut self, pool: PoolId) -> u64 {
        let salt = self.pool_states[pool.index()].salt;
        self.pool_states[pool.index()].salt += 1;
        salt
    }

    fn solve(&mut self, pool: PoolId, now: SimTime, sched: &mut Scheduler<Event>) {
        // Renewal process: the pool mines continuously.
        let share = self.pools.pool(pool).share;
        let d = next_block_delay(share, self.interblock, &mut self.lanes_pool[pool.index()]);
        sched.after(d, Event::PoolSolve { pool });

        if self.pool_states[pool.index()].selfish.is_some() {
            self.solve_selfish(pool, now, sched);
            return;
        }
        if let Some(ds) = self.pool_states[pool.index()].dup.take() {
            let gw = self.primary_gateway(pool);
            let head_number = self.nodes[gw.index()].chain().head_number();
            // Duplicate is only worth publishing while it can still become
            // an uncle (within 6 generations).
            if head_number < ds.height + 6 {
                let cfg = self.pools.pool(pool).clone();
                let txs = if ds.same_txs {
                    ds.txs.clone()
                } else {
                    self.pack_for(pool, ds.parent)
                };
                let salt = self.next_salt(pool);
                let dup = BlockBuilder::new(ds.parent, ds.height, pool)
                    .mined_at(now)
                    .txs(txs)
                    .salt(salt)
                    .build();
                let dup_idx = self.register_block(dup);
                self.stats.duplicates_produced += 1;
                self.broadcast_from_gateways(pool, dup_idx, sched);
                if BlockPlan::continue_duplicating(&cfg, &mut self.lanes_pool[pool.index()]) {
                    self.pool_states[pool.index()].dup = Some(ds);
                } else {
                    self.resume_after_duplication(pool, &ds);
                }
                return;
            }
            // Window closed: fall through to a normal solve.
            self.resume_after_duplication(pool, &ds);
        }
        self.solve_normal(pool, now, sched);
    }

    fn record_observation(&mut self, slot: usize, from: NodeId, msg: Message, now: SimTime) {
        let local = self.observers[slot]
            .skew
            .read(now, &mut self.lanes_clock[slot]);
        let log = &mut self.logs[slot];
        match msg {
            Message::Announce(h) => {
                log.record_block_msg(h, BlockMsgKind::Announce, from, local, now)
            }
            Message::NewBlock(h) | Message::BlockBody(h) => {
                log.record_block_msg(h, BlockMsgKind::FullBlock, from, local, now);
            }
            Message::Tx(id) => log.record_tx(id, from, local, now),
            Message::GetBlock(_) => {}
        }
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        msg: Message,
        sched: &mut Scheduler<Event>,
    ) {
        self.stats.messages += 1;
        if let Some(slot) = self.observer_slot[to.index()] {
            self.record_observation(slot, from, msg, now);
        }
        let mut sends = std::mem::take(&mut self.send_scratch);
        match msg {
            Message::Announce(h) => {
                let idx = self
                    .blocks
                    .idx_of(h)
                    .expect("announced hashes are registered at creation");
                if self.nodes[to.index()].on_announce(from, h, idx, &mut sends) {
                    sched.after(
                        self.net.fetch_timeout,
                        Event::FetchTimeout { node: to, idx },
                    );
                }
                self.dispatch_sends(to, &mut sends, sched);
            }
            Message::NewBlock(h) | Message::BlockBody(h) => {
                if let Some(idx) = self.blocks.idx_of(h) {
                    let action = {
                        let block = self.blocks.by_idx(idx);
                        self.nodes[to.index()].on_block_arrival(
                            Some(from),
                            block,
                            idx,
                            &self.net,
                            &mut self.lanes_node[to.index()],
                            &mut self.gossip_scratch,
                            &mut sends,
                        )
                    };
                    if let ImportAction::Schedule(i) = action {
                        let d = self.import_duration(to, i);
                        sched.after(d, Event::ImportDone { node: to, idx: i });
                    }
                    self.dispatch_sends(to, &mut sends, sched);
                }
            }
            Message::GetBlock(h) => {
                if let Some(idx) = self.blocks.idx_of(h) {
                    self.nodes[to.index()].on_get_block(from, h, idx, &mut sends);
                    self.dispatch_sends(to, &mut sends, sched);
                }
            }
            Message::Tx(id) => self.deliver_tx(Some(from), to, id, &mut sends, sched),
        }
        debug_assert!(sends.is_empty(), "dispatch_sends drains the buffer");
        self.send_scratch = sends;
    }

    /// Hands `id` to `to`'s transaction handler and dispatches its relays.
    fn deliver_tx(
        &mut self,
        from: Option<NodeId>,
        to: NodeId,
        id: TxId,
        sends: &mut Vec<Send>,
        sched: &mut Scheduler<Event>,
    ) {
        self.nodes[to.index()].on_transactions(
            from,
            id,
            &self.txs,
            &self.net,
            &mut self.lanes_node[to.index()],
            &mut self.gossip_scratch,
            sends,
        );
        self.dispatch_sends(to, sends, sched);
    }

    fn on_import_done(&mut self, node: NodeId, idx: BlockIdx, sched: &mut Scheduler<Event>) {
        self.stats.imports += 1;
        let mut sends = std::mem::take(&mut self.send_scratch);
        let new_head = self.nodes[node.index()].on_import_complete(
            self.blocks.by_idx(idx),
            idx,
            &self.txs,
            &self.net,
            &mut sends,
        );
        if new_head {
            if let Some(pool) = self.gateway_pool[node.index()] {
                if self.primary_gateway(pool) == node {
                    if self.pool_states[pool.index()].selfish.is_some() {
                        // Adversarial pools react at fork-choice time:
                        // the release decision happens now, not after the
                        // honest retarget lag.
                        self.selfish_head_update(pool, sched);
                    } else {
                        let lag = self
                            .miner_lag
                            .sample_duration(&mut self.lanes_pool[pool.index()]);
                        sched.after(lag, Event::PoolRetarget { pool });
                    }
                }
            }
        }
        self.dispatch_sends(node, &mut sends, sched);
        self.send_scratch = sends;
    }

    fn on_retarget(&mut self, pool: PoolId) {
        // Only meaningful outside a duplication episode; duplication keeps
        // its own target and resumes from the head afterwards. Selfish
        // pools never schedule retargets (their machine owns the target).
        if self.pool_states[pool.index()].dup.is_some()
            || self.pool_states[pool.index()].selfish.is_some()
        {
            return;
        }
        let gw = self.primary_gateway(pool);
        let head = self.nodes[gw.index()].chain().head();
        let head_number = self.nodes[gw.index()].chain().head_number();
        if head_number + 1 > self.pool_states[pool.index()].target.1 {
            self.pool_states[pool.index()].target = (head, head_number + 1);
        }
    }

    fn on_next_submission(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.submissions += 1;
        let ev = self.generator.next_event(&mut self.rng_workload);
        // Stop planning past the horizon; the queue drains naturally.
        if now + ev.delay > SimTime::ZERO + self.duration {
            return;
        }
        sched.after(ev.delay, Event::NextSubmission);
        for planned in ev.txs {
            let id = TxId(self.txs.len() as u64 + 1);
            let homes = &self.account_homes[planned.sender.index() % self.account_homes.len()];
            let origin = homes[self.rng_workload.index(homes.len())];
            let submit_at = now + ev.delay + planned.offset;
            // Every shard interns every transaction (so any shard can
            // resolve any `TxId`), but only the origin's owner counts it
            // and performs the injection.
            let idx = self.txs.insert(Transaction {
                id,
                sender: planned.sender,
                nonce: planned.nonce,
                gas_price: planned.gas_price,
                gas: planned.gas,
                size: planned.size,
                submitted_at: submit_at,
                origin,
            });
            if self.owns_node(origin) {
                self.stats.txs_submitted += 1;
                sched.at(submit_at, Event::InjectTx { idx });
            }
        }
    }

    fn on_inject_tx(&mut self, idx: TxIdx, sched: &mut Scheduler<Event>) {
        let tx = self.txs.by_idx(idx);
        let (id, origin) = (tx.id, tx.origin);
        let mut sends = std::mem::take(&mut self.send_scratch);
        self.deliver_tx(None, origin, id, &mut sends, sched);
        self.send_scratch = sends;
    }

    // ---- Runtime dynamics (scripted churn, partitions, attacks) ----

    /// Executes one scheduled script entry. Replicated: every shard runs
    /// every entry (topology and degradation scalars are part of the
    /// replicated world), so no draw or mutation here may depend on
    /// ownership — only flood *injection* (inside [`Self::on_flood_tick`])
    /// is ownership-gated.
    fn on_dynamics(&mut self, entry: u32, sched: &mut Scheduler<Event>) {
        self.dynamics.fired += 1;
        let (_, ev) = self.dyn_script[entry as usize];
        match ev {
            DynamicsEvent::NodeDown(n) => self.node_down(n),
            DynamicsEvent::NodeUp(n) => self.node_up(n),
            DynamicsEvent::LinkDown(a, b) => {
                // Only a live link can fail; severing a parked or absent
                // link is a no-op (the script may race node churn).
                if self.nodes[a.index()].is_peer(b) {
                    self.sever(a, b);
                    self.dynamics.severed.push((a, b));
                }
            }
            DynamicsEvent::LinkUp(a, b) => {
                // Only a recorded failure heals; a pair that was never
                // linked stays unlinked (the topology's degree caps hold).
                if self.unsever(a, b) {
                    self.reconnect_or_defer(a, b);
                }
            }
            DynamicsEvent::Partition { a, b } => self.partition(a, b),
            DynamicsEvent::Heal { a, b } => self.heal_regions(a, b),
            DynamicsEvent::LatencyScale(f) => self.dynamics.latency_scale = f,
            DynamicsEvent::BandwidthScale(f) => self.dynamics.bandwidth_scale = f,
            DynamicsEvent::EclipsePool(p) => {
                let gws = self.pool_states[p.index()].gateways.clone();
                for g in gws {
                    self.node_down(g);
                }
            }
            DynamicsEvent::ReleasePool(p) => {
                let gws = self.pool_states[p.index()].gateways.clone();
                for g in gws {
                    self.node_up(g);
                }
            }
            DynamicsEvent::FloodStart { rate_per_sec } => {
                // A start during an active window just retunes the rate;
                // the existing tick chain carries on (exactly one chain
                // is ever live).
                let chain_live = self.dynamics.flood_rate.is_some();
                self.dynamics.flood_rate = Some(rate_per_sec);
                if !chain_live {
                    self.schedule_flood_tick(rate_per_sec, sched);
                }
            }
            DynamicsEvent::FloodStop => self.dynamics.flood_rate = None,
        }
    }

    /// Injects one spam transaction of the active flood window and
    /// schedules the next tick. Replicated: every shard draws the same
    /// origin and gap and interns the same transaction; only the origin's
    /// owner injects (mirror of [`Self::on_next_submission`]).
    fn on_flood_tick(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.dynamics.fired += 1;
        let Some(rate) = self.dynamics.flood_rate else {
            // The window closed while this tick was in flight; the chain
            // dies here (a later FloodStart spawns a fresh one).
            return;
        };
        let origin = NodeId(self.rng_dynamics.index(self.nodes.len()) as u32);
        // Spam senders get one-shot account ids from the top of the u32
        // range, far above any workload account, so every spam tx is
        // nonce-0 of its own account and immediately includable.
        let sender = AccountId(u32::MAX - self.dynamics.spam_seq);
        self.dynamics.spam_seq = self.dynamics.spam_seq.wrapping_add(1);
        let id = TxId(self.txs.len() as u64 + 1);
        let idx = self.txs.insert(Transaction {
            id,
            sender,
            nonce: 0,
            gas_price: 1,
            gas: ethmeter_chain::tx::SIMPLE_TX_GAS,
            size: ByteSize::from_bytes(180),
            submitted_at: now,
            origin,
        });
        if self.owns_node(origin) {
            self.stats.txs_submitted += 1;
            self.on_inject_tx(idx, sched);
        }
        self.schedule_flood_tick(rate, sched);
    }

    /// Draws the next flood inter-arrival gap and schedules the tick,
    /// unless it would land past the campaign horizon. The draw happens
    /// unconditionally (every shard consumes the same stream).
    fn schedule_flood_tick(&mut self, rate: f64, sched: &mut Scheduler<Event>) {
        let gap = Exp::with_mean(1.0 / rate).sample_duration(&mut self.rng_dynamics);
        if sched.now() + gap <= SimTime::ZERO + self.duration {
            sched.after(gap, Event::FloodTick);
        }
    }

    /// Whether `n` is currently scripted down.
    fn is_down(&self, n: NodeId) -> bool {
        self.dynamics.down.iter().any(|&(d, _)| d == n)
    }

    /// Tears down the `a`↔`b` link on both endpoints.
    fn sever(&mut self, a: NodeId, b: NodeId) {
        let da = self.nodes[a.index()].disconnect(b);
        let db = self.nodes[b.index()].disconnect(a);
        debug_assert_eq!(da, db, "asymmetric link {a}<->{b}");
    }

    /// Re-establishes the `a`↔`b` link on both endpoints. Idempotent: a
    /// heal of an already-live link is a no-op (`Duplicate` is the
    /// expected answer when scripts overlap), and a malformed runtime
    /// join surfaces as a structured [`ethmeter_net::LinkError`] instead
    /// of a panic inside a shard worker.
    fn redial(&mut self, a: NodeId, b: NodeId) {
        let _ = self.nodes[a.index()].try_add_link(b, &self.net);
        let _ = self.nodes[b.index()].try_add_link(a, &self.net);
    }

    /// Drops the `(a, b)` pair (either orientation) from the severed
    /// list; returns whether it was there.
    fn unsever(&mut self, a: NodeId, b: NodeId) -> bool {
        let severed = &mut self.dynamics.severed;
        let at = severed
            .iter()
            .position(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a));
        if let Some(pos) = at {
            severed.remove(pos);
        }
        at.is_some()
    }

    /// Heals the `a`↔`b` link now, or — when an endpoint is itself down —
    /// parks the link on that endpoint's churn record so it comes back
    /// with the node's rejoin.
    fn reconnect_or_defer(&mut self, a: NodeId, b: NodeId) {
        let park_on = if self.is_down(a) {
            Some((a, b))
        } else if self.is_down(b) {
            Some((b, a))
        } else {
            None
        };
        match park_on {
            Some((down, other)) => {
                let rec = self
                    .dynamics
                    .down
                    .iter_mut()
                    .find(|(d, _)| *d == down)
                    .expect("is_down implies a record");
                if !rec.1.contains(&other) {
                    rec.1.push(other);
                }
            }
            None => self.redial(a, b),
        }
    }

    /// Takes `n` offline: every live link is torn down and parked on the
    /// node's churn record. Idempotent while already down.
    fn node_down(&mut self, n: NodeId) {
        if self.is_down(n) {
            return;
        }
        let peers: Vec<NodeId> = self.nodes[n.index()].peers().to_vec();
        for &p in &peers {
            self.sever(n, p);
        }
        self.dynamics.down.push((n, peers));
    }

    /// Brings `n` back: every parked link is re-dialed — or re-parked on
    /// the *other* endpoint when that endpoint is itself still down. A
    /// rejoin deliberately restores recorded links even across an active
    /// partition (rejoining nodes re-dial their old peer set; the
    /// deterministic, documented semantics).
    fn node_up(&mut self, n: NodeId) {
        let Some(pos) = self.dynamics.down.iter().position(|&(d, _)| d == n) else {
            return;
        };
        let (_, links) = self.dynamics.down.remove(pos);
        for p in links {
            self.reconnect_or_defer(n, p);
        }
    }

    /// Severs every live link between a node in region set `a` and a node
    /// in region set `b`, recording each for a later heal. Sweeps nodes
    /// in id order and handles each unordered pair once.
    fn partition(&mut self, a: RegionMask, b: RegionMask) {
        for i in 0..self.nodes.len() {
            let ri = self.node_meta[i].0;
            let (in_a, in_b) = (a.contains(ri), b.contains(ri));
            if !in_a && !in_b {
                continue;
            }
            let peers: Vec<NodeId> = self.nodes[i].peers().to_vec();
            for p in peers {
                if p.index() < i {
                    continue; // pair already visited from the lower id
                }
                let rp = self.node_meta[p.index()].0;
                if (in_a && b.contains(rp)) || (in_b && a.contains(rp)) {
                    let n = NodeId(i as u32);
                    self.sever(n, p);
                    self.dynamics.severed.push((n, p));
                }
            }
        }
    }

    /// Heals every severed link whose endpoints straddle region sets `a`
    /// and `b`, in severance order.
    fn heal_regions(&mut self, a: RegionMask, b: RegionMask) {
        let mut to_heal = Vec::new();
        let mut i = 0;
        while i < self.dynamics.severed.len() {
            let (x, y) = self.dynamics.severed[i];
            let rx = self.node_meta[x.index()].0;
            let ry = self.node_meta[y.index()].0;
            if (a.contains(rx) && b.contains(ry)) || (a.contains(ry) && b.contains(rx)) {
                self.dynamics.severed.remove(i);
                to_heal.push((x, y));
            } else {
                i += 1;
            }
        }
        for (x, y) in to_heal {
            self.reconnect_or_defer(x, y);
        }
    }

    // ---- Sharded-execution plumbing (driven by `crate::par`) ----

    /// True when this world (or this shard of it) owns `node`.
    fn owns_node(&self, node: NodeId) -> bool {
        self.shard
            .as_ref()
            .is_none_or(|c| c.map.owns(c.me as usize, node))
    }

    /// True when this world (or this shard of it) owns `pool`.
    fn owns_pool(&self, pool: PoolId) -> bool {
        self.shard
            .as_ref()
            .is_none_or(|c| c.owned_pools[pool.index()])
    }

    /// The region of every node, in id order — the input to
    /// [`ShardMap::by_region`].
    pub(crate) fn node_regions(&self) -> Vec<Region> {
        self.node_meta.iter().map(|&(r, _)| r).collect()
    }

    /// Turns this freshly reset world into shard `me` of a partitioned
    /// run. Must be called before [`SimWorld::initial_events`]; pools are
    /// owned by the shard owning their primary gateway.
    pub(crate) fn attach_shard(&mut self, map: Arc<ShardMap>, me: usize) {
        let owned_pools = self
            .pool_states
            .iter()
            .map(|ps| map.owns(me, ps.gateways[0]))
            .collect();
        self.shard = Some(ShardCtx {
            map,
            me: me as u32,
            owned_pools,
            outbox: Vec::new(),
            emit_seq: 0,
            block_watermark: self.blocks.len(),
            local_created: Vec::new(),
        });
    }

    /// Drains this window's cross-shard events and newly minted blocks
    /// into the barrier exchange buffers and advances the replication
    /// watermark.
    pub(crate) fn drain_shard_output(
        &mut self,
        remotes: &mut Vec<RemoteEvent>,
        blocks: &mut Vec<Block>,
    ) {
        let Some(ctx) = self.shard.as_mut() else {
            return;
        };
        remotes.append(&mut ctx.outbox);
        for slot in ctx.block_watermark..self.blocks.len() {
            blocks.push(self.blocks.by_idx(BlockIdx(slot as u32)).clone());
        }
        ctx.block_watermark = self.blocks.len();
    }

    /// Interns the other shards' newly minted blocks. Slot assignment is
    /// made deterministic (independent of which shard posted first) by
    /// sorting into canonical creation order before insertion. Must run
    /// *before* the window's remote events are scheduled, so hash →
    /// slot resolution always succeeds.
    pub(crate) fn ingest_replica_blocks(&mut self, blocks: &mut Vec<Block>) {
        blocks.sort_by_key(|b| (b.mined_at(), b.miner().raw(), b.hash().raw()));
        for b in blocks.drain(..) {
            // Same mint-time consensus check as `register_block`. A
            // replica's parent may be a genesis child (no registered
            // parent) or may itself arrive later in this sorted batch;
            // only parent-present blocks can be validated here.
            if let Some(parent) = self.blocks.get(b.parent()) {
                self.consensus
                    .validate(b.hash(), b.number(), parent.number())
                    .expect("replica block must satisfy the consensus engine");
            }
            self.blocks.insert(b);
        }
        if let Some(ctx) = self.shard.as_mut() {
            ctx.block_watermark = self.blocks.len();
        }
    }

    /// Resolves a cross-shard event against the local registries.
    ///
    /// # Panics
    ///
    /// Panics if an injected block's replica was not ingested first —
    /// a violation of the window-barrier protocol.
    pub(crate) fn resolve_remote(&self, kind: RemoteEventKind) -> Event {
        match kind {
            RemoteEventKind::Deliver { from, to, msg } => Event::Deliver { from, to, msg },
            RemoteEventKind::Inject { node, block } => Event::InjectBlock {
                node,
                idx: self
                    .blocks
                    .idx_of(block)
                    .expect("replica blocks are ingested before remote events"),
            },
        }
    }

    /// Moves out the locally minted blocks, in creation order (replicas
    /// from other shards are dropped). The world must be reset before it
    /// runs again.
    pub(crate) fn take_local_blocks(&mut self) -> Vec<Block> {
        let blocks = self.blocks.take_blocks();
        let Some(ctx) = self.shard.as_ref() else {
            return blocks;
        };
        let mut want = ctx.local_created.iter().copied().peekable();
        let mut out = Vec::with_capacity(ctx.local_created.len());
        for (slot, block) in blocks.into_iter().enumerate() {
            if want.peek() == Some(&slot) {
                want.next();
                out.push(block);
            }
        }
        out
    }

    /// Moves out every observer log, in vantage order (non-owned slots
    /// are empty on a shard).
    pub(crate) fn take_logs(&mut self) -> Vec<ObserverLog> {
        std::mem::take(&mut self.logs)
    }

    /// The node id hosting each observer slot, in vantage order.
    pub(crate) fn observer_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<(usize, NodeId)> = self
            .observer_slot
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|slot| (slot, NodeId(i as u32))))
            .collect();
        out.sort_by_key(|&(slot, _)| slot);
        out.into_iter().map(|(_, n)| n).collect()
    }

    /// Moves out the transaction table as the ground-truth map.
    pub(crate) fn take_tx_map(&mut self) -> FxHashMap<TxId, Transaction> {
        std::mem::take(&mut self.txs).into_map()
    }

    /// `NextSubmission` events processed by this world.
    pub(crate) fn submission_events(&self) -> u64 {
        self.submissions
    }

    /// `Dynamics` + `FloodTick` events processed by this world (replicated
    /// on every shard, like submissions).
    pub(crate) fn dynamics_events(&self) -> u64 {
        self.dynamics.fired
    }

    /// The current peer list of `node`, in slab order. Exposed for
    /// topology assertions (e.g. reachability after a partition heals).
    pub fn peers_of(&self, node: NodeId) -> &[NodeId] {
        self.nodes[node.index()].peers()
    }

    /// Pool names by id (replicated, identical on every shard).
    pub(crate) fn pool_names(&self) -> Vec<String> {
        self.pools.iter().map(|p| p.name.clone()).collect()
    }

    /// Pool hash-power shares by id (replicated, identical on every shard).
    pub(crate) fn pool_shares(&self) -> Vec<f64> {
        self.pools.iter().map(|p| p.share).collect()
    }
}

impl World for SimWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::Deliver { from, to, msg } => self.on_deliver(now, from, to, msg, sched),
            Event::ImportDone { node, idx } => self.on_import_done(node, idx, sched),
            Event::FetchTimeout { node, idx } => {
                let hash = self.blocks.by_idx(idx).hash();
                let mut sends = std::mem::take(&mut self.send_scratch);
                if self.nodes[node.index()].on_fetch_timeout(hash, idx, &mut sends) {
                    sched.after(self.net.fetch_timeout, Event::FetchTimeout { node, idx });
                }
                self.dispatch_sends(node, &mut sends, sched);
                self.send_scratch = sends;
            }
            Event::PoolSolve { pool } => self.solve(pool, now, sched),
            Event::PoolRetarget { pool } => self.on_retarget(pool),
            Event::PoolRelease { pool, idx } => self.on_pool_release(pool, idx, sched),
            Event::InjectBlock { node, idx } => self.inject_block_at(node, idx, sched),
            Event::NextSubmission => self.on_next_submission(now, sched),
            Event::InjectTx { idx } => self.on_inject_tx(idx, sched),
            Event::Dynamics { entry } => self.on_dynamics(entry, sched),
            Event::FloodTick => self.on_flood_tick(now, sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Preset, Scenario};
    use ethmeter_sim::Engine;

    fn tiny_world() -> (Scenario, SimWorld) {
        let scenario = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(1)
            .duration(SimDuration::from_mins(5))
            .build();
        let world = SimWorld::new(&scenario);
        (scenario, world)
    }

    #[test]
    fn world_builds_expected_population() {
        let (scenario, world) = tiny_world();
        let gw_total: usize = scenario.pools.iter().map(|p| p.gateway_count).sum();
        assert_eq!(
            world.node_count(),
            scenario.ordinary_nodes + gw_total + scenario.vantages.len()
        );
        // All gateways have mempools.
        for (i, pool) in world.gateway_pool.iter().enumerate() {
            if pool.is_some() {
                assert!(world.nodes[i].mempool().is_some(), "gateway {i}");
            }
        }
        // Pool state is dense: one slot per pool, gateways wired.
        assert_eq!(world.pool_states.len(), scenario.pools.len());
        assert!(world
            .pool_states
            .iter()
            .all(|ps| !ps.gateways.is_empty() && ps.dup.is_none()));
    }

    #[test]
    fn per_node_gossip_state_does_not_grow_with_the_network() {
        // O(degree), not O(N): a node of the 10k-node preset may hold no
        // more gossip state than a node of the 150-node one (whose mean
        // degree is the higher of the two, the observers' wide fan-out
        // being spread over far fewer nodes).
        let mean_state_bytes = |preset: Preset| {
            let world = SimWorld::new(&Scenario::builder().preset(preset).seed(1).build());
            let total: usize = world.nodes.iter().map(|n| n.state_bytes()).sum();
            total as f64 / world.node_count() as f64
        };
        let small = mean_state_bytes(Preset::Small);
        let planet = mean_state_bytes(Preset::Planet);
        assert!(
            planet <= 1.25 * small,
            "planet {planet:.0} B/node vs small {small:.0} B/node"
        );
    }

    #[test]
    fn five_minutes_produce_blocks_and_observations() {
        let (_, mut world) = tiny_world();
        let initial = world.initial_events();
        let mut engine = Engine::new(world);
        for (t, e) in initial {
            engine.schedule(t, e);
        }
        engine.run_until(SimTime::ZERO + SimDuration::from_mins(5));
        let world = engine.into_world();
        // ~22 blocks expected in 5 minutes at 13.3s.
        let blocks = world.truth().head_number();
        assert!((10..45).contains(&blocks), "blocks {blocks}");
        assert!(world.stats.messages > 1_000);
        assert!(world.stats.txs_submitted > 50);
        // The registries interned every produced artifact.
        assert_eq!(world.blocks.len() as u64, world.stats.blocks_produced);
        assert_eq!(world.txs.len() as u64, world.stats.txs_submitted);
        // Every observer saw most blocks.
        for log in &world.logs {
            assert!(
                log.block_count() as u64 >= blocks * 9 / 10,
                "observer saw {} of {blocks}",
                log.block_count()
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_world() {
        let run = |seed: u64| {
            let scenario = Scenario::builder()
                .preset(Preset::Tiny)
                .seed(seed)
                .duration(SimDuration::from_mins(3))
                .build();
            let mut world = SimWorld::new(&scenario);
            let initial = world.initial_events();
            let mut engine = Engine::new(world);
            for (t, e) in initial {
                engine.schedule(t, e);
            }
            engine.run_until(SimTime::ZERO + SimDuration::from_mins(3));
            let w = engine.into_world();
            (
                w.stats,
                w.truth().head(),
                w.truth().len(),
                w.logs.iter().map(|l| l.block_count()).collect::<Vec<_>>(),
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the identical run");
        let c = run(8);
        assert_ne!(a.1, c.1, "different seeds diverge");
    }

    #[test]
    fn reset_reproduces_a_fresh_world() {
        let scenario_a = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(21)
            .duration(SimDuration::from_mins(3))
            .build();
        let scenario_b = Scenario::builder()
            .preset(Preset::Tiny)
            .seed(22)
            .ordinary_nodes(48)
            .duration(SimDuration::from_mins(3))
            .build();

        let run_fresh = |scenario: &Scenario| {
            let mut world = SimWorld::new(scenario);
            let initial = world.initial_events();
            let mut engine = Engine::new(world);
            for (t, e) in initial {
                engine.schedule(t, e);
            }
            engine.run_until(SimTime::ZERO + scenario.duration);
            let mut w = engine.into_world();
            (w.stats, w.take_campaign(scenario.duration).fingerprint())
        };

        // One world, reset across two differently-shaped scenarios (node
        // counts differ, so slabs shrink and regrow), must match fresh
        // construction bit for bit.
        let mut engine = Engine::new(SimWorld::new(&scenario_a));
        let run_reused = |engine: &mut Engine<SimWorld>, scenario: &Scenario| {
            engine.reset();
            engine.world_mut().reset(scenario);
            let initial = engine.world_mut().initial_events();
            for (t, e) in initial {
                engine.schedule(t, e);
            }
            engine.run_until(SimTime::ZERO + scenario.duration);
            let stats = engine.world_mut().stats;
            (
                stats,
                engine
                    .world_mut()
                    .take_campaign(scenario.duration)
                    .fingerprint(),
            )
        };
        for scenario in [&scenario_a, &scenario_b, &scenario_a] {
            assert_eq!(
                run_reused(&mut engine, scenario),
                run_fresh(scenario),
                "reused world diverged on seed {}",
                scenario.seed
            );
        }
    }

    #[test]
    fn queued_events_are_three_words() {
        // Every queued event is copied through the engine's slab, and on
        // a tx-heavy run nearly all of them are `Deliver {from, to,
        // Tx(id)}`: one tag and one id per message keeps the whole event
        // in three words.
        assert_eq!(std::mem::size_of::<Message>(), 16);
        assert_eq!(std::mem::size_of::<Event>(), 24);
    }

    #[test]
    fn link_up_heals_only_severed_links() {
        let (_, mut world) = tiny_world();
        let a = NodeId(0);
        let b = world.peers_of(a)[0];
        let c = (1..world.node_count() as u32)
            .map(NodeId)
            .find(|&n| !world.peers_of(a).contains(&n))
            .expect("the tiny topology is not complete");
        let sorted_peers = |w: &SimWorld, n: NodeId| {
            let mut peers = w.peers_of(n).to_vec();
            peers.sort();
            peers
        };
        let before: Vec<Vec<NodeId>> = [a, b, c].map(|n| sorted_peers(&world, n)).into();
        let at = |s: u64| SimTime::from_secs(s);
        world.dyn_script = vec![
            (at(1), DynamicsEvent::LinkUp(a, c)),
            (at(2), DynamicsEvent::LinkDown(a, b)),
            (at(3), DynamicsEvent::LinkUp(a, b)),
        ];
        let mut engine = Engine::new(world);
        let mut fire = |entry: u32| {
            let t = at(u64::from(entry) + 1);
            engine.schedule(t, Event::Dynamics { entry });
            engine.run_until(t);
            [a, b, c].map(|n| sorted_peers(engine.world(), n))
        };
        // Never linked: nothing to heal.
        assert_eq!(fire(0).to_vec(), before);
        let [down_a, down_b, _] = fire(1);
        assert!(!down_a.contains(&b) && !down_b.contains(&a));
        // A recorded failure heals to the original link.
        assert_eq!(fire(2).to_vec(), before);
    }
}
