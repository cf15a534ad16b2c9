//! Deterministic input generators. Every input of every workload derives
//! from `--seed` through [`XorShift`], the benchmark's own generator, so
//! the product crates receive only finished inputs and none of their RNG
//! state decides what the benchmark measures.

use std::path::Path;

use crate::trace::Tracer;
use ethmeter_core::chain::block::BlockBuilder;
use ethmeter_core::chain::tree::BlockTree;
use ethmeter_core::chain::tx::Transaction;
use ethmeter_core::experiments::east_west_masks;
use ethmeter_core::measure::{
    BlockMsgKind, CampaignData, GroundTruth, ObserverLog, SpillConfig, VantagePoint,
};
use ethmeter_core::mining::PoolDirectory;
use ethmeter_core::prelude::*;
use ethmeter_core::types::{
    AccountId, BlockHash, ByteSize, FxHashMap, NodeId, PoolId, SimDuration, SimTime, TxId,
};

/// Marsaglia xorshift64*, seeded through one splitmix64 step so that
/// small consecutive seeds start far apart and the state is never zero.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a, continued from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// An independent sub-seed per input, so that adding an input never
/// shifts the draws of another.
pub fn derive(seed: u64, label: &str) -> u64 {
    XorShift::new(fnv1a(FNV_OFFSET ^ seed, label.as_bytes())).next_u64()
}

/// `small-e2e`: the everyday `repro` scenario.
pub fn small_scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .preset(Preset::Small)
        .seed(derive(seed, "small-e2e"))
        .build()
}

/// `planet-cold`: 10,000 nodes, sequential engine.
pub fn planet_scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .preset(Preset::Planet)
        .seed(derive(seed, "planet-cold"))
        .build()
}

/// Simulated length of one `grid-mixed` job.
const GRID_JOB: SimDuration = SimDuration::from_secs(120);

/// `grid-mixed`: the scenario every grid job starts from.
pub fn grid_base(seed: u64) -> Scenario {
    Scenario::builder()
        .preset(Preset::Tiny)
        .seed(derive(seed, "grid-mixed"))
        .duration(GRID_JOB)
        .build()
}

/// The three dynamics axis points of `grid-mixed`, over a world of
/// `ordinary_nodes` churnable nodes running for `duration`.
pub fn dynamics_scripts(
    seed: u64,
    ordinary_nodes: usize,
    duration: SimDuration,
) -> [(&'static str, DynamicsScript); 3] {
    [
        ("static", DynamicsScript::new()),
        ("churn", churn_script(seed, ordinary_nodes, duration)),
        ("partition-flood", partition_flood_script(seed, duration)),
    ]
}

/// A tenth of the ordinary nodes each go down once, at a seeded instant
/// in the first three quarters of the run, for a quarter of the run.
pub fn churn_script(seed: u64, ordinary_nodes: usize, duration: SimDuration) -> DynamicsScript {
    let mut rng = XorShift::new(derive(seed, "churn"));
    let mut ids: Vec<u32> = (0..ordinary_nodes as u32).collect();
    let churners = (ordinary_nodes / 10).max(1);
    let mut script = DynamicsScript::new();
    for i in 0..churners {
        let j = i + rng.below((ids.len() - i) as u64) as usize;
        ids.swap(i, j);
        let start = SimTime::ZERO + duration.mul_f64(0.75 * rng.unit());
        script = script.churn_window(start, duration.mul_f64(0.25), NodeId(ids[i]));
    }
    script
}

/// An east/west partition over a seeded window in the middle of the run,
/// with a 2 tx/s spam flood running through it.
pub fn partition_flood_script(seed: u64, duration: SimDuration) -> DynamicsScript {
    let mut rng = XorShift::new(derive(seed, "partition-flood"));
    let start = SimTime::ZERO + duration.mul_f64(0.2 + 0.1 * rng.unit());
    let window = duration.mul_f64(0.3 + 0.1 * rng.unit());
    let (east, west) = east_west_masks();
    DynamicsScript::new()
        .partition_window(start, window, east, west)
        .flood_window(start, window, 2.0)
}

/// Shape of the synthetic observation set behind `dataset-month`.
#[derive(Debug, Clone, Copy)]
pub struct DatasetShape {
    /// Canonical chain length.
    pub blocks: u64,
    /// Transactions per canonical block.
    pub txs_per_block: u64,
    /// Receptions of each block at each vantage.
    pub receptions: u32,
    /// One uncle-candidate sibling every this many heights.
    pub sibling_every: u64,
}

/// The chain and transaction table of a synthetic campaign: what the
/// paper got from Etherscan, before any observer recorded anything.
pub struct DatasetTruth {
    pub truth: GroundTruth,
    /// Every block in sealing order, siblings after their main block.
    pub blocks: Vec<(BlockHash, SimTime)>,
    /// Every transaction in submission order.
    pub txs: Vec<(TxId, SimTime)>,
}

const INTERBLOCK_S: f64 = 13.3;

/// Builds the ground truth: a canonical chain with periodic siblings
/// that the next block references as uncles, miners drawn from the
/// paper's pool shares.
pub fn dataset_truth(seed: u64, shape: DatasetShape) -> DatasetTruth {
    let mut rng = XorShift::new(derive(seed, "dataset-truth"));
    let pools = PoolDirectory::paper_dsn2020();
    let shares: Vec<f64> = pools.iter().map(|p| p.share).collect();
    let total: f64 = shares.iter().sum();
    let draw_miner = |rng: &mut XorShift| {
        let mut x = rng.unit() * total;
        for (i, s) in shares.iter().enumerate() {
            x -= s;
            if x < 0.0 {
                return PoolId(i as u16);
            }
        }
        PoolId(shares.len() as u16 - 1)
    };
    let interblock = SimDuration::from_secs_f64(INTERBLOCK_S);
    let mut tree = BlockTree::new();
    let mut parent = tree.genesis_hash();
    let mut blocks =
        Vec::with_capacity((shape.blocks + shape.blocks / shape.sibling_every) as usize);
    let mut txs = Vec::with_capacity((shape.blocks * shape.txs_per_block) as usize);
    let mut table: FxHashMap<TxId, Transaction> = FxHashMap::default();
    let mut pending_uncle: Option<BlockHash> = None;
    let mut tx_seq = 0u64;
    for n in 1..=shape.blocks {
        let sealed = SimTime::ZERO + interblock * n + SimDuration::from_millis(rng.below(4_000));
        let mut ids = Vec::with_capacity(shape.txs_per_block as usize);
        for _ in 0..shape.txs_per_block {
            // An odd multiplier is a bijection on u64: ids are unique and,
            // like real hashes, unordered with respect to arrival.
            let id = TxId((tx_seq + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let submitted = SimTime::from_nanos(
                sealed
                    .as_nanos()
                    .saturating_sub(1_000_000_000 + rng.below(20_000_000_000)),
            );
            table.insert(
                id,
                Transaction {
                    id,
                    sender: AccountId((tx_seq % 997) as u32),
                    nonce: tx_seq / 997,
                    gas_price: 1 + rng.below(50),
                    gas: 21_000,
                    size: ByteSize::from_bytes(110 + rng.below(200)),
                    submitted_at: submitted,
                    origin: NodeId(rng.below(1_000) as u32),
                },
            );
            txs.push((id, submitted));
            ids.push(id);
            tx_seq += 1;
        }
        let mut builder = BlockBuilder::new(parent, n, draw_miner(&mut rng))
            .mined_at(sealed)
            .txs(ids)
            .salt(n);
        if let Some(uncle) = pending_uncle.take() {
            builder = builder.uncles(vec![uncle]);
        }
        let block = builder.build();
        let hash = block.hash();
        tree.insert(block).expect("canonical block attaches");
        blocks.push((hash, sealed));
        if n % shape.sibling_every == 0 {
            let late = sealed + SimDuration::from_millis(200 + rng.below(800));
            let sibling = BlockBuilder::new(parent, n, draw_miner(&mut rng))
                .mined_at(late)
                .salt(n ^ 0x5151_5151)
                .build();
            let sibling_hash = sibling.hash();
            tree.insert(sibling).expect("sibling attaches");
            blocks.push((sibling_hash, late));
            pending_uncle = Some(sibling_hash);
        }
        parent = hash;
    }
    DatasetTruth {
        truth: GroundTruth {
            tree,
            txs: table,
            pool_names: pools.iter().map(|p| p.name.clone()).collect(),
            pool_shares: shares,
            interblock,
            duration: interblock * (shape.blocks + 2),
        },
        blocks,
        txs,
    }
}

/// Where a vantage spills to: `budget` is the whole campaign's, split
/// evenly over the observers as the scenario layer splits it.
fn spill_config(dir: &Path, budget: usize, vantages: usize, name: &str) -> SpillConfig {
    SpillConfig {
        dir: dir.to_path_buf(),
        budget_bytes: budget / vantages,
        prefix: format!("{}-e0000", SpillConfig::sanitize(name)),
    }
}

/// One vantage's observation stream, replayed into `log` as a geth
/// instrumented node would have recorded it: every block `receptions`
/// times (first reception a region-dependent delay after sealing), then
/// every transaction once. Returns `(block rows, tx rows)` offered.
///
/// Blocks and transactions are replayed as two passes so that a traced
/// run can time the two record paths apart; the flush points depend only
/// on the combined byte estimate, which both passes feed.
fn replay_blocks(
    seed: u64,
    vantage_index: usize,
    receptions: u32,
    truth: &DatasetTruth,
    log: &mut ObserverLog,
) -> u64 {
    let mut rng = XorShift::new(derive(seed, "replay-blocks") ^ vantage_index as u64);
    let base_ms = 40 + 35 * vantage_index as u64;
    let skew_ns = 1_500_000 * vantage_index as i64 - 3_000_000;
    for &(hash, sealed) in &truth.blocks {
        let mut at = sealed + SimDuration::from_millis(base_ms + rng.below(400));
        for r in 0..receptions {
            let kind = if (rng.next_u64() >> 63) == 0 || r == 0 {
                BlockMsgKind::FullBlock
            } else {
                BlockMsgKind::Announce
            };
            let from = NodeId(rng.below(400) as u32);
            log.record_block_msg(hash, kind, from, at.offset_by(skew_ns), at);
            at += SimDuration::from_millis(1 + rng.below(300));
        }
    }
    truth.blocks.len() as u64 * u64::from(receptions)
}

/// The transaction pass of [`replay_blocks`].
fn replay_txs(seed: u64, vantage_index: usize, truth: &DatasetTruth, log: &mut ObserverLog) -> u64 {
    let mut rng = XorShift::new(derive(seed, "replay-txs") ^ vantage_index as u64);
    let base_ms = 30 + 40 * vantage_index as u64;
    let skew_ns = 1_500_000 * vantage_index as i64 - 3_000_000;
    for &(id, submitted) in &truth.txs {
        let at = submitted + SimDuration::from_millis(base_ms + rng.below(900));
        log.record_tx(id, NodeId(rng.below(400) as u32), at.offset_by(skew_ns), at);
    }
    truth.txs.len() as u64
}

/// Records the whole dataset: one log per paper vantage, spilling under
/// `spill` (directory, campaign budget) or in memory. Returns the data
/// and the `(block, transaction)` rows offered.
pub fn record_dataset(
    seed: u64,
    shape: DatasetShape,
    truth: DatasetTruth,
    spill: Option<(&Path, usize)>,
    tr: &mut Tracer,
) -> (CampaignData, u64, u64) {
    let vantages = VantagePoint::paper_all();
    let (mut block_rows, mut tx_rows) = (0, 0);
    let mut observers = Vec::with_capacity(vantages.len());
    for (i, vantage) in vantages.iter().enumerate() {
        let mut log = match spill {
            Some((dir, budget)) => {
                ObserverLog::with_spill(spill_config(dir, budget, vantages.len(), &vantage.name))
            }
            None => ObserverLog::new(),
        };
        let s = tr.begin("measure.log.record_block");
        block_rows += replay_blocks(seed, i, shape.receptions, &truth, &mut log);
        tr.end(s);
        let s = tr.begin("measure.log.record_tx");
        tx_rows += replay_txs(seed, i, &truth, &mut log);
        tr.end(s);
        observers.push((vantage.clone(), log));
    }
    let data = CampaignData {
        observers,
        truth: truth.truth,
    };
    (data, block_rows, tx_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: DatasetShape = DatasetShape {
        blocks: 300,
        txs_per_block: 4,
        receptions: 3,
        sibling_every: 16,
    };

    fn fingerprint(seed: u64) -> u64 {
        let mut tr = Tracer::new(false, String::new());
        let truth = dataset_truth(seed, SHAPE);
        let (data, block_rows, tx_rows) = record_dataset(seed, SHAPE, truth, None, &mut tr);
        assert_eq!(block_rows, 5 * 3 * (300 + 300 / 16));
        assert_eq!(tx_rows, 5 * 4 * 300);
        data.fingerprint()
    }

    #[test]
    fn same_seed_same_dataset_different_seed_different_dataset() {
        assert_eq!(fingerprint(7), fingerprint(7));
        assert_ne!(fingerprint(7), fingerprint(8));
    }

    #[test]
    fn dataset_chain_is_canonical_with_recognized_uncles() {
        let t = dataset_truth(3, SHAPE);
        assert_eq!(t.truth.tree.head_number(), 300);
        assert_eq!(t.truth.tree.len() as u64, 1 + 300 + 300 / 16);
        let recognized = t
            .truth
            .tree
            .non_canonical_blocks()
            .filter(|b| t.truth.tree.is_recognized_uncle(b.hash()))
            .count();
        assert_eq!(recognized as u64, 300 / 16);
    }

    #[test]
    fn scripts_repeat_per_seed_and_differ_across_seeds() {
        let d = SimDuration::from_secs(120);
        for (a, b) in dynamics_scripts(1, 60, d)
            .iter()
            .zip(dynamics_scripts(1, 60, d).iter())
        {
            assert_eq!(a.1, b.1, "{}", a.0);
        }
        let (one, two) = (dynamics_scripts(1, 60, d), dynamics_scripts(2, 60, d));
        assert_eq!(one[0].1, two[0].1, "static is seedless");
        assert_ne!(one[1].1, two[1].1);
        assert_ne!(one[2].1, two[2].1);
        assert_eq!(one[1].1.entries().len(), 12, "six nodes down and up");
        for (_, script) in &one {
            // Ordinary nodes are numbered first, so a tiny world holds them all.
            script.validate(60, 1).expect("script addresses the world");
        }
    }

    #[test]
    fn scenarios_take_their_seed_from_the_benchmark_seed() {
        assert_eq!(small_scenario(5).seed, small_scenario(5).seed);
        assert_ne!(small_scenario(5).seed, small_scenario(6).seed);
        assert_ne!(small_scenario(5).seed, planet_scenario(5).seed);
    }
}
