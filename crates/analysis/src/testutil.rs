//! Shared builders of synthetic campaigns with hand-computable properties.

use ethmeter_chain::block::BlockBuilder;
use ethmeter_chain::tree::BlockTree;
use ethmeter_chain::tx::Transaction;
use ethmeter_measure::{BlockMsgKind, CampaignData, GroundTruth, ObserverLog, VantagePoint};
use ethmeter_types::{
    AccountId, BlockHash, ByteSize, FxHashMap, NodeId, PoolId, SimDuration, SimTime, TxId,
};

/// Number of canonical blocks the synthetic campaigns build.
pub(crate) const BLOCKS: usize = 20;

/// Mean inter-block time used by the builders.
pub(crate) fn interblock() -> SimDuration {
    SimDuration::from_secs_f64(13.3)
}

/// Builds a linear 20-block chain, alternating miners pool-0 ("Ethermine")
/// and pool-1 ("Sparkpool"), with blocks sealed 13.3s apart.
pub(crate) fn linear_tree() -> (BlockTree, Vec<BlockHash>) {
    let mut tree = BlockTree::new();
    let mut hashes = Vec::new();
    let mut parent = tree.genesis_hash();
    for i in 0..BLOCKS as u64 {
        let block = BlockBuilder::new(parent, i + 1, PoolId((i % 2) as u16))
            .mined_at(SimTime::ZERO + interblock() * (i + 1))
            .salt(i)
            .build();
        parent = block.hash();
        hashes.push(parent);
        tree.insert(block).expect("linear insert");
    }
    (tree, hashes)
}

/// Ground truth around a tree.
pub(crate) fn truth(tree: BlockTree, txs: FxHashMap<TxId, Transaction>) -> GroundTruth {
    GroundTruth {
        tree,
        txs,
        pool_names: vec!["Ethermine".into(), "Sparkpool".into()],
        pool_shares: vec![0.55, 0.45],
        interblock: interblock(),
        duration: interblock() * (BLOCKS as u64 + 1),
    }
}

/// A campaign where every block is first observed by the EA observer at
/// its sealing time and reaches the other observers after the given
/// per-observer offsets (ms), ordered [EA, NA, WE, CE].
pub(crate) fn campaign_with_block_spread(offsets_ms: &[i64; 4]) -> CampaignData {
    campaign_with_block_spread_and_skew(offsets_ms, &[0, 0, 0, 0])
}

/// Like [`campaign_with_block_spread`], with per-observer clock offsets
/// (ns) applied to the local timestamps.
pub(crate) fn campaign_with_block_spread_and_skew(
    offsets_ms: &[i64; 4],
    skew_ns: &[i64; 4],
) -> CampaignData {
    let (tree, hashes) = linear_tree();
    // Observer order: EA, NA, WE, CE (EA first to make it the winner).
    let vantages = [
        VantagePoint {
            name: "EA".into(),
            region: ethmeter_types::Region::EasternAsia,
            peer_target: 400,
            default_peers: false,
        },
        VantagePoint {
            name: "NA".into(),
            region: ethmeter_types::Region::NorthAmerica,
            peer_target: 400,
            default_peers: false,
        },
        VantagePoint {
            name: "WE".into(),
            region: ethmeter_types::Region::WesternEurope,
            peer_target: 400,
            default_peers: false,
        },
        VantagePoint {
            name: "CE".into(),
            region: ethmeter_types::Region::CentralEurope,
            peer_target: 400,
            default_peers: false,
        },
    ];
    let mut observers = Vec::new();
    for (oi, v) in vantages.into_iter().enumerate() {
        let mut log = ObserverLog::new();
        for (bi, &hash) in hashes.iter().enumerate() {
            let sealed = SimTime::ZERO + interblock() * (bi as u64 + 1);
            let true_arrival = sealed.offset_by(offsets_ms[oi] * 1_000_000);
            let local = true_arrival.offset_by(skew_ns[oi]);
            log.record_block_msg(
                hash,
                BlockMsgKind::FullBlock,
                NodeId(1),
                local,
                true_arrival,
            );
        }
        observers.push((v, log));
    }
    CampaignData {
        observers,
        truth: truth(tree, FxHashMap::default()),
    }
}

/// Builds a transaction committed in the block at `height` (1-based) with
/// the given sender/nonce, submitted at `submitted`.
pub(crate) fn tx(id: u64, sender: u32, nonce: u64, submitted: SimTime) -> Transaction {
    Transaction {
        id: TxId(id),
        sender: AccountId(sender),
        nonce,
        gas_price: 1,
        gas: 21_000,
        size: ByteSize::from_bytes(110),
        submitted_at: submitted,
        origin: NodeId(0),
    }
}
