//! The complete dataset of one measurement campaign.

use std::fmt;

use ethmeter_chain::tree::BlockTree;
use ethmeter_chain::tx::Transaction;
use ethmeter_types::{BlockHash, FxHashMap, PoolId, SimDuration, TxId};

use crate::csv;
use crate::log::{BlockRecord, ObserverLog, TxRecord};
use crate::spill::Row;
use crate::vantage::VantagePoint;

/// Simulator-side ground truth. The real experiment approximates these
/// through Etherscan cross-checks; the simulator knows them exactly, which
/// is what lets the test suite verify the analysis pipeline end to end.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Every block produced during the campaign (main chain and forks).
    pub tree: BlockTree,
    /// Every transaction submitted (keyed through `FxHasher64`; the
    /// fingerprint and every exporter sort before iterating).
    pub txs: FxHashMap<TxId, Transaction>,
    /// Pool names by id (for report labels).
    pub pool_names: Vec<String>,
    /// Pool hash-power shares by id.
    pub pool_shares: Vec<f64>,
    /// The configured mean inter-block time.
    pub interblock: SimDuration,
    /// Campaign duration.
    pub duration: SimDuration,
}

impl GroundTruth {
    /// The display name of a pool (falls back to the raw id).
    pub fn pool_name(&self, pool: PoolId) -> String {
        self.pool_names
            .get(pool.index())
            .cloned()
            .unwrap_or_else(|| pool.to_string())
    }

    /// The hash-power share of a pool (0 if unknown).
    pub fn pool_share(&self, pool: PoolId) -> f64 {
        self.pool_shares.get(pool.index()).copied().unwrap_or(0.0)
    }
}

/// One campaign's observers plus ground truth — the input to every
/// analyzer in `ethmeter-analysis`.
#[derive(Debug, Clone)]
pub struct CampaignData {
    /// Observer logs, in vantage order.
    pub observers: Vec<(VantagePoint, ObserverLog)>,
    /// What actually happened.
    pub truth: GroundTruth,
}

impl CampaignData {
    /// The main (high-degree) observers — the paper's four — excluding the
    /// default-peers redundancy observer.
    pub fn main_observers(&self) -> impl Iterator<Item = &(VantagePoint, ObserverLog)> + '_ {
        self.observers.iter().filter(|(v, _)| !v.default_peers)
    }

    /// The default-peers observer, if the campaign deployed one.
    pub fn redundancy_observer(&self) -> Option<&(VantagePoint, ObserverLog)> {
        self.observers.iter().find(|(v, _)| v.default_peers)
    }

    /// Looks an observer up by name.
    #[cfg(test)]
    pub fn observer(&self, name: &str) -> Option<&(VantagePoint, ObserverLog)> {
        self.observers.iter().find(|(v, _)| v.name == name)
    }

    /// Visits every distinct block observed by at least one main
    /// observer, in ascending hash order, together with the observing
    /// records as `(main-observer index, record)` pairs (ascending
    /// observer index).
    ///
    /// This is the one iteration API the report families consume: it is
    /// a k-way merge-join over the observers'
    /// [`ObserverLog::scan_blocks`] streams, so spilled and in-memory
    /// logs read identically and no caller ever materializes the raw
    /// rows — memory is bounded by the scans' fixed chunked read-ahead,
    /// not by campaign size.
    pub fn for_each_main_block<F>(&self, f: F)
    where
        F: FnMut(BlockHash, &[(usize, BlockRecord)]),
    {
        merge_join(self.main_observers().map(|(_, log)| log.scan_blocks()), f);
    }

    /// Visits every distinct transaction observed by at least one main
    /// observer, in ascending id order, with `(main-observer index,
    /// record)` pairs — the transaction-side twin of
    /// [`CampaignData::for_each_main_block`], streaming through
    /// [`ObserverLog::scan_txs`].
    pub fn for_each_main_tx<F>(&self, f: F)
    where
        F: FnMut(TxId, &[(usize, TxRecord)]),
    {
        merge_join(self.main_observers().map(|(_, log)| log.scan_txs()), f);
    }

    /// A stable 64-bit digest of the entire dataset: every observer log
    /// (through its canonical CSV serialization) plus the full ground
    /// truth (all blocks, all transactions, the canonical chain, and the
    /// campaign parameters).
    ///
    /// Two campaigns fingerprint equal iff they are observationally
    /// identical, so a pinned fingerprint turns "same seed ⇒ same run"
    /// into a one-integer regression test. The digest is independent of
    /// platform, build profile, and in-memory layout (hash-map iteration
    /// order never reaches it: every collection is sorted into a canonical
    /// order first).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.observers.len() as u64);
        for (vantage, log) in &self.observers {
            h.write_bytes(vantage.name.as_bytes());
            h.write_u64(u64::from(vantage.default_peers));
            // As `write_bytes(blocks_to_csv(log))`, without the `String`.
            h.write_text(|out| csv::write_blocks_csv(out, log));
            h.write_text(|out| csv::write_txs_csv(out, log));
        }

        let tree = &self.truth.tree;
        h.write_u64(tree.len() as u64);
        for number in 0..=tree.head_number() {
            h.write_u64(
                tree.canonical_hash(number)
                    .expect("canonical chain is contiguous")
                    .raw(),
            );
        }
        let mut blocks: Vec<_> = tree.all_blocks().collect();
        blocks.sort_by_key(|b| (b.number(), b.hash()));
        for b in blocks {
            h.write_u64(b.hash().raw());
            h.write_u64(b.parent().raw());
            h.write_u64(b.number());
            h.write_u64(u64::from(b.miner().raw()));
            h.write_u64(b.mined_at().as_nanos());
            for t in b.txs() {
                h.write_u64(t.raw());
            }
            for u in b.uncles() {
                h.write_u64(u.raw());
            }
        }

        let mut txs: Vec<&Transaction> = self.truth.txs.values().collect();
        txs.sort_by_key(|t| t.id);
        h.write_u64(txs.len() as u64);
        for t in txs {
            h.write_u64(t.id.raw());
            h.write_u64(u64::from(t.sender.raw()));
            h.write_u64(t.nonce);
            h.write_u64(t.gas_price);
            h.write_u64(t.gas);
            h.write_u64(t.size.as_bytes());
            h.write_u64(t.submitted_at.as_nanos());
            h.write_u64(u64::from(t.origin.raw()));
        }

        for name in &self.truth.pool_names {
            h.write_bytes(name.as_bytes());
        }
        for &share in &self.truth.pool_shares {
            h.write_u64(share.to_bits());
        }
        h.write_u64(self.truth.interblock.as_nanos());
        h.write_u64(self.truth.duration.as_nanos());
        h.finish()
    }
}

/// Joins ascending `scans` by key: `f` gets each key any scan yields,
/// once, with the `(scan index, row)` pairs that carry it (ascending scan
/// index).
fn merge_join<R: Row>(
    scans: impl Iterator<Item = impl Iterator<Item = R>>,
    mut f: impl FnMut(R::Key, &[(usize, R)]),
) {
    let mut scans: Vec<_> = scans.map(Iterator::peekable).collect();
    let mut group = Vec::new();
    while let Some(min) = scans.iter_mut().filter_map(|s| s.peek().map(R::key)).min() {
        group.clear();
        for (i, s) in scans.iter_mut().enumerate() {
            if let Some(r) = s.next_if(|r| r.key() == min) {
                group.push((i, r));
            }
        }
        f(min, &group);
    }
}

/// Streaming FNV-1a (64-bit): tiny, dependency-free, and byte-order
/// independent — exactly stable enough for golden fingerprints.
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Length terminator: distinguishes ["ab","c"] from ["a","bc"].
    fn terminate(&mut self, len: u64) {
        self.0 ^= len;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.absorb(bytes);
        self.terminate(bytes.len() as u64);
    }

    /// Hashes the text `write` emits as one field — the same digest as
    /// [`Fnv64::write_bytes`] over the whole text, without building it.
    fn write_text(&mut self, write: impl FnOnce(&mut TextField<'_>) -> fmt::Result) {
        let mut field = TextField { hash: self, len: 0 };
        write(&mut field).expect("hashing cannot fail");
        let len = field.len;
        self.terminate(len);
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The field [`Fnv64::write_text`] is writing: bytes are hashed as they
/// come and counted for the length terminator.
struct TextField<'a> {
    hash: &'a mut Fnv64,
    len: u64,
}

impl fmt::Write for TextField<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.hash.absorb(s.as_bytes());
        self.len += s.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_campaign() -> CampaignData {
        CampaignData {
            observers: VantagePoint::paper_all()
                .into_iter()
                .map(|v| (v, ObserverLog::new()))
                .collect(),
            truth: GroundTruth {
                tree: BlockTree::new(),
                txs: FxHashMap::default(),
                pool_names: vec!["Ethermine".into()],
                pool_shares: vec![0.2532],
                interblock: SimDuration::from_secs_f64(13.3),
                duration: SimDuration::from_hours(1),
            },
        }
    }

    #[test]
    fn observer_selection() {
        let c = empty_campaign();
        assert_eq!(c.main_observers().count(), 4);
        assert!(c.redundancy_observer().is_some());
        assert!(c.observer("EA").is_some());
        assert!(c.observer("nope").is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = empty_campaign();
        let b = empty_campaign();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same data, same digest");

        // Any observed message changes the digest.
        let mut c = empty_campaign();
        c.observers[0].1.record_block_msg(
            ethmeter_types::BlockHash(7),
            crate::BlockMsgKind::FullBlock,
            ethmeter_types::NodeId(1),
            ethmeter_types::SimTime::from_secs(1),
            ethmeter_types::SimTime::from_secs(1),
        );
        assert_ne!(a.fingerprint(), c.fingerprint());

        // So does any ground-truth change.
        let mut d = empty_campaign();
        d.truth.pool_shares[0] += 1e-9;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn streamed_csv_hashes_like_the_rendered_text() {
        use ethmeter_types::{NodeId, SimTime};
        let mut log = ObserverLog::new();
        for i in 0..50u64 {
            let t = SimTime::from_nanos(1_000 * (50 - i));
            log.record_block_msg(
                BlockHash(i % 7),
                crate::BlockMsgKind::Announce,
                NodeId(1),
                t,
                t,
            );
            log.record_tx(TxId(i), NodeId(2), t, t);
        }
        let mut rendered = Fnv64::new();
        rendered.write_bytes(csv::blocks_to_csv(&log).as_bytes());
        rendered.write_bytes(csv::txs_to_csv(&log).as_bytes());
        let mut streamed = Fnv64::new();
        streamed.write_text(|out| csv::write_blocks_csv(out, &log));
        streamed.write_text(|out| csv::write_txs_csv(out, &log));
        assert_eq!(streamed.finish(), rendered.finish());
    }

    #[test]
    fn fingerprint_independent_of_tx_map_layout() {
        use ethmeter_chain::tx::Transaction;
        use ethmeter_types::{AccountId, ByteSize, NodeId, SimTime};
        let tx = |id: u64| Transaction {
            id: TxId(id),
            sender: AccountId(1),
            nonce: 0,
            gas_price: 3,
            gas: 21_000,
            size: ByteSize::from_bytes(180),
            submitted_at: SimTime::ZERO,
            origin: NodeId(0),
        };
        let mut a = empty_campaign();
        let mut b = empty_campaign();
        for id in 1..=64 {
            a.truth.txs.insert(TxId(id), tx(id));
        }
        for id in (1..=64).rev() {
            b.truth.txs.insert(TxId(id), tx(id));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn group_scans_join_main_observers_by_key() {
        use ethmeter_types::{NodeId, SimTime};
        let mut c = empty_campaign();
        let t = SimTime::from_secs(1);
        // Main observers are indices 0..4; index 4 is the redundancy
        // observer and must never appear in a group.
        c.observers[0].1.record_block_msg(
            BlockHash(9),
            crate::BlockMsgKind::Announce,
            NodeId(1),
            t,
            t,
        );
        c.observers[0].1.record_block_msg(
            BlockHash(3),
            crate::BlockMsgKind::FullBlock,
            NodeId(1),
            t,
            t,
        );
        c.observers[2].1.record_block_msg(
            BlockHash(3),
            crate::BlockMsgKind::FullBlock,
            NodeId(2),
            t,
            t,
        );
        c.observers[4].1.record_block_msg(
            BlockHash(3),
            crate::BlockMsgKind::FullBlock,
            NodeId(3),
            t,
            t,
        );
        let mut seen = Vec::new();
        c.for_each_main_block(|hash, group| {
            seen.push((hash, group.iter().map(|(i, _)| *i).collect::<Vec<_>>()));
        });
        assert_eq!(
            seen,
            vec![(BlockHash(3), vec![0, 2]), (BlockHash(9), vec![0])]
        );

        c.observers[1].1.record_tx(TxId(5), NodeId(1), t, t);
        c.observers[3].1.record_tx(TxId(5), NodeId(2), t, t);
        c.observers[3].1.record_tx(TxId(2), NodeId(2), t, t);
        let mut seen = Vec::new();
        c.for_each_main_tx(|id, group| {
            seen.push((id, group.iter().map(|(i, _)| *i).collect::<Vec<_>>()));
        });
        assert_eq!(seen, vec![(TxId(2), vec![3]), (TxId(5), vec![1, 3])]);
    }

    #[test]
    fn pool_label_fallback() {
        let c = empty_campaign();
        assert_eq!(c.truth.pool_name(PoolId(0)), "Ethermine");
        assert_eq!(c.truth.pool_name(PoolId(9)), "pool-9");
        assert_eq!(c.truth.pool_share(PoolId(0)), 0.2532);
        assert_eq!(c.truth.pool_share(PoolId(9)), 0.0);
    }
}
