//! Observer logs: what one instrumented node recorded.
//!
//! Memory note: the paper kept 600 GB of raw per-message logs. We keep the
//! same information in aggregated form — per block: the first reception
//! (time/kind/peer) plus reception counters by kind; per transaction: the
//! first reception. This is lossless for every analysis in §III and keeps
//! month-scale simulations in memory. Raw per-message streams can be
//! reconstructed for small runs via the `csv` module's record export.
//!
//! A log made by [`ObserverLog::with_spill`] drains its maps into sorted
//! segments (`spill`) when they pass half the budget. Only transactions
//! keep a filter of the keys spilled, so a tx id is recorded once; a
//! block received again after a flush starts a delta record that every
//! scan folds back (`BlockRecord::fold`).

use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use ethmeter_types::{BlockHash, BuildFxHasher, FxHashMap, NodeId, SimTime, TxId};

use crate::spill::{self, Row, Segment, SpillConfig};

/// How a block reached the observer (Table II's two message families).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockMsgKind {
    /// `NewBlockHashes` — hash-only announcement.
    Announce,
    /// `NewBlock` or `BlockBody` — header + body ("whole block").
    FullBlock,
}

/// Aggregated reception record of one block at one observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRecord {
    /// The block.
    pub hash: BlockHash,
    /// First reception, observer's local (NTP-skewed) clock.
    pub first_local: SimTime,
    /// First reception, true simulation clock (ground truth; the real
    /// experiment does not have this column).
    pub first_true: SimTime,
    /// Kind of the first reception.
    pub first_kind: BlockMsgKind,
    /// Peer that delivered the first message.
    pub first_from: NodeId,
    /// Total announcements received (including the first, if it was one).
    pub announces: u32,
    /// Total whole-block messages received.
    pub full_blocks: u32,
}

impl BlockRecord {
    /// All receptions of this block.
    pub fn total_receptions(&self) -> u32 {
        self.announces + self.full_blocks
    }
}

/// First-reception record of one transaction at one observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRecord {
    /// The transaction.
    pub id: TxId,
    /// First reception, local clock.
    pub first_local: SimTime,
    /// First reception, true clock.
    pub first_true: SimTime,
    /// Delivering peer (the observer itself for locally submitted txs).
    pub from: NodeId,
    /// Sequence number of this first-reception among the observer's tx
    /// arrivals (0-based) — makes out-of-order analysis independent of
    /// timestamp ties.
    pub arrival_seq: u64,
}

/// Estimated resident bytes of one block map entry (record + key + hash
/// table overhead) — the unit of the spill budget accounting.
pub const BLOCK_ENTRY_BYTES: usize = 64;

/// Estimated resident bytes of one tx map entry.
pub const TX_ENTRY_BYTES: usize = 56;

/// Guard slots per spilled key: with one bit per key, about
/// `1 - e^(-1/4)`, 22 %, of the misses still reach the search, for
/// 0.5 bytes per key beside the filter's 8.
const GUARD_BITS_PER_KEY: usize = 4;

/// The distinct tx ids a log has spilled, and a guard in front of them.
/// Recording probes mostly keys never spilled (every new tx id); a miss
/// the guard catches costs one hash and one load, not a binary search
/// over every spilled key.
#[derive(Debug, Clone)]
struct SpilledKeys<K> {
    /// Ascending distinct keys.
    keys: Vec<K>,
    /// Hashed presence bits over `keys`, [`GUARD_BITS_PER_KEY`] slots per
    /// key (rounded up to whole words), rebuilt at each merge: every
    /// spilled key's bit is set, so a clear bit proves a key was never
    /// spilled.
    guard: Vec<u64>,
}

impl<K> Default for SpilledKeys<K> {
    fn default() -> Self {
        SpilledKeys {
            keys: Vec::new(),
            guard: Vec::new(),
        }
    }
}

impl<K: Ord + Copy + Hash> SpilledKeys<K> {
    /// Merges the ascending `new` keys in and rebuilds the guard.
    fn merge(&mut self, new: impl ExactSizeIterator<Item = K>) {
        merge_keys(&mut self.keys, new);
        self.guard.clear();
        self.guard
            .resize((self.keys.len() * GUARD_BITS_PER_KEY).div_ceil(64), 0);
        for &key in &self.keys {
            let bit = self.guard_bit(key);
            self.guard[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// `key`'s slot in the guard: its Fx hash scaled onto the slots by a
    /// multiply-shift, so the hash's high bits pick the slot and
    /// sequential ids spread like mixed hashes.
    fn guard_bit(&self, key: K) -> usize {
        let hash = BuildFxHasher::default().hash_one(key);
        let slots = (self.guard.len() * 64) as u128;
        ((u128::from(hash) * slots) >> 64) as usize
    }

    /// False only for a key never spilled.
    fn guard_passes(&self, key: K) -> bool {
        let bit = self.guard_bit(key);
        // No guard words: nothing spilled.
        self.guard
            .get(bit / 64)
            .is_some_and(|word| word >> (bit % 64) & 1 == 1)
    }

    fn contains(&self, key: K) -> bool {
        self.guard_passes(key) && self.keys.binary_search(&key).is_ok()
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Every row of one kind in ascending key order: `segments` merged with
/// the `live` map.
fn scan<R: Row>(live: &FxHashMap<R::Key, R>, segments: &[Arc<Segment<R>>]) -> spill::Merge<R> {
    let mut mem: Vec<R> = live.values().copied().collect();
    mem.sort_unstable_by_key(R::key);
    spill::merge(segments, mem)
}

/// Drains `live` into one new sorted segment appended to `segments`
/// (none if it is empty); returns the rows written.
fn flush_into<R: Row>(
    config: &SpillConfig,
    live: &mut FxHashMap<R::Key, R>,
    segments: &mut Vec<Arc<Segment<R>>>,
) -> Vec<R> {
    let mut rows: Vec<R> = live.drain().map(|(_, r)| r).collect();
    if !rows.is_empty() {
        rows.sort_unstable_by_key(R::key);
        segments.push(Segment::write(config, segments.len(), &rows));
    }
    rows
}

/// Everything one observer recorded.
#[derive(Debug, Clone, Default)]
pub struct ObserverLog {
    /// Keyed through `FxHasher64`: recording happens once per delivered
    /// message at every observer, and block/tx ids are already well-mixed
    /// 64-bit values, so the default SipHash is pure overhead. Nothing
    /// iterates these maps for output without sorting first.
    blocks: FxHashMap<BlockHash, BlockRecord>,
    txs: FxHashMap<TxId, TxRecord>,
    tx_arrivals: u64,
    /// `Some` iff this log spills to disk once `record_bytes()` crosses
    /// half the budget. The flush decision is a pure function of the
    /// record stream (estimated byte counts), never of allocator state,
    /// so segment boundaries are deterministic.
    spill: Option<SpillConfig>,
    /// The immutable segments flushed so far, per kind, shared by
    /// reference with any clones (e.g. extracted campaign data). Empty
    /// until the first flush.
    block_segments: Vec<Arc<Segment<BlockRecord>>>,
    tx_segments: Vec<Arc<Segment<TxRecord>>>,
    /// The ids in `tx_segments`: a tx already spilled is a duplicate, so
    /// `arrival_seq` is assigned as in an unspilled log. Blocks keep no
    /// such filter: a block received again after a flush starts a delta
    /// record that the scan folds back (`BlockRecord::fold`).
    spilled_txs: SpilledKeys<TxId>,
    /// High-water mark of [`ObserverLog::retained_bytes`].
    peak_bytes: usize,
}

impl ObserverLog {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty log that spills under `config`'s budget.
    pub fn with_spill(config: SpillConfig) -> Self {
        ObserverLog {
            spill: Some(config),
            ..Self::default()
        }
    }

    /// True if this log spills to disk under a budget.
    #[cfg(test)]
    pub fn is_spilling(&self) -> bool {
        self.spill.is_some()
    }

    /// Estimated resident bytes of the live record maps — the quantity
    /// the spill budget bounds.
    fn record_bytes(&self) -> usize {
        self.blocks.len() * BLOCK_ENTRY_BYTES + self.txs.len() * TX_ENTRY_BYTES
    }

    /// Estimated resident bytes of everything this log retains: map
    /// capacity plus the spilled tx-id filter, charged at 8 bytes per
    /// spilled id. The filter is what exact tx deduplication across
    /// segments needs; it is *not* counted against the flush budget
    /// (flushing cannot shrink it). Its guard, half a byte per id, is
    /// not charged, so the estimate stays comparable across versions.
    pub fn retained_bytes(&self) -> usize {
        self.blocks.capacity() * BLOCK_ENTRY_BYTES
            + self.txs.capacity() * TX_ENTRY_BYTES
            + self.spilled_txs.len() * 8
    }

    /// High-water mark of [`ObserverLog::retained_bytes`] over this log's
    /// life.
    pub fn peak_mem_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of segments flushed to disk so far.
    pub fn spilled_segments(&self) -> usize {
        self.block_segments.len() + self.tx_segments.len()
    }

    /// Post-record bookkeeping: track the heap high-water mark, then
    /// flush if the live maps crossed *half* the budget. Half, because
    /// the budget bounds resident bytes and [`ObserverLog::retained_bytes`]
    /// counts map *capacity*, which can sit at ~2x the live length right
    /// after a hash-map doubling — draining at `budget / 2` keeps the
    /// capacity peak itself within the budget, not within 2x of it.
    fn after_record(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.retained_bytes());
        if let Some(config) = &self.spill {
            if self.record_bytes() >= (config.budget_bytes / 2).max(1) {
                self.flush();
            }
        }
    }

    /// Drains the live maps into one new sorted columnar segment each
    /// (skipping empty maps) under the configured spill dir, and merges
    /// the spilled tx ids into their filter.
    fn flush(&mut self) {
        let config = self.spill.as_ref().expect("flush requires spill config");
        flush_into(config, &mut self.blocks, &mut self.block_segments);
        let flushed = flush_into(config, &mut self.txs, &mut self.tx_segments);
        if !flushed.is_empty() {
            self.spilled_txs.merge(flushed.iter().map(|r| r.id));
        }
    }

    /// Records a block-bearing or announcement message.
    pub fn record_block_msg(
        &mut self,
        hash: BlockHash,
        kind: BlockMsgKind,
        from: NodeId,
        local: SimTime,
        true_time: SimTime,
    ) {
        let entry = self.blocks.entry(hash).or_insert_with(|| BlockRecord {
            hash,
            first_local: local,
            first_true: true_time,
            first_kind: kind,
            first_from: from,
            announces: 0,
            full_blocks: 0,
        });
        match kind {
            BlockMsgKind::Announce => entry.announces += 1,
            BlockMsgKind::FullBlock => entry.full_blocks += 1,
        }
        // Defensive: receptions may be recorded out of true-time order only
        // if the driver misbehaves; keep the earliest. Under spill, a
        // reception after a flush starts a *delta* record; the scan merge
        // folds deltas back under this same earliest-wins rule.
        if true_time < entry.first_true {
            entry.first_true = true_time;
            entry.first_local = local;
            entry.first_kind = kind;
            entry.first_from = from;
        }
        self.after_record();
    }

    /// Records a transaction reception (only the first one is kept).
    pub fn record_tx(&mut self, id: TxId, from: NodeId, local: SimTime, true_time: SimTime) {
        let Entry::Vacant(slot) = self.txs.entry(id) else {
            return;
        };
        // Already flushed to a segment: still a duplicate. A log that has
        // not spilled has nothing to probe.
        if !self.tx_segments.is_empty() && self.spilled_txs.contains(id) {
            return;
        }
        slot.insert(TxRecord {
            id,
            first_local: local,
            first_true: true_time,
            from,
            arrival_seq: self.tx_arrivals,
        });
        self.tx_arrivals += 1;
        self.after_record();
    }

    /// Number of distinct blocks observed: the live map's length when no
    /// block has spilled, else the merged scan's row count (a block can
    /// sit in several segments and the live map at once).
    pub fn block_count(&self) -> usize {
        if self.block_segments.is_empty() {
            self.blocks.len()
        } else {
            self.scan_blocks().count()
        }
    }

    /// Number of distinct transactions observed (across segments and the
    /// live map; ids are globally deduplicated, so segment rows are
    /// disjoint).
    pub fn tx_count(&self) -> usize {
        self.spilled_txs.len() + self.txs.len()
    }

    /// Streams every block record in ascending hash order, merging
    /// spilled segments with the live map. This is **the** iteration API:
    /// spilled and unspilled logs yield the bit-identical sequence for
    /// the same record stream, so analyses built on it never see the
    /// difference.
    pub fn scan_blocks(&self) -> impl Iterator<Item = BlockRecord> {
        scan(&self.blocks, &self.block_segments)
    }

    /// Streams every transaction record in ascending id order, merging
    /// spilled segments with the live map (counterpart of
    /// [`ObserverLog::scan_blocks`]).
    pub fn scan_txs(&self) -> impl Iterator<Item = TxRecord> {
        scan(&self.txs, &self.tx_segments)
    }

    /// Every transaction record in storage order: the spilled segments
    /// back to back, then the live map, in no key order. The same rows
    /// as [`ObserverLog::scan_txs`], since tx ids are spilled at most
    /// once and never live and spilled at once.
    pub(crate) fn txs_unordered(&self) -> impl Iterator<Item = TxRecord> + '_ {
        // detlint::allow(unordered-iter, reason = "the one caller, csv::tx_rows, stores each row in slot arrival_seq and falls back to the ordered scan unless the seqs are a permutation, so no output depends on this order")
        spill::back_to_back(&self.tx_segments).chain(self.txs.values().copied())
    }
}

/// Merges the ascending `new` keys into the ascending `filter`, keeping
/// one copy of a key present in both.
/// The result is allocated once at its bound, so the filter carries no
/// doubling slack.
fn merge_keys<K: Ord + Copy>(filter: &mut Vec<K>, new: impl ExactSizeIterator<Item = K>) {
    let mut merged = Vec::with_capacity(filter.len() + new.len());
    let mut old = filter.iter().copied().peekable();
    for k in new {
        while let Some(o) = old.next_if(|&o| o < k) {
            merged.push(o);
        }
        old.next_if_eq(&k);
        merged.push(k);
    }
    merged.extend(old);
    *filter = merged;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn spill_cfg(tag: &str, budget: usize) -> SpillConfig {
        SpillConfig {
            dir: std::env::temp_dir().join(format!("ethmeter-log-test-{tag}")),
            budget_bytes: budget,
            prefix: format!("obs-{tag}"),
        }
    }

    /// One recording call of the test stream.
    enum Rec {
        Block(BlockHash, BlockMsgKind, NodeId, SimTime, SimTime),
        Tx(TxId, NodeId, SimTime, SimTime),
    }

    /// Step `i` of a deterministic mixed record stream.
    fn stream(i: u64) -> [Rec; 3] {
        let kind = if i % 3 == 0 {
            BlockMsgKind::Announce
        } else {
            BlockMsgKind::FullBlock
        };
        [
            Rec::Block(
                BlockHash(i % 97),
                kind,
                NodeId((i % 11) as u32),
                t(i + 1),
                t(i),
            ),
            Rec::Tx(TxId(i % 301), NodeId((i % 7) as u32), t(i + 2), t(i + 1)),
            // Duplicate tx receptions must be ignored on both backends.
            Rec::Tx(TxId(i % 301), NodeId(99), t(0), t(0)),
        ]
    }

    fn apply(log: &mut ObserverLog, rec: &Rec) {
        match *rec {
            Rec::Block(h, kind, from, local, true_time) => {
                log.record_block_msg(h, kind, from, local, true_time)
            }
            Rec::Tx(id, from, local, true_time) => log.record_tx(id, from, local, true_time),
        }
    }

    /// Replays the first `n` steps of the test stream into `log`.
    fn replay(log: &mut ObserverLog, n: u64) {
        for i in 0..n {
            for rec in &stream(i) {
                apply(log, rec);
            }
        }
    }

    fn map_bytes(log: &ObserverLog) -> usize {
        log.blocks.capacity() * BLOCK_ENTRY_BYTES + log.txs.capacity() * TX_ENTRY_BYTES
    }

    /// The filter charge recomputed from the segments on disk: 8 bytes
    /// per tx row, none for block rows.
    fn segment_bytes(log: &ObserverLog) -> usize {
        8 * log.tx_segments.iter().map(|s| s.rows()).sum::<usize>()
    }

    #[test]
    fn spilled_logs_agree_with_in_memory_at_every_budget() {
        // 300 steps keep a 1-byte budget (a flush per record) under the
        // open-file limit when a scan opens every segment at once.
        let n = 300;
        let mut mem = ObserverLog::new();
        replay(&mut mem, n);
        let mem_blocks: Vec<BlockRecord> = mem.scan_blocks().collect();
        let mem_txs: Vec<TxRecord> = mem.scan_txs().collect();
        for budget in [1, 57, 512, 4_096, 1 << 30] {
            let mut log = ObserverLog::with_spill(spill_cfg(&format!("agree-{budget}"), budget));
            // The high-water mark samples retained bytes after each
            // insert and before any flush it triggers.
            let mut peak = 0;
            for i in 0..n {
                for rec in &stream(i) {
                    let segments_before = segment_bytes(&log);
                    let txs_before = log.tx_count();
                    apply(&mut log, rec);
                    if matches!(rec, Rec::Block(..)) || log.tx_count() > txs_before {
                        peak = peak.max(map_bytes(&log) + segments_before);
                    }
                    assert_eq!(
                        log.retained_bytes(),
                        map_bytes(&log) + segment_bytes(&log),
                        "budget {budget}, step {i}"
                    );
                }
            }
            assert_eq!(log.peak_mem_bytes(), peak, "budget {budget}");
            if log.spilled_segments() == 0 {
                assert_eq!(log.peak_mem_bytes(), mem.peak_mem_bytes());
            }
            // Same rows in the same scan order, `arrival_seq` included.
            let blocks: Vec<BlockRecord> = log.scan_blocks().collect();
            let txs: Vec<TxRecord> = log.scan_txs().collect();
            assert_eq!(blocks, mem_blocks, "budget {budget}");
            assert_eq!(txs, mem_txs, "budget {budget}");
            assert_eq!(log.block_count(), mem.block_count(), "budget {budget}");
            assert_eq!(log.block_count(), blocks.len(), "budget {budget}");
            assert_eq!(log.tx_count(), mem.tx_count(), "budget {budget}");
        }
    }

    #[test]
    fn key_merge_keeps_one_ascending_copy() {
        let mut filter = vec![2u64, 5, 9];
        merge_keys(&mut filter, [1u64, 5, 7, 12].into_iter());
        assert_eq!(filter, vec![1, 2, 5, 7, 9, 12]);
        merge_keys(&mut filter, std::iter::empty());
        assert_eq!(filter, vec![1, 2, 5, 7, 9, 12]);
        let mut empty: Vec<u64> = Vec::new();
        merge_keys(&mut empty, [3u64, 4].into_iter());
        assert_eq!(empty, vec![3, 4]);
    }

    #[test]
    fn spilled_log_scans_bit_identical_to_in_memory() {
        let mut mem = ObserverLog::new();
        replay(&mut mem, 2_000);
        // A budget this small forces many flushes mid-stream.
        let mut spilled = ObserverLog::with_spill(spill_cfg("ident", 2_048));
        replay(&mut spilled, 2_000);
        assert!(spilled.spilled_segments() > 2, "budget must actually spill");
        let a: Vec<BlockRecord> = mem.scan_blocks().collect();
        let b: Vec<BlockRecord> = spilled.scan_blocks().collect();
        assert_eq!(a, b);
        let at: Vec<TxRecord> = mem.scan_txs().collect();
        let bt: Vec<TxRecord> = spilled.scan_txs().collect();
        assert_eq!(at, bt);
        assert_eq!(mem.block_count(), spilled.block_count());
        assert_eq!(mem.tx_count(), spilled.tx_count());
        // Scans are ascending by key on both backends.
        assert!(a.windows(2).all(|w| w[0].hash < w[1].hash));
        assert!(at.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn spill_bounds_live_records_and_tracks_peak() {
        let budget = 4_096;
        let mut log = ObserverLog::with_spill(spill_cfg("budget", budget));
        replay(&mut log, 3_000);
        // The live maps never hold more than one record past the budget.
        let live = log.blocks.len() * BLOCK_ENTRY_BYTES + log.txs.len() * TX_ENTRY_BYTES;
        assert!(live < budget + BLOCK_ENTRY_BYTES.max(TX_ENTRY_BYTES));
        assert!(log.peak_mem_bytes() >= log.retained_bytes());
        assert!(log.is_spilling());
    }

    #[test]
    fn extracted_clone_outlives_source_drop() {
        // A clone shares the source's segment files: they must stay
        // readable until the last log referencing them is dropped.
        let mut log = ObserverLog::with_spill(spill_cfg("extract", 1_024));
        replay(&mut log, 1_200);
        let extracted = log.clone();
        let before: Vec<BlockRecord> = extracted.scan_blocks().collect();
        drop(log);
        let after: Vec<BlockRecord> = extracted.scan_blocks().collect();
        assert_eq!(before, after);
        assert!(!before.is_empty());
    }

    #[test]
    fn first_reception_wins() {
        let mut log = ObserverLog::new();
        let h = BlockHash(1);
        log.record_block_msg(h, BlockMsgKind::Announce, NodeId(1), t(10), t(11));
        log.record_block_msg(h, BlockMsgKind::FullBlock, NodeId(2), t(20), t(21));
        let r = log.blocks[&h];
        assert_eq!(r.first_kind, BlockMsgKind::Announce);
        assert_eq!(r.first_from, NodeId(1));
        assert_eq!(r.first_true, t(11));
        assert_eq!(r.announces, 1);
        assert_eq!(r.full_blocks, 1);
        assert_eq!(r.total_receptions(), 2);
    }

    #[test]
    fn out_of_order_recording_keeps_earliest() {
        let mut log = ObserverLog::new();
        let h = BlockHash(2);
        log.record_block_msg(h, BlockMsgKind::FullBlock, NodeId(2), t(20), t(21));
        log.record_block_msg(h, BlockMsgKind::Announce, NodeId(1), t(10), t(11));
        let r = log.blocks[&h];
        assert_eq!(r.first_true, t(11));
        assert_eq!(r.first_kind, BlockMsgKind::Announce);
    }

    #[test]
    fn tx_first_only() {
        let mut log = ObserverLog::new();
        log.record_tx(TxId(5), NodeId(1), t(1), t(2));
        log.record_tx(TxId(5), NodeId(9), t(0), t(0)); // ignored duplicate
        log.record_tx(TxId(6), NodeId(2), t(3), t(4));
        assert_eq!(log.tx_count(), 2);
        let r5 = log.txs[&TxId(5)];
        assert_eq!(r5.from, NodeId(1));
        assert_eq!(r5.arrival_seq, 0);
        let r6 = log.txs[&TxId(6)];
        assert_eq!(r6.arrival_seq, 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut log = ObserverLog::new();
        let h = BlockHash(3);
        for i in 0..7 {
            log.record_block_msg(
                h,
                BlockMsgKind::FullBlock,
                NodeId(i),
                t(i as u64),
                t(i as u64),
            );
        }
        for i in 0..3 {
            log.record_block_msg(h, BlockMsgKind::Announce, NodeId(10 + i), t(50), t(50));
        }
        let r = log.blocks[&h];
        assert_eq!(r.full_blocks, 7);
        assert_eq!(r.announces, 3);
        assert_eq!(log.block_count(), 1);
    }
}

/// The spilled-key guard against the plain binary search it fronts, and
/// the merge-free tx read-out against the merged scan.
#[cfg(test)]
mod spill_guard {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Keys merged at random flush points, from sequential ids (the
        /// gossip world's tx ids) or random `u64`s (the dataset's ids):
        /// every probe — each key of the stream, its
        /// neighbours, and random keys — answers as the search alone.
        #[test]
        fn the_guard_answers_every_probe_as_the_search_alone(
            seed in 0u64..u64::MAX,
            sequential in 0u8..2,
            n in 0usize..3_000,
            cuts in proptest::collection::vec(0usize..3_000, 0..8),
        ) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let stream: Vec<u64> = (0..n as u64)
                .map(|i| if sequential == 1 { i } else { rng.next_u64() })
                .collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
            cuts.push(n);
            cuts.sort_unstable();
            let mut filter = SpilledKeys::default();
            let (mut at, mut misses, mut passed) = (0usize, 0usize, 0usize);
            for cut in cuts {
                // A flush re-spills a few keys of the last one: the
                // merge keeps one copy.
                let mut piece = stream[at.saturating_sub(3)..cut].to_vec();
                piece.sort_unstable();
                piece.dedup();
                filter.merge(piece.into_iter());
                at = cut;
                let probes = stream
                    .iter()
                    .flat_map(|&k| [k, k.wrapping_add(1), k.wrapping_sub(1)])
                    .chain((0..64).map(|_| rng.next_u64()));
                for key in probes {
                    let searched = filter.keys.binary_search(&key).is_ok();
                    prop_assert_eq!(filter.contains(key), searched, "key {}", key);
                    if !searched {
                        misses += 1;
                        passed += usize::from(filter.guard_passes(key));
                    }
                }
            }
            prop_assert!(filter.keys.windows(2).all(|w| w[0] < w[1]));
            // The guard stops most misses: about 22 % pass at 4 slots
            // per key.
            if filter.len() >= 1_000 {
                prop_assert!(passed * 10 < misses * 4, "{} of {} misses passed", passed, misses);
            }
        }
    }

    fn spill_cfg(tag: &str, budget: usize) -> SpillConfig {
        SpillConfig {
            dir: std::env::temp_dir().join(format!("ethmeter-guard-test-{tag}")),
            budget_bytes: budget,
            prefix: format!("obs-{tag}"),
        }
    }

    /// A log of `n` steps of a mixed stream, spilled under `budget` to
    /// files named by `tag`: each step a block reception and two
    /// receptions of a new tx id (the second a duplicate).
    fn log(tag: &str, budget: usize, n: u64) -> ObserverLog {
        let mut log = ObserverLog::with_spill(spill_cfg(&format!("{tag}-{budget}"), budget));
        for i in 0..n {
            let t = SimTime::from_nanos(i * 1_000);
            log.record_block_msg(BlockHash(i % 37), BlockMsgKind::FullBlock, NodeId(1), t, t);
            // A multiplier odd and large: ids unordered against arrival.
            let id = TxId((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            log.record_tx(id, NodeId(2), t, t);
            log.record_tx(id, NodeId(3), t, t);
        }
        log
    }

    /// The merged scan, stably sorted by `arrival_seq`.
    fn reference(log: &ObserverLog) -> Vec<TxRecord> {
        let mut rows: Vec<TxRecord> = log.scan_txs().collect();
        rows.sort_by_key(|r| r.arrival_seq);
        rows
    }

    #[test]
    fn tx_rows_read_back_to_back_equal_the_merged_scan_by_arrival() {
        // A 1-byte budget writes a segment per record: fewer steps there,
        // since the merged scan opens every segment at once.
        let mut live = 0;
        for (budget, n) in [(1, 150), (64, 400), (512, 600), (4_096, 600)] {
            let log = log("rows", budget, n);
            assert!(log.tx_segments.len() > 1);
            live += log.txs.len();
            assert_eq!(
                log.txs_unordered().count(),
                log.tx_count(),
                "budget {budget}"
            );
            assert_eq!(
                crate::csv::tx_rows(&log),
                reference(&log),
                "budget {budget}"
            );
        }
        assert!(live > 0, "some log ends with rows in its live map");
    }

    #[test]
    fn seqs_that_are_not_a_permutation_take_the_merged_fallback() {
        let mut log = log("fallback", 4_096, 600);
        // One live row repeats seq 0 (spilled first), so a seq goes
        // missing and two rows tie: the tie keeps the merged scan's order.
        let live = log.txs.values_mut().next().expect("rows left live");
        live.arrival_seq = 0;
        let rows = crate::csv::tx_rows(&log);
        assert_eq!(rows, reference(&log));
        assert_eq!(rows.iter().filter(|r| r.arrival_seq == 0).count(), 2);
    }
}
