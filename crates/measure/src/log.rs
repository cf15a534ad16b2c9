//! Observer logs: what one instrumented node recorded.
//!
//! Memory note: the paper kept 600 GB of raw per-message logs. We keep the
//! same information in aggregated form — per block: the first reception
//! (time/kind/peer) plus reception counters by kind; per transaction: the
//! first reception. This is lossless for every analysis in §III and keeps
//! month-scale simulations in memory. Raw per-message streams can be
//! reconstructed for small runs via the `csv` module's record export.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use ethmeter_types::{BlockHash, FxHashMap, NodeId, SimTime, TxId};

use crate::spill::{self, BlockSegment, SpillConfig, TxSegment};

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

/// [`ObserverLog::clear`] drops (rather than retains) map allocations
/// whose estimated capacity exceeds this, so one planet-sized campaign
/// cannot pin its peak measurement heap across later small jobs on a
/// reused runner.
pub const MAX_RETAINED_BYTES: usize = 1 << 20;

/// Out-of-core state of a budgeted log: its spill policy, the immutable
/// segments flushed so far (shared by reference with any clones, e.g.
/// extracted campaign data), and the filter over their keys.
#[derive(Debug, Clone)]
struct SpillState {
    config: SpillConfig,
    block_segments: Vec<Arc<BlockSegment>>,
    tx_segments: Vec<Arc<TxSegment>>,
    /// Ascending distinct hashes of every spilled block: one probe tells
    /// a fresh live block from a delta of a spilled one.
    spilled_blocks: Vec<BlockHash>,
    /// Ascending ids of every spilled tx (disjoint from the live map):
    /// one probe keeps `arrival_seq` assignment identical to the
    /// in-memory backend.
    spilled_txs: Vec<TxId>,
    /// 8 bytes per row of every segment written so far — the filter cost
    /// [`ObserverLog::retained_bytes`] charges, kept as a running sum so
    /// the per-record high-water check stays O(1).
    segment_key_bytes: usize,
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
    spill: Option<SpillState>,
    /// Distinct blocks across segments and the live map (only maintained
    /// under spill; equals `blocks.len()` otherwise).
    distinct_blocks: usize,
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
        let mut log = Self::default();
        log.set_spill(Some(config));
        log
    }

    /// Switches the backend: `Some` enables spilling (budget per
    /// [`SpillConfig`]), `None` reverts to purely in-memory. Must only be
    /// called on an empty (new or cleared) log.
    pub fn set_spill(&mut self, config: Option<SpillConfig>) {
        assert!(
            self.blocks.is_empty() && self.txs.is_empty(),
            "spill backend must be configured before recording"
        );
        self.spill = config.map(|config| SpillState {
            config,
            block_segments: Vec::new(),
            tx_segments: Vec::new(),
            spilled_blocks: Vec::new(),
            spilled_txs: Vec::new(),
            segment_key_bytes: 0,
        });
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
    /// capacity plus (under spill) the spilled-key filter, charged at 8
    /// bytes per segment row. The filter is what exact deduplication
    /// across segments needs; it is *not* counted against the flush
    /// budget (flushing cannot shrink it).
    pub fn retained_bytes(&self) -> usize {
        self.blocks.capacity() * BLOCK_ENTRY_BYTES
            + self.txs.capacity() * TX_ENTRY_BYTES
            + self.spill.as_ref().map_or(0, |sp| sp.segment_key_bytes)
    }

    /// High-water mark of [`ObserverLog::retained_bytes`] over this log's
    /// life (since construction or the last [`ObserverLog::clear`]).
    pub fn peak_mem_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of segments flushed to disk so far.
    pub fn spilled_segments(&self) -> usize {
        self.spill
            .as_ref()
            .map_or(0, |sp| sp.block_segments.len() + sp.tx_segments.len())
    }

    /// Post-record bookkeeping: track the heap high-water mark, then
    /// flush if the live maps crossed *half* the budget. Half, because
    /// the budget bounds resident bytes and [`ObserverLog::retained_bytes`]
    /// counts map *capacity*, which can sit at ~2x the live length right
    /// after a hash-map doubling — draining at `budget / 2` keeps the
    /// capacity peak itself within the budget, not within 2x of it.
    fn after_record(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.retained_bytes());
        if let Some(sp) = &self.spill {
            if self.record_bytes() >= (sp.config.budget_bytes / 2).max(1) {
                self.flush();
            }
        }
    }

    /// Drains the live maps into one new sorted columnar segment each
    /// (skipping empty maps). File names are `{prefix}.blk{seq:04}.seg` /
    /// `{prefix}.txs{seq:04}.seg` under the configured spill dir.
    fn flush(&mut self) {
        let sp = self.spill.as_mut().expect("flush requires spill config");
        if !self.blocks.is_empty() {
            let mut rows: Vec<BlockRecord> = self.blocks.drain().map(|(_, r)| r).collect();
            rows.sort_unstable_by_key(|r| r.hash);
            let name = format!("{}.blk{:04}.seg", sp.config.prefix, sp.block_segments.len());
            sp.block_segments
                .push(BlockSegment::write(&sp.config.dir, &name, &rows));
            merge_keys(&mut sp.spilled_blocks, rows.iter().map(|r| r.hash));
            sp.segment_key_bytes += rows.len() * 8;
        }
        if !self.txs.is_empty() {
            let mut rows: Vec<TxRecord> = self.txs.drain().map(|(_, r)| r).collect();
            rows.sort_unstable_by_key(|r| r.id);
            let name = format!("{}.txs{:04}.seg", sp.config.prefix, sp.tx_segments.len());
            sp.tx_segments
                .push(TxSegment::write(&sp.config.dir, &name, &rows));
            merge_keys(&mut sp.spilled_txs, rows.iter().map(|r| r.id));
            sp.segment_key_bytes += rows.len() * 8;
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
        let entry = match self.blocks.entry(hash) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                if let Some(sp) = &self.spill {
                    if sp.spilled_blocks.binary_search(&hash).is_err() {
                        self.distinct_blocks += 1;
                    }
                }
                e.insert(BlockRecord {
                    hash,
                    first_local: local,
                    first_true: true_time,
                    first_kind: kind,
                    first_from: from,
                    announces: 0,
                    full_blocks: 0,
                })
            }
        };
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
        if let Some(sp) = &self.spill {
            // Already flushed to a segment: still a duplicate.
            if sp.spilled_txs.binary_search(&id).is_ok() {
                return;
            }
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

    /// The live (in-memory) record of a block, if present. Under spill,
    /// flushed blocks are not visible here — use
    /// [`ObserverLog::scan_blocks`] for complete reads.
    pub fn block(&self, hash: BlockHash) -> Option<&BlockRecord> {
        self.blocks.get(&hash)
    }

    /// The live (in-memory) record of a transaction, if present. Under
    /// spill, flushed txs are not visible here — use
    /// [`ObserverLog::scan_txs`] for complete reads.
    pub fn tx(&self, id: TxId) -> Option<&TxRecord> {
        self.txs.get(&id)
    }

    /// Number of distinct blocks observed (across segments and the live
    /// map).
    pub fn block_count(&self) -> usize {
        match &self.spill {
            Some(_) => self.distinct_blocks,
            None => self.blocks.len(),
        }
    }

    /// Number of distinct transactions observed (across segments and the
    /// live map; ids are globally deduplicated, so segment rows are
    /// disjoint).
    pub fn tx_count(&self) -> usize {
        self.spill.as_ref().map_or(0, |sp| sp.spilled_txs.len()) + self.txs.len()
    }

    /// Streams every block record in ascending hash order, merging
    /// spilled segments with the live map. This is **the** iteration API:
    /// both backends yield the bit-identical sequence for the same record
    /// stream, so analyses built on it never see the difference.
    pub fn scan_blocks(&self) -> spill::BlockScan {
        let mut mem: Vec<BlockRecord> = self.blocks.values().copied().collect();
        mem.sort_unstable_by_key(|r| r.hash);
        let segs: &[Arc<BlockSegment>] = self
            .spill
            .as_ref()
            .map_or(&[], |sp| sp.block_segments.as_slice());
        spill::merge_block_scan(segs, mem)
    }

    /// Streams every transaction record in ascending id order, merging
    /// spilled segments with the live map (counterpart of
    /// [`ObserverLog::scan_blocks`]).
    pub fn scan_txs(&self) -> spill::TxScan {
        let mut mem: Vec<TxRecord> = self.txs.values().copied().collect();
        mem.sort_unstable_by_key(|r| r.id);
        let segs: &[Arc<TxSegment>] = self
            .spill
            .as_ref()
            .map_or(&[], |sp| sp.tx_segments.as_slice());
        spill::merge_tx_scan(segs, mem)
    }

    /// Iterates over live block records (arbitrary, but deterministic,
    /// order; excludes spilled rows — prefer [`ObserverLog::scan_blocks`]).
    pub fn blocks(&self) -> impl Iterator<Item = &BlockRecord> + '_ {
        // detlint::allow(unordered-iter, reason = "documented-unordered accessor over an FxHashMap (deterministic per process); goldens pin the observable results and consumers sort or fold commutatively")
        self.blocks.values()
    }

    /// Iterates over live transaction records (arbitrary, but
    /// deterministic, order; excludes spilled rows — prefer
    /// [`ObserverLog::scan_txs`]).
    pub fn txs(&self) -> impl Iterator<Item = &TxRecord> + '_ {
        // detlint::allow(unordered-iter, reason = "documented-unordered accessor over an FxHashMap (deterministic per process); goldens pin the observable results and consumers sort or fold commutatively")
        self.txs.values()
    }

    /// Forgets every record and drops this log's spill segments (their
    /// files are unlinked once no extracted campaign references them). A
    /// cleared log behaves exactly like a new in-memory one.
    ///
    /// Shrink policy: map allocations above [`MAX_RETAINED_BYTES`] are
    /// released rather than retained, so a reused
    /// [`CampaignRunner`](../core) that just finished a planet-scale job
    /// does not pin that job's measurement heap under later small jobs.
    pub fn clear(&mut self) {
        if self.blocks.capacity() * BLOCK_ENTRY_BYTES + self.txs.capacity() * TX_ENTRY_BYTES
            > MAX_RETAINED_BYTES
        {
            self.blocks = FxHashMap::default();
            self.txs = FxHashMap::default();
        } else {
            self.blocks.clear();
            self.txs.clear();
        }
        self.tx_arrivals = 0;
        self.spill = None;
        self.distinct_blocks = 0;
        self.peak_bytes = 0;
    }
}

/// Merges the ascending `new` keys into the ascending `filter`, keeping
/// one copy of a key present in both (a block re-spilled as a delta).
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
    /// per row.
    fn segment_bytes(log: &ObserverLog) -> usize {
        log.spill.as_ref().map_or(0, |sp| {
            let blocks: usize = sp.block_segments.iter().map(|s| s.rows()).sum();
            let txs: usize = sp.tx_segments.iter().map(|s| s.rows()).sum();
            8 * (blocks + txs)
        })
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
    fn scan_matches_the_unordered_accessors_in_memory() {
        let mut log = ObserverLog::new();
        replay(&mut log, 500);
        let mut via_accessor: Vec<BlockRecord> = log.blocks().copied().collect();
        via_accessor.sort_unstable_by_key(|r| r.hash);
        let via_scan: Vec<BlockRecord> = log.scan_blocks().collect();
        assert_eq!(via_scan, via_accessor);
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
    fn clear_releases_oversized_maps_and_spill_state() {
        let mut log = ObserverLog::new();
        // Grow the maps well past the retention cap.
        for i in 0..40_000u64 {
            log.record_tx(TxId(i), NodeId(1), t(i), t(i));
        }
        assert!(log.retained_bytes() > MAX_RETAINED_BYTES);
        log.clear();
        assert!(
            log.retained_bytes() <= MAX_RETAINED_BYTES,
            "clear must release oversized measurement buffers, retained {}",
            log.retained_bytes()
        );
        assert_eq!(log.peak_mem_bytes(), 0);
        assert_eq!(log.tx_count(), 0);

        // A small log keeps its allocation (cheap reuse path).
        let mut small = ObserverLog::new();
        for i in 0..100u64 {
            small.record_tx(TxId(i), NodeId(1), t(i), t(i));
        }
        let cap = small.txs.capacity();
        small.clear();
        assert_eq!(small.txs.capacity(), cap);

        // Clearing a spilled log drops its segments (files unlink).
        let mut sp = ObserverLog::with_spill(spill_cfg("clear", 1_024));
        replay(&mut sp, 1_000);
        assert!(sp.spilled_segments() > 0);
        sp.clear();
        assert_eq!(sp.spilled_segments(), 0);
        assert!(!sp.is_spilling());
    }

    #[test]
    fn extracted_clone_outlives_source_clear() {
        // take_campaign clones logs and then resets the world; the clone
        // must keep its segment files alive until it is dropped.
        let mut log = ObserverLog::with_spill(spill_cfg("extract", 1_024));
        replay(&mut log, 1_200);
        let extracted = log.clone();
        let before: Vec<BlockRecord> = extracted.scan_blocks().collect();
        log.clear();
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
        let r = log.block(h).expect("recorded");
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
        let r = log.block(h).expect("recorded");
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
        let r5 = log.tx(TxId(5)).expect("recorded");
        assert_eq!(r5.from, NodeId(1));
        assert_eq!(r5.arrival_seq, 0);
        let r6 = log.tx(TxId(6)).expect("recorded");
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
        let r = log.block(h).expect("recorded");
        assert_eq!(r.full_blocks, 7);
        assert_eq!(r.announces, 3);
        assert_eq!(log.block_count(), 1);
    }
}
