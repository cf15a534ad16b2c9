//! Columnar on-disk spill segments for observer logs.
//!
//! A planet-scale campaign observes far more block/tx receptions than the
//! in-memory record maps can hold under a measurement budget. When a
//! budgeted [`ObserverLog`](crate::ObserverLog) overflows, it drains its
//! maps into an immutable on-disk **segment**: a fixed-width columnar file
//! (one contiguous little-endian column per record field) whose rows are
//! sorted by key. Scans later k-way merge the segments with the residual
//! in-memory rows in ascending key order, so reports stream over the
//! union without ever re-materializing the raw rows.
//!
//! A segment keeps nothing per row in memory: its key column is the
//! file's first column, read back by scans like every other column. The
//! dedup filter recording needs — which keys were spilled at all — is one
//! ascending key list per log, owned by the
//! [`ObserverLog`](crate::ObserverLog) and merged at each flush.
//!
//! Determinism contract:
//!
//! - **File naming** is a pure function of the caller-provided spill dir,
//!   the observer's identity prefix, and the flush ordinal — no PIDs,
//!   clocks, or temp-name entropy.
//! - **Flush points** are a pure function of the record stream (an
//!   estimated record byte count crosses the budget), never of allocator
//!   or OS state.
//! - **Scan order** is ascending key, with duplicate block keys folded in
//!   segment creation order (oldest first, in-memory rows last) under the
//!   same first-reception-wins rule as live recording — so a spilled log
//!   scans bit-identically to an unspilled one.
//!
//! Segment files are reference-counted: clones of a log (and the
//! [`CampaignData`](crate::CampaignData) extracted from it) share the
//! same immutable segments, and the file is unlinked when the last
//! reference drops.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ethmeter_types::{BlockHash, NodeId, SimTime, TxId};

use crate::log::{BlockMsgKind, BlockRecord, TxRecord};

/// Spill policy of one observer log.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory receiving segment files (created on first flush).
    pub dir: PathBuf,
    /// Estimated in-memory record bytes that trigger a flush.
    pub budget_bytes: usize,
    /// Deterministic file-name prefix identifying this log (sanitized
    /// vantage name plus campaign epoch).
    pub prefix: String,
}

impl SpillConfig {
    /// Replaces every non-alphanumeric byte of `name` with `-` so vantage
    /// names are safe as file-name components.
    pub fn sanitize(name: &str) -> String {
        name.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect()
    }
}

/// Rows decoded per column read — bounds scan memory to a few records'
/// worth per open segment regardless of segment size.
const CHUNK_ROWS: usize = 1024;

fn read_exact(file: &mut File, path: &Path, off: u64, buf: &mut [u8]) {
    file.seek(SeekFrom::Start(off))
        .and_then(|_| file.read_exact(buf))
        .unwrap_or_else(|e| panic!("spill segment read {}: {e}", path.display()));
}

fn decode_u64(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("u64 column"))
}

fn decode_u32(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("u32 column"))
}

/// An immutable sorted block segment on disk. The file is unlinked when
/// the last [`Arc`] reference drops.
pub(crate) struct BlockSegment {
    path: PathBuf,
    /// Row count. The ascending hash column lives only on disk; the dedup
    /// filter over every block segment is the owning log's.
    rows: usize,
}

impl std::fmt::Debug for BlockSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BlockSegment({}, {} rows)",
            self.path.display(),
            self.rows
        )
    }
}

impl Drop for BlockSegment {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

// Column widths of the block segment layout, in declaration order:
// hash u64 | first_local u64 | first_true u64 | first_kind u8 |
// first_from u32 | announces u32 | full_blocks u32.
const BLK_ROW_BYTES: u64 = 8 + 8 + 8 + 1 + 4 + 4 + 4;

impl BlockSegment {
    /// Writes `rows` (pre-sorted ascending by hash) as one columnar file.
    pub(crate) fn write(dir: &Path, name: &str, rows: &[BlockRecord]) -> Arc<BlockSegment> {
        debug_assert!(rows.windows(2).all(|w| w[0].hash < w[1].hash));
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("spill dir {}: {e}", dir.display()));
        let path = dir.join(name);
        let mut buf = Vec::with_capacity(rows.len() * BLK_ROW_BYTES as usize);
        for r in rows {
            buf.extend_from_slice(&r.hash.raw().to_le_bytes());
        }
        for r in rows {
            buf.extend_from_slice(&r.first_local.as_nanos().to_le_bytes());
        }
        for r in rows {
            buf.extend_from_slice(&r.first_true.as_nanos().to_le_bytes());
        }
        for r in rows {
            buf.push(match r.first_kind {
                BlockMsgKind::Announce => 0,
                BlockMsgKind::FullBlock => 1,
            });
        }
        for r in rows {
            buf.extend_from_slice(&r.first_from.raw().to_le_bytes());
        }
        for r in rows {
            buf.extend_from_slice(&r.announces.to_le_bytes());
        }
        for r in rows {
            buf.extend_from_slice(&r.full_blocks.to_le_bytes());
        }
        File::create(&path)
            .and_then(|mut f| f.write_all(&buf))
            .unwrap_or_else(|e| panic!("spill segment write {}: {e}", path.display()));
        Arc::new(BlockSegment {
            path,
            rows: rows.len(),
        })
    }

    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Opens a chunked ascending scan.
    fn scan(self: &Arc<Self>) -> BlockSegmentScan {
        let file = File::open(&self.path)
            .unwrap_or_else(|e| panic!("spill segment open {}: {e}", self.path.display()));
        BlockSegmentScan {
            seg: Arc::clone(self),
            file,
            next_row: 0,
            buf: Vec::new(),
            buf_pos: 0,
        }
    }
}

/// Chunked reader over one block segment, yielding rows in key order.
struct BlockSegmentScan {
    seg: Arc<BlockSegment>,
    file: File,
    next_row: usize,
    buf: Vec<BlockRecord>,
    buf_pos: usize,
}

impl BlockSegmentScan {
    fn refill(&mut self) {
        let rows = self.seg.rows;
        let n = CHUNK_ROWS.min(rows - self.next_row);
        let at = self.next_row as u64;
        let rows64 = rows as u64;
        let path = &self.seg.path;
        // Per-column chunk reads: column base offsets follow the layout
        // in `BLK_ROW_BYTES`'s comment.
        let mut hash = vec![0u8; n * 8];
        read_exact(&mut self.file, path, at * 8, &mut hash);
        let mut local = vec![0u8; n * 8];
        read_exact(&mut self.file, path, 8 * rows64 + at * 8, &mut local);
        let mut truet = vec![0u8; n * 8];
        read_exact(&mut self.file, path, 16 * rows64 + at * 8, &mut truet);
        let mut kind = vec![0u8; n];
        read_exact(&mut self.file, path, 24 * rows64 + at, &mut kind);
        let mut from = vec![0u8; n * 4];
        read_exact(&mut self.file, path, 25 * rows64 + at * 4, &mut from);
        let mut ann = vec![0u8; n * 4];
        read_exact(&mut self.file, path, 29 * rows64 + at * 4, &mut ann);
        let mut full = vec![0u8; n * 4];
        read_exact(&mut self.file, path, 33 * rows64 + at * 4, &mut full);
        self.buf.clear();
        for (i, &k) in kind.iter().enumerate() {
            self.buf.push(BlockRecord {
                hash: BlockHash(decode_u64(&hash, i)),
                first_local: SimTime::from_nanos(decode_u64(&local, i)),
                first_true: SimTime::from_nanos(decode_u64(&truet, i)),
                first_kind: match k {
                    0 => BlockMsgKind::Announce,
                    1 => BlockMsgKind::FullBlock,
                    k => panic!("corrupt spill segment {}: kind {k}", path.display()),
                },
                first_from: NodeId(decode_u32(&from, i)),
                announces: decode_u32(&ann, i),
                full_blocks: decode_u32(&full, i),
            });
        }
        self.next_row += n;
        self.buf_pos = 0;
    }

    fn peek(&mut self) -> Option<&BlockRecord> {
        if self.buf_pos == self.buf.len() {
            if self.next_row == self.seg.rows {
                return None;
            }
            self.refill();
        }
        Some(&self.buf[self.buf_pos])
    }

    fn pop(&mut self) -> BlockRecord {
        let r = self.buf[self.buf_pos];
        self.buf_pos += 1;
        r
    }
}

/// An immutable sorted transaction segment on disk (unlinked when the
/// last reference drops).
pub(crate) struct TxSegment {
    path: PathBuf,
    /// Row count. The ascending id column lives only on disk; the
    /// first-reception dedup filter over every tx segment is the owning
    /// log's.
    rows: usize,
}

impl std::fmt::Debug for TxSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxSegment({}, {} rows)", self.path.display(), self.rows)
    }
}

impl Drop for TxSegment {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

// Column layout: id u64 | first_local u64 | first_true u64 | from u32 |
// arrival_seq u64.
const TX_ROW_BYTES: u64 = 8 + 8 + 8 + 4 + 8;

impl TxSegment {
    /// Writes `rows` (pre-sorted ascending by id) as one columnar file.
    pub(crate) fn write(dir: &Path, name: &str, rows: &[TxRecord]) -> Arc<TxSegment> {
        debug_assert!(rows.windows(2).all(|w| w[0].id < w[1].id));
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("spill dir {}: {e}", dir.display()));
        let path = dir.join(name);
        let mut buf = Vec::with_capacity(rows.len() * TX_ROW_BYTES as usize);
        for r in rows {
            buf.extend_from_slice(&r.id.raw().to_le_bytes());
        }
        for r in rows {
            buf.extend_from_slice(&r.first_local.as_nanos().to_le_bytes());
        }
        for r in rows {
            buf.extend_from_slice(&r.first_true.as_nanos().to_le_bytes());
        }
        for r in rows {
            buf.extend_from_slice(&r.from.raw().to_le_bytes());
        }
        for r in rows {
            buf.extend_from_slice(&r.arrival_seq.to_le_bytes());
        }
        File::create(&path)
            .and_then(|mut f| f.write_all(&buf))
            .unwrap_or_else(|e| panic!("spill segment write {}: {e}", path.display()));
        Arc::new(TxSegment {
            path,
            rows: rows.len(),
        })
    }

    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    fn scan(self: &Arc<Self>) -> TxSegmentScan {
        let file = File::open(&self.path)
            .unwrap_or_else(|e| panic!("spill segment open {}: {e}", self.path.display()));
        TxSegmentScan {
            seg: Arc::clone(self),
            file,
            next_row: 0,
            buf: Vec::new(),
            buf_pos: 0,
        }
    }
}

/// Chunked reader over one tx segment, yielding rows in key order.
struct TxSegmentScan {
    seg: Arc<TxSegment>,
    file: File,
    next_row: usize,
    buf: Vec<TxRecord>,
    buf_pos: usize,
}

impl TxSegmentScan {
    fn refill(&mut self) {
        let rows = self.seg.rows;
        let n = CHUNK_ROWS.min(rows - self.next_row);
        let at = self.next_row as u64;
        let rows64 = rows as u64;
        let path = &self.seg.path;
        let mut id = vec![0u8; n * 8];
        read_exact(&mut self.file, path, at * 8, &mut id);
        let mut local = vec![0u8; n * 8];
        read_exact(&mut self.file, path, 8 * rows64 + at * 8, &mut local);
        let mut truet = vec![0u8; n * 8];
        read_exact(&mut self.file, path, 16 * rows64 + at * 8, &mut truet);
        let mut from = vec![0u8; n * 4];
        read_exact(&mut self.file, path, 24 * rows64 + at * 4, &mut from);
        let mut seq = vec![0u8; n * 8];
        read_exact(&mut self.file, path, 28 * rows64 + at * 8, &mut seq);
        self.buf.clear();
        for i in 0..n {
            self.buf.push(TxRecord {
                id: TxId(decode_u64(&id, i)),
                first_local: SimTime::from_nanos(decode_u64(&local, i)),
                first_true: SimTime::from_nanos(decode_u64(&truet, i)),
                from: NodeId(decode_u32(&from, i)),
                arrival_seq: decode_u64(&seq, i),
            });
        }
        self.next_row += n;
        self.buf_pos = 0;
    }

    fn peek(&mut self) -> Option<&TxRecord> {
        if self.buf_pos == self.buf.len() {
            if self.next_row == self.seg.rows {
                return None;
            }
            self.refill();
        }
        Some(&self.buf[self.buf_pos])
    }

    fn pop(&mut self) -> TxRecord {
        let r = self.buf[self.buf_pos];
        self.buf_pos += 1;
        r
    }
}

/// Ascending-hash merge over spilled segments plus the residual in-memory
/// rows, folding duplicate keys under live recording's
/// first-reception-wins rule. Yields each distinct block exactly once.
pub struct BlockScan {
    segs: Vec<BlockSegmentScan>,
    mem: std::vec::IntoIter<BlockRecord>,
    mem_peek: Option<BlockRecord>,
}

/// Builds a [`BlockScan`] over `segments` (creation order) and `mem`
/// (pre-sorted ascending by hash).
pub(crate) fn merge_block_scan(segments: &[Arc<BlockSegment>], mem: Vec<BlockRecord>) -> BlockScan {
    let mut mem = mem.into_iter();
    let mem_peek = mem.next();
    BlockScan {
        segs: segments.iter().map(BlockSegment::scan).collect(),
        mem,
        mem_peek,
    }
}

impl Iterator for BlockScan {
    type Item = BlockRecord;

    fn next(&mut self) -> Option<BlockRecord> {
        // Minimum key across all sources.
        let mut min: Option<BlockHash> = self.mem_peek.map(|r| r.hash);
        for s in &mut self.segs {
            if let Some(r) = s.peek() {
                min = Some(match min {
                    Some(m) => m.min(r.hash),
                    None => r.hash,
                });
            }
        }
        let min = min?;
        // Fold duplicates in segment creation order, in-memory rows last —
        // the same chronology live recording folds in, so first-reception
        // ties resolve identically.
        let mut acc: Option<BlockRecord> = None;
        for s in &mut self.segs {
            if s.peek().is_some_and(|r| r.hash == min) {
                let r = s.pop();
                acc = Some(match acc {
                    None => r,
                    Some(a) => fold_block(a, r),
                });
            }
        }
        if self.mem_peek.is_some_and(|r| r.hash == min) {
            let r = self.mem_peek.take().expect("peeked");
            self.mem_peek = self.mem.next();
            acc = Some(match acc {
                None => r,
                Some(a) => fold_block(a, r),
            });
        }
        acc
    }
}

/// Folds a later partial record into an earlier one, mirroring
/// [`ObserverLog::record_block_msg`](crate::ObserverLog::record_block_msg):
/// counters sum; the first-reception fields are replaced only by a
/// strictly earlier true time, so the earlier record wins ties.
fn fold_block(mut acc: BlockRecord, later: BlockRecord) -> BlockRecord {
    acc.announces += later.announces;
    acc.full_blocks += later.full_blocks;
    if later.first_true < acc.first_true {
        acc.first_true = later.first_true;
        acc.first_local = later.first_local;
        acc.first_kind = later.first_kind;
        acc.first_from = later.first_from;
    }
    acc
}

/// Ascending-id merge over spilled tx segments plus the residual
/// in-memory rows. Transaction ids are globally unique across sources
/// (recording dedups against the log's spilled-key filter), so no
/// folding occurs.
pub struct TxScan {
    /// Segment scans not yet drained, and side by side the id each yields
    /// next: a row's minimum is one pass over a dense array, not a peek
    /// into every segment's buffer.
    segs: Vec<TxSegmentScan>,
    heads: Vec<TxId>,
    mem: std::vec::IntoIter<TxRecord>,
    mem_peek: Option<TxRecord>,
}

/// Builds a [`TxScan`] over `segments` and `mem` (pre-sorted ascending
/// by id).
pub(crate) fn merge_tx_scan(segments: &[Arc<TxSegment>], mem: Vec<TxRecord>) -> TxScan {
    let mut mem = mem.into_iter();
    let mem_peek = mem.next();
    let mut segs = Vec::with_capacity(segments.len());
    let mut heads = Vec::with_capacity(segments.len());
    for seg in segments {
        let mut scan = seg.scan();
        if let Some(r) = scan.peek() {
            heads.push(r.id);
            segs.push(scan);
        }
    }
    TxScan {
        segs,
        heads,
        mem,
        mem_peek,
    }
}

impl Iterator for TxScan {
    type Item = TxRecord;

    fn next(&mut self) -> Option<TxRecord> {
        let mut best = self.mem_peek.map(|r| r.id);
        let mut src = None;
        for (i, &id) in self.heads.iter().enumerate() {
            if best.is_none_or(|b| id < b) {
                best = Some(id);
                src = Some(i);
            }
        }
        let Some(i) = src else {
            let r = self.mem_peek.take()?;
            self.mem_peek = self.mem.next();
            return Some(r);
        };
        let r = self.segs[i].pop();
        match self.segs[i].peek() {
            Some(next) => self.heads[i] = next.id,
            None => {
                self.segs.swap_remove(i);
                self.heads.swap_remove(i);
            }
        }
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn blk(hash: u64, first_ms: u64, ann: u32, full: u32) -> BlockRecord {
        BlockRecord {
            hash: BlockHash(hash),
            first_local: t(first_ms + 1),
            first_true: t(first_ms),
            first_kind: BlockMsgKind::Announce,
            first_from: NodeId(7),
            announces: ann,
            full_blocks: full,
        }
    }

    fn tx(id: u64, seq: u64) -> TxRecord {
        TxRecord {
            id: TxId(id),
            first_local: t(id + 1),
            first_true: t(id),
            from: NodeId(3),
            arrival_seq: seq,
        }
    }

    #[test]
    fn block_segment_roundtrips_and_unlinks_on_drop() {
        let dir = std::env::temp_dir().join("ethmeter-spill-test-blk");
        let rows: Vec<BlockRecord> = (0..2500).map(|i| blk(i * 3, i, 1, 2)).collect();
        let seg = BlockSegment::write(&dir, "a.blk0000.seg", &rows);
        let path = seg.path.clone();
        assert!(path.exists());
        assert_eq!(seg.rows, 2500);
        let back: Vec<BlockRecord> = merge_block_scan(&[seg], Vec::new()).collect();
        assert_eq!(back, rows);
        assert!(!path.exists(), "file unlinked once the last Arc dropped");
    }

    #[test]
    fn tx_segment_roundtrips() {
        let dir = std::env::temp_dir().join("ethmeter-spill-test-tx");
        let rows: Vec<TxRecord> = (0..2100).map(|i| tx(i * 2 + 1, i)).collect();
        let seg = TxSegment::write(&dir, "a.txs0000.seg", &rows);
        let back: Vec<TxRecord> = merge_tx_scan(&[seg], Vec::new()).collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn block_merge_folds_duplicates_in_segment_order() {
        let dir = std::env::temp_dir().join("ethmeter-spill-test-fold");
        // Segment 0 saw block 5 first (earlier true time wins ties), then
        // segment 1 and the in-memory residue saw it again.
        let s0 = BlockSegment::write(&dir, "f.blk0000.seg", &[blk(5, 10, 2, 0)]);
        let s1 = BlockSegment::write(&dir, "f.blk0001.seg", &[blk(3, 40, 1, 0), blk(5, 20, 0, 3)]);
        let mem = vec![blk(5, 10, 1, 1)]; // same true time as segment 0: earlier record keeps the win
        let out: Vec<BlockRecord> = merge_block_scan(&[s0, s1], mem).collect();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].hash, BlockHash(3));
        let five = out[1];
        assert_eq!(five.hash, BlockHash(5));
        assert_eq!(five.announces, 3);
        assert_eq!(five.full_blocks, 4);
        assert_eq!(five.first_true, t(10));
        assert_eq!(
            five.first_local,
            t(11),
            "tie kept the oldest segment's first"
        );
    }

    #[test]
    fn tx_merge_interleaves_sources_in_id_order() {
        let dir = std::env::temp_dir().join("ethmeter-spill-test-txmerge");
        let s0 = TxSegment::write(&dir, "m.txs0000.seg", &[tx(2, 0), tx(8, 1)]);
        let s1 = TxSegment::write(&dir, "m.txs0001.seg", &[tx(4, 2)]);
        let mem = vec![tx(1, 3), tx(9, 4)];
        let ids: Vec<u64> = merge_tx_scan(&[s0, s1], mem).map(|r| r.id.raw()).collect();
        assert_eq!(ids, vec![1, 2, 4, 8, 9]);
    }

    #[test]
    fn sanitize_keeps_names_filesystem_safe() {
        assert_eq!(SpillConfig::sanitize("EA"), "EA");
        assert_eq!(
            SpillConfig::sanitize("default peers/v1"),
            "default-peers-v1"
        );
    }
}
