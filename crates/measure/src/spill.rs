//! On-disk spill segments for observer logs.
//!
//! A planet-scale campaign observes far more block/tx receptions than the
//! in-memory record maps can hold under a measurement budget. When a
//! budgeted [`ObserverLog`](crate::ObserverLog) overflows, it drains its
//! maps into an immutable on-disk **segment**: a file of fixed-width
//! little-endian rows sorted by key. Scans later k-way merge the segments
//! with the residual in-memory rows in ascending key order, so reports
//! stream over the union without ever re-materializing the raw rows.
//!
//! The transaction export needs no key order: it places every row by its
//! `arrival_seq`. It reads a log's tx segments back to back, then the
//! live map, and skips the merge. That is exact because tx segments are
//! disjoint by construction (recording drops an id already spilled), so
//! no row needs folding with another.
//!
//! Both record kinds take one path. A crate-private `Row` trait gives a
//! kind's key, file tag, row width, codec and fold rule; one segment
//! type, one chunked scan and one merge serve both kinds. A segment of
//! `n` rows is `n` rows back to back, each field at a fixed byte offset:
//!
//! | kind | file | bytes per row | field at offset |
//! |---|---|---|---|
//! | [`BlockRecord`] | `{prefix}.blk{seq:04}.seg` | 37 | `hash` 0, `first_local` 8, `first_true` 16, `first_kind` 24 (1 byte: 0 announce, 1 full block), `first_from` 25, `announces` 29, `full_blocks` 33 |
//! | [`TxRecord`] | `{prefix}.txs{seq:04}.seg` | 36 | `id` 0, `first_local` 8, `first_true` 16, `from` 24, `arrival_seq` 28 |
//!
//! Keys, times and `arrival_seq` take 8 bytes; node ids and counters 4.
//! A segment keeps nothing per row in memory: scans read its rows back,
//! key first. Only txs keep a dedup filter — which ids were spilled at
//! all — as one ascending id list per log, owned by the
//! [`ObserverLog`](crate::ObserverLog) and merged at each flush, behind a
//! guard of hashed presence bits that lets most misses skip the search.
//! Blocks keep none: a block received after a flush starts a delta
//! record, and scans fold it back under the scan-order rule below.
//!
//! Determinism contract:
//!
//! - **File naming** is a pure function of the caller-provided spill dir,
//!   the observer's identity prefix, the record kind, and the flush
//!   ordinal — no PIDs, clocks, or temp-name entropy.
//! - **Flush points** are a pure function of the record stream (an
//!   estimated record byte count crosses the budget), never of allocator
//!   or OS state.
//! - **Scan order** is ascending key, with duplicate keys folded in
//!   segment creation order (oldest first, in-memory rows last). Blocks
//!   fold under the same first-reception-wins rule as live recording, so
//!   a spilled log scans bit-identically to an unspilled one; tx ids are
//!   never spilled twice, so txs never fold.
//!
//! Segment files are reference-counted: clones of a log (and the
//! [`CampaignData`](crate::CampaignData) extracted from it) share the
//! same immutable segments, and the file is unlinked when the last
//! reference drops.

use std::fmt::Debug;
use std::fs::File;
use std::hash::Hash;
use std::io::{Read, Write};
use std::iter::Peekable;
use std::marker::PhantomData;
use std::path::PathBuf;
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

/// A record kind the spill path stores: its key, its segment layout (the
/// module doc's table), and how two partial records of one key fold.
pub(crate) trait Row: Copy {
    /// Sort key of a segment; distinct within one segment.
    type Key: Copy + Ord + Hash + Debug;
    /// File-name tag: segments are `{prefix}.{TAG}{seq:04}.seg`.
    const TAG: &'static str;
    /// Bytes per row on disk.
    const BYTES: usize;

    /// This row's key.
    fn key(&self) -> Self::Key;
    /// Appends this row's [`Row::BYTES`] bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// The row `bytes` (exactly [`Row::BYTES`] long) holds, or what makes
    /// it corrupt.
    fn decode(bytes: &[u8]) -> Result<Self, String>;
    /// Folds a later partial record of one key into an earlier one.
    fn fold(earlier: Self, later: Self) -> Self;
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field"))
}

impl Row for BlockRecord {
    type Key = BlockHash;
    const TAG: &'static str = "blk";
    const BYTES: usize = 37;

    fn key(&self) -> BlockHash {
        self.hash
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.hash.raw().to_le_bytes());
        out.extend_from_slice(&self.first_local.as_nanos().to_le_bytes());
        out.extend_from_slice(&self.first_true.as_nanos().to_le_bytes());
        out.push(match self.first_kind {
            BlockMsgKind::Announce => 0,
            BlockMsgKind::FullBlock => 1,
        });
        out.extend_from_slice(&self.first_from.raw().to_le_bytes());
        out.extend_from_slice(&self.announces.to_le_bytes());
        out.extend_from_slice(&self.full_blocks.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        Ok(BlockRecord {
            hash: BlockHash(u64_at(bytes, 0)),
            first_local: SimTime::from_nanos(u64_at(bytes, 8)),
            first_true: SimTime::from_nanos(u64_at(bytes, 16)),
            first_kind: match bytes[24] {
                0 => BlockMsgKind::Announce,
                1 => BlockMsgKind::FullBlock,
                k => return Err(format!("kind {k}")),
            },
            first_from: NodeId(u32_at(bytes, 25)),
            announces: u32_at(bytes, 29),
            full_blocks: u32_at(bytes, 33),
        })
    }

    /// Mirrors [`ObserverLog::record_block_msg`](crate::ObserverLog::record_block_msg):
    /// counters sum; the first-reception fields are replaced only by a
    /// strictly earlier true time, so the earlier record wins ties.
    fn fold(mut earlier: Self, later: Self) -> Self {
        earlier.announces += later.announces;
        earlier.full_blocks += later.full_blocks;
        if later.first_true < earlier.first_true {
            earlier.first_true = later.first_true;
            earlier.first_local = later.first_local;
            earlier.first_kind = later.first_kind;
            earlier.first_from = later.first_from;
        }
        earlier
    }
}

impl Row for TxRecord {
    type Key = TxId;
    const TAG: &'static str = "txs";
    const BYTES: usize = 36;

    fn key(&self) -> TxId {
        self.id
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.raw().to_le_bytes());
        out.extend_from_slice(&self.first_local.as_nanos().to_le_bytes());
        out.extend_from_slice(&self.first_true.as_nanos().to_le_bytes());
        out.extend_from_slice(&self.from.raw().to_le_bytes());
        out.extend_from_slice(&self.arrival_seq.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        Ok(TxRecord {
            id: TxId(u64_at(bytes, 0)),
            first_local: SimTime::from_nanos(u64_at(bytes, 8)),
            first_true: SimTime::from_nanos(u64_at(bytes, 16)),
            from: NodeId(u32_at(bytes, 24)),
            arrival_seq: u64_at(bytes, 28),
        })
    }

    /// The first reception is kept. Never called: recording dedups tx ids
    /// against the log's spilled tx-id filter, so sources are disjoint.
    fn fold(earlier: Self, _later: Self) -> Self {
        earlier
    }
}

/// Rows decoded per read — bounds scan memory to a few records' worth
/// per open segment regardless of segment size.
const CHUNK_ROWS: usize = 1024;

/// An immutable sorted segment of `R` rows on disk. The file is unlinked
/// when the last [`Arc`] reference drops.
pub(crate) struct Segment<R> {
    path: PathBuf,
    /// Row count. The keys live only on disk; the tx-id filter over a
    /// log's segments is the log's.
    rows: usize,
    kind: PhantomData<fn() -> R>,
}

impl<R> Debug for Segment<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Segment({}, {} rows)", self.path.display(), self.rows)
    }
}

impl<R> Drop for Segment<R> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl<R: Row> Segment<R> {
    /// Writes `rows` (pre-sorted ascending by key) as the file of
    /// `config`'s log's `seq`-th segment of this kind.
    pub(crate) fn write(config: &SpillConfig, seq: usize, rows: &[R]) -> Arc<Self> {
        debug_assert!(rows.windows(2).all(|w| w[0].key() < w[1].key()));
        let dir = &config.dir;
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("spill dir {}: {e}", dir.display()));
        let path = dir.join(format!("{}.{}{seq:04}.seg", config.prefix, R::TAG));
        let mut buf = Vec::with_capacity(rows.len() * R::BYTES);
        for r in rows {
            r.encode(&mut buf);
        }
        debug_assert_eq!(buf.len(), rows.len() * R::BYTES);
        File::create(&path)
            .and_then(|mut f| f.write_all(&buf))
            .unwrap_or_else(|e| panic!("spill segment write {}: {e}", path.display()));
        Arc::new(Segment {
            path,
            rows: rows.len(),
            kind: PhantomData,
        })
    }

    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Opens a chunked ascending scan.
    fn scan(self: &Arc<Self>) -> SegmentScan<R> {
        let file = File::open(&self.path)
            .unwrap_or_else(|e| panic!("spill segment open {}: {e}", self.path.display()));
        SegmentScan {
            seg: Arc::clone(self),
            file,
            next_row: 0,
            buf: Vec::new(),
        }
    }
}

/// Chunked reader over one segment, yielding its rows in key order.
struct SegmentScan<R> {
    seg: Arc<Segment<R>>,
    file: File,
    /// First row not yet read from the file.
    next_row: usize,
    /// The current chunk's unread rows, last row first.
    buf: Vec<R>,
}

impl<R: Row> SegmentScan<R> {
    /// Reads the next chunk of rows in one read from the file's cursor.
    /// The byte buffer is per chunk: kept per open segment, it would add
    /// to a merge's peak RSS.
    fn refill(&mut self) {
        let n = CHUNK_ROWS.min(self.seg.rows - self.next_row);
        let path = &self.seg.path;
        let mut bytes = vec![0u8; n * R::BYTES];
        self.file
            .read_exact(&mut bytes)
            .unwrap_or_else(|e| panic!("spill segment read {}: {e}", path.display()));
        for row in bytes.chunks_exact(R::BYTES).rev() {
            match R::decode(row) {
                Ok(r) => self.buf.push(r),
                Err(e) => panic!("corrupt spill segment {}: {e}", path.display()),
            }
        }
        self.next_row += n;
    }
}

impl<R: Row> Iterator for SegmentScan<R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        if self.buf.is_empty() && self.next_row < self.seg.rows {
            self.refill();
        }
        self.buf.pop()
    }
}

/// Every row of `segments`, read back to back in creation order: no key
/// order across segments, one file open at a time. For rows placed by
/// something other than their key (tx rows by `arrival_seq`); only
/// kinds whose segments are disjoint, which txs are by construction,
/// yield each key once this way.
pub(crate) fn back_to_back<R: Row>(segments: &[Arc<Segment<R>>]) -> impl Iterator<Item = R> + '_ {
    segments.iter().flat_map(Segment::scan)
}

/// Ascending-key merge over a log's segments of one kind plus its
/// residual in-memory rows. Equal keys fold under [`Row::fold`] in
/// segment creation order, in-memory rows last — the chronology live
/// recording folds in — so each key is yielded once.
pub(crate) struct Merge<R> {
    /// Undrained segment scans in creation order, and side by side the
    /// row each yields next: a row's minimum is one pass over a dense
    /// array, not a peek into every segment's buffer.
    segs: Vec<SegmentScan<R>>,
    heads: Vec<R>,
    mem: Peekable<std::vec::IntoIter<R>>,
}

/// Merges `segments` (creation order) with `mem` (pre-sorted ascending
/// by key).
pub(crate) fn merge<R: Row>(segments: &[Arc<Segment<R>>], mem: Vec<R>) -> Merge<R> {
    let mut segs = Vec::with_capacity(segments.len());
    let mut heads = Vec::with_capacity(segments.len());
    for seg in segments {
        let mut scan = seg.scan();
        if let Some(r) = scan.next() {
            heads.push(r);
            segs.push(scan);
        }
    }
    Merge {
        segs,
        heads,
        mem: mem.into_iter().peekable(),
    }
}

impl<R: Row> Iterator for Merge<R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        let min = self.heads.iter().chain(self.mem.peek()).map(R::key).min()?;
        let mut acc: Option<R> = None;
        let mut i = 0;
        while i < self.heads.len() {
            if self.heads[i].key() != min {
                i += 1;
                continue;
            }
            let r = match self.segs[i].next() {
                Some(next) => {
                    i += 1;
                    std::mem::replace(&mut self.heads[i - 1], next)
                }
                // `remove`, not `swap_remove`: folding needs creation order.
                None => {
                    self.segs.remove(i);
                    self.heads.remove(i)
                }
            };
            acc = Some(acc.map_or(r, |a| R::fold(a, r)));
        }
        if let Some(r) = self.mem.next_if(|r| r.key() == min) {
            acc = Some(acc.map_or(r, |a| R::fold(a, r)));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn cfg(tag: &str, prefix: &str) -> SpillConfig {
        SpillConfig {
            dir: std::env::temp_dir().join(format!("ethmeter-spill-test-{tag}")),
            budget_bytes: 0,
            prefix: prefix.into(),
        }
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
        let rows: Vec<BlockRecord> = (0..2500).map(|i| blk(i * 3, i, 1, 2)).collect();
        let seg = Segment::write(&cfg("blk", "a"), 0, &rows);
        let path = seg.path.clone();
        assert!(path.ends_with("a.blk0000.seg"));
        assert!(path.exists());
        assert_eq!(seg.rows, 2500);
        assert_eq!(std::fs::metadata(&path).expect("segment").len(), 2500 * 37);
        let back: Vec<BlockRecord> = merge(&[seg], Vec::new()).collect();
        assert_eq!(back, rows);
        assert!(!path.exists(), "file unlinked once the last Arc dropped");
    }

    #[test]
    fn tx_segment_roundtrips() {
        let rows: Vec<TxRecord> = (0..2100).map(|i| tx(i * 2 + 1, i)).collect();
        let seg = Segment::write(&cfg("tx", "a"), 0, &rows);
        assert!(seg.path.ends_with("a.txs0000.seg"));
        assert_eq!(
            std::fs::metadata(&seg.path).expect("segment").len(),
            2100 * 36
        );
        let back: Vec<TxRecord> = merge(&[seg], Vec::new()).collect();
        assert_eq!(back, rows);
    }

    /// Asserts that row `row` of a file of `width`-byte rows holds each
    /// `(offset, bytes)` field.
    fn assert_fields(file: &[u8], width: usize, row: usize, fields: &[(usize, &[u8])]) {
        for &(at, want) in fields {
            let got = &file[row * width + at..][..want.len()];
            assert_eq!(got, want, "row {row}, offset {at}");
        }
    }

    #[test]
    fn segment_rows_keep_each_field_at_its_documented_offset() {
        let config = cfg("layout", "l");
        let kinds = [BlockMsgKind::Announce, BlockMsgKind::FullBlock];
        let blocks: Vec<BlockRecord> = (0..2)
            .map(|i| BlockRecord {
                hash: BlockHash(0x1111 + i),
                first_local: SimTime::from_nanos(0x2222 + i),
                first_true: SimTime::from_nanos(0x3333 + i),
                first_kind: kinds[i as usize],
                first_from: NodeId(0x4444 + i as u32),
                announces: 0x5555 + i as u32,
                full_blocks: 0x6666 + i as u32,
            })
            .collect();
        let seg = Segment::write(&config, 0, &blocks);
        let file = std::fs::read(&seg.path).expect("segment");
        assert_eq!(file.len(), 2 * 37);
        for (row, r) in blocks.iter().enumerate() {
            let fields: [(usize, &[u8]); 7] = [
                (0, &r.hash.raw().to_le_bytes()),
                (8, &r.first_local.as_nanos().to_le_bytes()),
                (16, &r.first_true.as_nanos().to_le_bytes()),
                (24, &[row as u8]),
                (25, &r.first_from.raw().to_le_bytes()),
                (29, &r.announces.to_le_bytes()),
                (33, &r.full_blocks.to_le_bytes()),
            ];
            assert_fields(&file, 37, row, &fields);
        }
        let txs: Vec<TxRecord> = (0..2)
            .map(|i| TxRecord {
                id: TxId(0x7777 + i),
                first_local: SimTime::from_nanos(0x8888 + i),
                first_true: SimTime::from_nanos(0x9999 + i),
                from: NodeId(0xaaaa + i as u32),
                arrival_seq: 0xbbbb + i,
            })
            .collect();
        let seg = Segment::write(&config, 0, &txs);
        let file = std::fs::read(&seg.path).expect("segment");
        assert_eq!(file.len(), 2 * 36);
        for (row, r) in txs.iter().enumerate() {
            let fields: [(usize, &[u8]); 5] = [
                (0, &r.id.raw().to_le_bytes()),
                (8, &r.first_local.as_nanos().to_le_bytes()),
                (16, &r.first_true.as_nanos().to_le_bytes()),
                (24, &r.from.raw().to_le_bytes()),
                (28, &r.arrival_seq.to_le_bytes()),
            ];
            assert_fields(&file, 36, row, &fields);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt spill segment")]
    fn a_bad_kind_byte_panics_as_a_corrupt_segment() {
        let rows: Vec<BlockRecord> = (0..10).map(|i| blk(i, i, 1, 0)).collect();
        let seg = Segment::write(&cfg("corrupt", "c"), 0, &rows);
        // The kind byte sits at offset 24 of each 37-byte row; corrupt
        // row 4's.
        let mut bytes = std::fs::read(&seg.path).expect("segment");
        bytes[4 * 37 + 24] = 2;
        std::fs::write(&seg.path, bytes).expect("segment");
        merge(&[seg], Vec::new()).for_each(drop);
    }

    #[test]
    fn block_merge_folds_duplicates_in_segment_order() {
        let config = cfg("fold", "f");
        let from = |r: BlockRecord, n| BlockRecord {
            first_from: NodeId(n),
            ..r
        };
        // Segment 0 drains first. Segments 1 and 2 and the in-memory
        // residue all saw block 5 at one true time: the oldest source
        // keeps the first reception. Block 7 reached segment 2 strictly
        // earlier than segment 1, so segment 2's reception wins.
        let s0 = Segment::write(&config, 0, &[blk(1, 0, 1, 0)]);
        let s1 = Segment::write(
            &config,
            1,
            &[from(blk(5, 10, 2, 0), 1), from(blk(7, 30, 1, 0), 1)],
        );
        let s2 = Segment::write(
            &config,
            2,
            &[
                blk(3, 40, 1, 0),
                from(blk(5, 10, 0, 3), 2),
                from(blk(7, 20, 0, 1), 2),
            ],
        );
        let mem = vec![from(blk(5, 10, 1, 1), 3)];
        let out: Vec<BlockRecord> = merge(&[s0, s1, s2], mem).collect();
        let hashes: Vec<u64> = out.iter().map(|r| r.hash.raw()).collect();
        assert_eq!(hashes, [1, 3, 5, 7]);
        let five = out[2];
        assert_eq!((five.announces, five.full_blocks), (3, 4));
        assert_eq!((five.first_true, five.first_local), (t(10), t(11)));
        assert_eq!(five.first_from, NodeId(1), "a tie keeps the oldest source");
        let seven = out[3];
        assert_eq!((seven.announces, seven.full_blocks), (1, 1));
        assert_eq!((seven.first_true, seven.first_local), (t(20), t(21)));
        assert_eq!(seven.first_from, NodeId(2));
    }

    #[test]
    fn tx_merge_interleaves_sources_in_id_order() {
        let config = cfg("txmerge", "m");
        let s0 = Segment::write(&config, 0, &[tx(2, 0), tx(8, 1)]);
        let s1 = Segment::write(&config, 1, &[tx(4, 2)]);
        let mem = vec![tx(1, 3), tx(9, 4)];
        let ids: Vec<u64> = merge(&[s0, s1], mem).map(|r| r.id.raw()).collect();
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
