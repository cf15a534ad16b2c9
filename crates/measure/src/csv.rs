//! Dataset export/import in a stable CSV dialect.
//!
//! The paper publishes its measurement dataset; this module is our
//! equivalent. The format is deliberately plain (no quoting needed — all
//! fields are numeric or controlled identifiers) so it round-trips exactly
//! and loads into pandas with one call, like the original tooling.
//!
//! **Writing.** A private `RowWriter` renders rows into one fixed buffer
//! at a running index and hands the sink 64 KiB of text at a time. An
//! integer is cut into groups of eight decimal digits; each group is
//! built in one `u64` by multiply-shift steps (SWAR, "SIMD within a
//! register": 8 digits → two 4-digit lanes → four 2-digit lanes → eight
//! bytes) and written with one 8-byte store. The leading group drops its
//! leading zeros by shifting them out and advancing the index by the
//! digits kept, so the text is exactly `u64::to_string`'s. Transaction
//! rows are placed by `arrival_seq` into their slots as the log reads
//! them out in storage order (segments back to back, then the live map),
//! with no key-order merge; seqs that are not exactly `0..n` fall back to
//! the merged scan, stably sorted.
//!
//! **Parsing.** A plain row — unsigned decimal fields (and, for blocks,
//! an `ann`/`blk` tag) separated by single commas — is read in one byte
//! loop that accumulates each field's digits as it passes them. Any other
//! row (a `+` sign, an empty field, a value that overflows its column,
//! the wrong number of fields, an unknown tag, stray bytes) is parsed
//! again by the general path, `split_row` and `parse_int`, which alone
//! builds errors. So a row the fast loop accepts has the general path's
//! value, and every error is the general path's.

use std::fmt::{self, Write};
use std::str::FromStr;

use ethmeter_types::{BlockHash, NodeId, SimTime, TxId};

use crate::log::{BlockMsgKind, BlockRecord, ObserverLog, TxRecord};

/// Errors raised when parsing a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A row had the wrong number of fields.
    BadShape {
        /// 1-based line number.
        line: usize,
        /// Expected field count.
        expected: usize,
        /// Found field count.
        got: usize,
    },
    /// A field failed to parse as an integer.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
    },
    /// An unknown message-kind tag.
    BadKind {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadShape {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected} fields, got {got}"),
            ParseError::BadField { line, field } => {
                write!(f, "line {line}: invalid integer in field '{field}'")
            }
            ParseError::BadKind { line } => write!(f, "line {line}: unknown message kind"),
        }
    }
}

impl std::error::Error for ParseError {}

const BLOCK_HEADER: &str =
    "hash,first_local_ns,first_true_ns,first_kind,first_from,announces,full_blocks";
const TX_HEADER: &str = "tx,first_local_ns,first_true_ns,from,arrival_seq";

/// Quotes one CSV field when (and only when) it needs it, RFC-4180 style:
/// a field containing a comma, double quote, or line break is wrapped in
/// double quotes, with embedded quotes doubled. Everything else passes
/// through unchanged, so the numeric dataset columns above stay plain.
///
/// The observer-log exports never need this (all fields are numeric or
/// controlled identifiers); it exists for free-text fields in derived
/// reports — grid axis labels, pool names — so those exports stay
/// loadable by standard CSV parsers.
pub fn escape_field(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_owned()
    }
}

/// Inverts [`escape_field`]: strips RFC-4180 quoting if present.
///
/// # Errors
///
/// Returns `None` when the field is malformed (unbalanced quoting, or a
/// lone `"` inside a quoted field).
#[cfg(test)]
pub fn unescape_field(field: &str) -> Option<String> {
    let Some(inner) = field.strip_prefix('"') else {
        // Unquoted fields may not contain quotes or separators.
        if field.contains(['"', ',', '\n', '\r']) {
            return None;
        }
        return Some(field.to_owned());
    };
    let inner = inner.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            // Must be a doubled quote.
            if chars.next() != Some('"') {
                return None;
            }
        }
        out.push(c);
    }
    Some(out)
}

fn kind_tag(kind: BlockMsgKind) -> &'static str {
    match kind {
        BlockMsgKind::Announce => "ann",
        BlockMsgKind::FullBlock => "blk",
    }
}

/// Serializes an observer's block records (sorted by first true time, ties
/// by hash, so exports are deterministic). Reads through
/// [`ObserverLog::scan_blocks`], so spilled and in-memory logs export the
/// identical text (and therefore the identical campaign fingerprint).
pub fn blocks_to_csv(log: &ObserverLog) -> String {
    // Rows before text, sized from them: allocating the text first raises
    // a month-scale export's peak RSS by ~4 %.
    let rows = block_rows(log);
    let mut out = String::with_capacity(64 * (rows.len() + 1));
    write_block_rows(&mut out, &rows).expect("writing to String cannot fail");
    out
}

/// Writes the text [`blocks_to_csv`] returns into `out`, without building
/// it first (the campaign fingerprint hashes it this way).
pub(crate) fn write_blocks_csv(out: &mut impl Write, log: &ObserverLog) -> fmt::Result {
    write_block_rows(out, &block_rows(log))
}

fn block_rows(log: &ObserverLog) -> Vec<BlockRecord> {
    let mut rows: Vec<BlockRecord> = log.scan_blocks().collect();
    // Hashes are distinct, so the key is total and unstable sorting is
    // the stable order.
    rows.sort_unstable_by_key(|r| (r.first_true, r.hash));
    rows
}

fn write_block_rows(out: &mut impl Write, rows: &[BlockRecord]) -> fmt::Result {
    let mut w = RowWriter::new(out, BLOCK_HEADER);
    for r in rows {
        w.row_start()?;
        w.u64(r.hash.raw());
        w.comma();
        w.u64(r.first_local.as_nanos());
        w.comma();
        w.u64(r.first_true.as_nanos());
        w.comma();
        w.push(kind_tag(r.first_kind).as_bytes());
        w.comma();
        w.u64(u64::from(r.first_from.raw()));
        w.comma();
        w.u64(u64::from(r.announces));
        w.comma();
        w.u64(u64::from(r.full_blocks));
        w.push(b"\n");
    }
    w.finish()
}

/// Serializes an observer's transaction records (sorted by arrival seq).
/// Reads the log in storage order and places each row by its seq, with
/// [`ObserverLog::scan_txs`] as the fallback; spilled and in-memory logs
/// export the identical text — see [`blocks_to_csv`].
pub fn txs_to_csv(log: &ObserverLog) -> String {
    let rows = tx_rows(log);
    let mut out = String::with_capacity(48 * (rows.len() + 1));
    write_tx_rows(&mut out, &rows).expect("writing to String cannot fail");
    out
}

/// Writes the text [`txs_to_csv`] returns into `out`, without building it
/// first.
pub(crate) fn write_txs_csv(out: &mut impl Write, log: &ObserverLog) -> fmt::Result {
    write_tx_rows(out, &tx_rows(log))
}

/// The log's tx rows in `arrival_seq` order: placed from its storage
/// order, with the merged scan as the fallback.
pub(crate) fn tx_rows(log: &ObserverLog) -> Vec<TxRecord> {
    by_arrival(log.tx_count(), log.txs_unordered(), || log.scan_txs())
}

/// The `n` rows `rows` yields, in any order, ordered by `arrival_seq` as
/// a stable sort of `scan`'s order would order them.
///
/// A log numbers its arrivals `0..n`, so each row is stored straight into
/// slot `arrival_seq` as `rows` yields it: O(1) per row, one buffer, and
/// independent stores where an in-place cycle walk would chase one cache
/// miss per row. When the seqs are a permutation of `0..n` the slots
/// hold the only order there is, whatever order the rows came in. A row
/// whose slot is out of range or already filled rules that out; then
/// `scan` runs into the stable sort. `n` rows each filling a slot of its
/// own fill all `n`: no pass afterwards checks them.
fn by_arrival<I: Iterator<Item = TxRecord>>(
    n: usize,
    rows: impl Iterator<Item = TxRecord>,
    scan: impl FnOnce() -> I,
) -> Vec<TxRecord> {
    const UNFILLED: TxRecord = TxRecord {
        id: TxId(0),
        first_local: SimTime::ZERO,
        first_true: SimTime::ZERO,
        from: NodeId(0),
        arrival_seq: u64::MAX,
    };
    let mut placed = vec![UNFILLED; n];
    let (mut read, mut exact) = (0, true);
    // `for_each`, not `for`: the segment readers chained behind `rows`
    // then run as one fold each, which halved the placement's time.
    rows.for_each(|r| {
        read += 1;
        match usize::try_from(r.arrival_seq)
            .ok()
            .and_then(|i| placed.get_mut(i))
        {
            // A slot in range holds `u64::MAX` until it is filled.
            Some(slot) if slot.arrival_seq == u64::MAX => *slot = r,
            _ => exact = false,
        }
    });
    if read == n && exact {
        return placed;
    }
    placed = scan().collect();
    placed.sort_by_key(|r| r.arrival_seq);
    placed
}

fn write_tx_rows(out: &mut impl Write, rows: &[TxRecord]) -> fmt::Result {
    let mut w = RowWriter::new(out, TX_HEADER);
    for r in rows {
        w.row_start()?;
        w.u64(r.id.raw());
        w.comma();
        w.u64(r.first_local.as_nanos());
        w.comma();
        w.u64(r.first_true.as_nanos());
        w.comma();
        w.u64(u64::from(r.from.raw()));
        w.comma();
        w.u64(r.arrival_seq);
        w.push(b"\n");
    }
    w.finish()
}

/// Bytes [`RowWriter`] buffers before handing a chunk to its sink.
const CHUNK_BYTES: usize = 64 << 10;

/// Upper bound of one row's bytes: seven fields of at most 20 digits,
/// their separators and the newline.
const MAX_ROW_BYTES: usize = 7 * 21;

/// `b'0'` in every byte: turns eight digit values into their ASCII.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// The eight decimal digits of `x < 10^8`, leading zeros included, one
/// per byte with the first digit in the lowest byte, so a little-endian
/// store writes them in reading order. Each step halves the lane width:
/// `y / 100` as `(y * 10_486) >> 20` is exact for `y < 10^4`, `y / 10` as
/// `(y * 103) >> 10` for `y < 100`, and no lane's product reaches the
/// next lane.
fn digits8(x: u64) -> u64 {
    debug_assert!(x < 100_000_000);
    // Four digits per 32-bit lane, the high four in the low lane.
    let v = (x / 10_000) | ((x % 10_000) << 32);
    // Two per 16-bit lane.
    let hi = ((v * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let v = hi | ((v - hi * 100) << 16);
    // One per byte.
    let hi = ((v * 103) >> 10) & 0x000f_000f_000f_000f;
    hi | ((v - hi * 10) << 8)
}

/// Renders rows into one fixed buffer at a running index and hands the
/// sink a chunk every [`CHUNK_BYTES`], so a row costs its digits, not a
/// formatter call or a capacity check per field. Digits go eight at a time
/// (see [`digits8`]) as one 8-byte store; a store may run up to 7 bytes
/// past the text, which the next field overwrites or the flush leaves
/// out. The sink sees the same text in fewer, larger pieces.
struct RowWriter<'a, W: Write> {
    out: &'a mut W,
    /// Room for a full chunk, one more row, and one store past it.
    buf: Box<[u8]>,
    /// Bytes of text in `buf`.
    at: usize,
}

impl<'a, W: Write> RowWriter<'a, W> {
    fn new(out: &'a mut W, header: &str) -> Self {
        let mut w = RowWriter {
            out,
            buf: vec![0; CHUNK_BYTES + MAX_ROW_BYTES + 8].into_boxed_slice(),
            at: 0,
        };
        w.push(header.as_bytes());
        w.push(b"\n");
        w
    }

    /// Flushes the buffer if the next row might not fit.
    fn row_start(&mut self) -> fmt::Result {
        if self.at >= CHUNK_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes `v`'s decimal digits — exactly `v.to_string()`'s bytes.
    fn u64(&mut self, v: u64) {
        const E8: u64 = 100_000_000;
        if v < E8 {
            self.leading(v);
        } else if v < E8 * E8 {
            self.leading(v / E8);
            self.group(v % E8);
        } else {
            // At most 1,844: four digits lead.
            self.leading(v / (E8 * E8));
            let rest = v % (E8 * E8);
            self.group(rest / E8);
            self.group(rest % E8);
        }
    }

    /// The first digits of a number: `v < 10^8` without its leading
    /// zeros, which are the low zero bytes of [`digits8`]; zero keeps one.
    fn leading(&mut self, v: u64) {
        let digits = digits8(v);
        let skip = (digits.trailing_zeros() / 8).min(7);
        self.store((digits | ASCII_ZEROS) >> (8 * skip), 8 - skip as usize);
    }

    /// Eight digits after the leading ones, zeros included.
    fn group(&mut self, v: u64) {
        self.store(digits8(v) | ASCII_ZEROS, 8);
    }

    /// Stores all eight bytes of `word` and keeps the first `len`.
    fn store(&mut self, word: u64, len: usize) {
        self.buf[self.at..self.at + 8].copy_from_slice(&word.to_le_bytes());
        self.at += len;
    }

    fn comma(&mut self) {
        self.buf[self.at] = b',';
        self.at += 1;
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    fn flush(&mut self) -> fmt::Result {
        // Digits, separators and the ASCII header: always UTF-8.
        let text = std::str::from_utf8(&self.buf[..self.at]).map_err(|_| fmt::Error)?;
        self.out.write_str(text)?;
        self.at = 0;
        Ok(())
    }

    fn finish(mut self) -> fmt::Result {
        self.flush()
    }
}

/// Parses an integer field at its own width, so an out-of-range value is
/// a [`ParseError::BadField`], not a silent truncation.
fn parse_int<T: FromStr>(s: &str, line: usize, field: &'static str) -> Result<T, ParseError> {
    s.parse().map_err(|_| ParseError::BadField { line, field })
}

/// Splits `row` at commas into exactly `N` fields, or reports the row's
/// actual field count as a [`ParseError::BadShape`]. A byte loop: rows
/// are short, and `str::split`'s per-field search costs more than
/// parsing the field.
fn split_row<const N: usize>(row: &str, line: usize) -> Result<[&str; N], ParseError> {
    let mut fields = [""; N];
    let mut got = 0;
    let mut start = 0;
    for (at, &b) in row.as_bytes().iter().enumerate() {
        if b == b',' {
            if let Some(slot) = fields.get_mut(got) {
                // A comma is ASCII, so both ends are char boundaries.
                *slot = &row[start..at];
            }
            got += 1;
            start = at + 1;
        }
    }
    if let Some(slot) = fields.get_mut(got) {
        *slot = &row[start..];
    }
    got += 1;
    if got != N {
        return Err(ParseError::BadShape {
            line,
            expected: N,
            got,
        });
    }
    Ok(fields)
}

/// Parses a block-record CSV produced by [`blocks_to_csv`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first malformed row.
pub fn blocks_from_csv(text: &str) -> Result<Vec<BlockRecord>, ParseError> {
    let mut out = Vec::new();
    for (i, row) in text.lines().enumerate() {
        if i == 0 || row.is_empty() {
            continue;
        }
        out.push(match plain_block(row) {
            Some(r) => r,
            None => block_row(row, i + 1)?,
        });
    }
    Ok(out)
}

/// A block row the general way: split, check the tag, parse each field.
fn block_row(row: &str, line: usize) -> Result<BlockRecord, ParseError> {
    let [hash, local, true_ns, kind, from, announces, full_blocks] = split_row(row, line)?;
    let kind = match kind {
        "ann" => BlockMsgKind::Announce,
        "blk" => BlockMsgKind::FullBlock,
        _ => return Err(ParseError::BadKind { line }),
    };
    Ok(BlockRecord {
        hash: BlockHash(parse_int(hash, line, "hash")?),
        first_local: SimTime::from_nanos(parse_int(local, line, "first_local_ns")?),
        first_true: SimTime::from_nanos(parse_int(true_ns, line, "first_true_ns")?),
        first_kind: kind,
        first_from: NodeId(parse_int(from, line, "first_from")?),
        announces: parse_int(announces, line, "announces")?,
        full_blocks: parse_int(full_blocks, line, "full_blocks")?,
    })
}

/// A plain block row in one pass, or `None` for [`block_row`] to parse
/// (or reject).
fn plain_block(row: &str) -> Option<BlockRecord> {
    let mut p = Plain::new(row);
    let hash = p.field()?;
    let local = p.field()?;
    let true_ns = p.field()?;
    let kind = p.kind()?;
    let from = p.field()?;
    let announces = p.field()?;
    let full_blocks = p.last()?;
    Some(BlockRecord {
        hash: BlockHash(hash),
        first_local: SimTime::from_nanos(local),
        first_true: SimTime::from_nanos(true_ns),
        first_kind: kind,
        first_from: NodeId(u32::try_from(from).ok()?),
        announces: u32::try_from(announces).ok()?,
        full_blocks: u32::try_from(full_blocks).ok()?,
    })
}

/// Parses a transaction-record CSV produced by [`txs_to_csv`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first malformed row.
pub fn txs_from_csv(text: &str) -> Result<Vec<TxRecord>, ParseError> {
    let mut out = Vec::new();
    for (i, row) in text.lines().enumerate() {
        if i == 0 || row.is_empty() {
            continue;
        }
        out.push(match plain_tx(row) {
            Some(r) => r,
            None => tx_row(row, i + 1)?,
        });
    }
    Ok(out)
}

/// A transaction row the general way (see [`block_row`]).
fn tx_row(row: &str, line: usize) -> Result<TxRecord, ParseError> {
    let [id, local, true_ns, from, seq] = split_row(row, line)?;
    Ok(TxRecord {
        id: TxId(parse_int(id, line, "tx")?),
        first_local: SimTime::from_nanos(parse_int(local, line, "first_local_ns")?),
        first_true: SimTime::from_nanos(parse_int(true_ns, line, "first_true_ns")?),
        from: NodeId(parse_int(from, line, "from")?),
        arrival_seq: parse_int(seq, line, "arrival_seq")?,
    })
}

/// A plain transaction row in one pass, or `None` for [`tx_row`].
fn plain_tx(row: &str) -> Option<TxRecord> {
    let mut p = Plain::new(row);
    let id = p.field()?;
    let local = p.field()?;
    let true_ns = p.field()?;
    let from = p.field()?;
    let seq = p.last()?;
    Some(TxRecord {
        id: TxId(id),
        first_local: SimTime::from_nanos(local),
        first_true: SimTime::from_nanos(true_ns),
        from: NodeId(u32::try_from(from).ok()?),
        arrival_seq: seq,
    })
}

/// The unread bytes of a row the one-pass parsers walk. Every method
/// returns `None` where the row is not plain, and the caller hands the
/// row to the general path, which finds the same value or the error.
struct Plain<'a> {
    rest: &'a [u8],
}

impl<'a> Plain<'a> {
    fn new(row: &'a str) -> Self {
        Plain {
            rest: row.as_bytes(),
        }
    }

    /// One or more digits that fit a `u64`, and the byte they stop at
    /// (`None` at the end of the row), which is consumed too. Leaving the
    /// stop byte for the caller to strip made the month's import 20 %
    /// slower.
    fn digits(&mut self) -> Option<(u64, Option<u8>)> {
        let mut v: u64 = 0;
        let mut read = 0;
        for &b in self.rest {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = v.checked_mul(10)?.checked_add(u64::from(d))?;
            read += 1;
        }
        let stop = self.rest.get(read).copied();
        self.rest = self.rest.get(read + 1..).unwrap_or_default();
        (read > 0).then_some((v, stop))
    }

    /// A field followed by a comma.
    fn field(&mut self) -> Option<u64> {
        match self.digits()? {
            (v, Some(b',')) => Some(v),
            _ => None,
        }
    }

    /// The row's last field.
    fn last(&mut self) -> Option<u64> {
        match self.digits()? {
            (v, None) => Some(v),
            _ => None,
        }
    }

    /// A message-kind tag followed by a comma.
    fn kind(&mut self) -> Option<BlockMsgKind> {
        let (kind, rest) = match self.rest.split_at_checked(4)? {
            (b"ann,", rest) => (BlockMsgKind::Announce, rest),
            (b"blk,", rest) => (BlockMsgKind::FullBlock, rest),
            _ => return None,
        };
        self.rest = rest;
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> ObserverLog {
        let mut log = ObserverLog::new();
        log.record_block_msg(
            BlockHash(11),
            BlockMsgKind::FullBlock,
            NodeId(3),
            SimTime::from_nanos(1_500),
            SimTime::from_nanos(1_000),
        );
        log.record_block_msg(
            BlockHash(11),
            BlockMsgKind::Announce,
            NodeId(4),
            SimTime::from_nanos(2_500),
            SimTime::from_nanos(2_000),
        );
        log.record_block_msg(
            BlockHash(7),
            BlockMsgKind::Announce,
            NodeId(5),
            SimTime::from_nanos(900),
            SimTime::from_nanos(800),
        );
        log.record_tx(
            TxId(42),
            NodeId(1),
            SimTime::from_nanos(10),
            SimTime::from_nanos(12),
        );
        log.record_tx(
            TxId(43),
            NodeId(2),
            SimTime::from_nanos(20),
            SimTime::from_nanos(22),
        );
        log
    }

    #[test]
    fn block_csv_round_trip() {
        let log = sample_log();
        let csv = blocks_to_csv(&log);
        let parsed = blocks_from_csv(&csv).expect("round trip");
        assert_eq!(parsed.len(), 2);
        // Sorted by first_true: block 7 first.
        assert_eq!(parsed[0].hash, BlockHash(7));
        assert_eq!(parsed[1].hash, BlockHash(11));
        assert_eq!(parsed[1].announces, 1);
        assert_eq!(parsed[1].full_blocks, 1);
        assert_eq!(parsed[1].first_kind, BlockMsgKind::FullBlock);
        // Serialization is deterministic: byte-identical on re-export.
        assert_eq!(csv, blocks_to_csv(&log));
    }

    #[test]
    fn tx_csv_round_trip() {
        let log = sample_log();
        let csv = txs_to_csv(&log);
        let parsed = txs_from_csv(&csv).expect("round trip");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, TxId(42));
        assert_eq!(parsed[0].arrival_seq, 0);
        assert_eq!(parsed[1].id, TxId(43));
    }

    #[test]
    fn parse_errors_are_precise() {
        let bad_shape = "hash,first_local_ns,first_true_ns,first_kind,first_from,announces,full_blocks\n1,2,3\n";
        match blocks_from_csv(bad_shape) {
            Err(ParseError::BadShape {
                line: 2, got: 3, ..
            }) => {}
            other => panic!("{other:?}"),
        }
        let bad_kind = format!("{BLOCK_HEADER}\n1,2,3,zzz,4,5,6\n");
        assert_eq!(
            blocks_from_csv(&bad_kind),
            Err(ParseError::BadKind { line: 2 })
        );
        let bad_field = format!("{TX_HEADER}\nxx,2,3,4,5\n");
        match txs_from_csv(&bad_field) {
            Err(ParseError::BadField {
                line: 2,
                field: "tx",
            }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_logs_serialize_headers_only() {
        let log = ObserverLog::new();
        assert_eq!(blocks_to_csv(&log).lines().count(), 1);
        assert_eq!(txs_to_csv(&log).lines().count(), 1);
        assert!(blocks_from_csv(&blocks_to_csv(&log))
            .expect("ok")
            .is_empty());
    }

    #[test]
    fn error_display() {
        let e = ParseError::BadShape {
            line: 3,
            expected: 7,
            got: 2,
        };
        assert!(e.to_string().contains("line 3"));
        assert!(ParseError::BadField {
            line: 4,
            field: "tx"
        }
        .to_string()
        .contains("'tx'"));
        assert!(ParseError::BadKind { line: 5 }
            .to_string()
            .contains("line 5"));
    }

    #[test]
    fn every_block_field_reports_its_own_parse_error() {
        // One past u32::MAX: a u32 field must reject it, not wrap to 0.
        let overflow = "4294967296";
        for (i, field, bad) in [
            (0, "hash", "not-a-number"),
            (1, "first_local_ns", "not-a-number"),
            (2, "first_true_ns", "not-a-number"),
            // index 3 is the kind tag -> BadKind, covered below
            (4, "first_from", "not-a-number"),
            (5, "announces", "not-a-number"),
            (6, "full_blocks", "not-a-number"),
            (4, "first_from", overflow),
            (5, "announces", overflow),
            (6, "full_blocks", overflow),
        ] {
            let mut row: Vec<&str> = vec!["1", "2", "3", "ann", "4", "5", "6"];
            row[i] = bad;
            let text = format!("{BLOCK_HEADER}\n{}\n", row.join(","));
            assert_eq!(
                blocks_from_csv(&text),
                Err(ParseError::BadField { line: 2, field }),
                "field {i}"
            );
        }
        for (i, field, bad) in [
            (0, "tx", "-9"),
            (1, "first_local_ns", "-9"),
            (2, "first_true_ns", "-9"),
            (3, "from", "-9"),
            (4, "arrival_seq", "-9"),
            (3, "from", overflow),
        ] {
            let mut row: Vec<&str> = vec!["1", "2", "3", "4", "5"];
            row[i] = bad;
            let text = format!("{TX_HEADER}\n{}\n", row.join(","));
            assert_eq!(
                txs_from_csv(&text),
                Err(ParseError::BadField { line: 2, field }),
                "field {i}"
            );
        }
        // Shape errors win over field errors and report the found arity.
        assert_eq!(
            txs_from_csv(&format!("{TX_HEADER}\n1,2,3,4,5,6\n")),
            Err(ParseError::BadShape {
                line: 2,
                expected: 5,
                got: 6
            })
        );
    }

    #[test]
    fn field_escaping_round_trips() {
        for s in [
            "",
            "plain",
            "with,comma",
            "with\"quote",
            "\"fully,quoted\"",
            "line\nbreak",
            "tx_rate=0.5,gateways=\"eu\"",
        ] {
            let escaped = escape_field(s);
            assert_eq!(unescape_field(&escaped).as_deref(), Some(s), "{s:?}");
            // Escaped fields never contain a bare separator outside quotes.
            if escaped.contains(',') {
                assert!(escaped.starts_with('"') && escaped.ends_with('"'));
            }
        }
        assert_eq!(escape_field("plain"), "plain", "no gratuitous quoting");
        // Malformed quoting is rejected, not mis-parsed.
        assert_eq!(unescape_field("\"unterminated"), None);
        assert_eq!(unescape_field("\"lone\"quote\""), None);
        assert_eq!(unescape_field("bare,comma"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds an observer log from generated block/tx event tuples,
    /// stressing duplicate hashes (reception counters), kind mixes, and
    /// extreme timestamps.
    fn build_log(
        block_events: &[(u64, u8, u32, u64, u64)],
        tx_events: &[(u64, u32, u64, u64)],
    ) -> ObserverLog {
        let mut log = ObserverLog::new();
        for &(hash, kind, from, local, true_t) in block_events {
            // Bias a share of events onto few hashes so announce/full
            // counters exceed 1, and include u64::MAX-ish edge times.
            let kind = if kind % 2 == 0 {
                BlockMsgKind::Announce
            } else {
                BlockMsgKind::FullBlock
            };
            log.record_block_msg(
                BlockHash(hash % 7 + 1),
                kind,
                NodeId(from),
                SimTime::from_nanos(local),
                SimTime::from_nanos(true_t),
            );
        }
        for &(id, from, local, true_t) in tx_events {
            log.record_tx(
                TxId(id),
                NodeId(from),
                SimTime::from_nanos(local),
                SimTime::from_nanos(true_t),
            );
        }
        log
    }

    proptest! {
        /// blocks_to_csv -> blocks_from_csv is lossless for arbitrary
        /// logs: the parsed rows equal the log's records in export order.
        #[test]
        fn block_csv_round_trips(
            events in proptest::collection::vec(
                (0u64..u64::MAX, 0u8..4, 0u32..1000, 0u64..u64::MAX, 0u64..u64::MAX),
                0..40,
            ),
        ) {
            let log = build_log(&events, &[]);
            let csv = blocks_to_csv(&log);
            let parsed = blocks_from_csv(&csv).expect("well-formed export");
            let mut expected: Vec<BlockRecord> = log.scan_blocks().collect();
            expected.sort_by_key(|r| (r.first_true, r.hash));
            prop_assert_eq!(parsed, expected);
            // Re-export is byte-identical (deterministic serialization).
            let relog = build_log(&events, &[]);
            prop_assert_eq!(csv, blocks_to_csv(&relog));
        }

        /// txs_to_csv -> txs_from_csv is lossless and order-preserving.
        #[test]
        fn tx_csv_round_trips(
            events in proptest::collection::vec(
                (0u64..u64::MAX, 0u32..1000, 0u64..u64::MAX, 0u64..u64::MAX),
                0..40,
            ),
        ) {
            let log = build_log(&[], &events);
            let csv = txs_to_csv(&log);
            let parsed = txs_from_csv(&csv).expect("well-formed export");
            let mut expected: Vec<TxRecord> = log.scan_txs().collect();
            expected.sort_by_key(|r| r.arrival_seq);
            prop_assert_eq!(parsed, expected);
        }

        /// escape_field/unescape_field round-trip arbitrary label text,
        /// including embedded quotes, commas, and control characters.
        #[test]
        fn field_escaping_round_trips_arbitrary_text(
            chars in proptest::collection::vec(0u8..128, 0..24),
        ) {
            let s: String = chars
                .iter()
                .map(|&b| match b % 8 {
                    0 => ',',
                    1 => '"',
                    2 => '\n',
                    _ => char::from(b'a' + (b % 26)),
                })
                .collect();
            let escaped = escape_field(&s);
            prop_assert_eq!(unescape_field(&escaped), Some(s));
        }
    }
}

/// The row codec against the formatter-based codec it replaced: the text
/// it writes, the rows and errors it parses, and the arrival order it
/// sorts must all be the reference's.
#[cfg(test)]
mod codec {
    use super::*;
    use proptest::prelude::*;

    /// The reference writer: one `writeln!` per row.
    fn reference_text(blocks: &[BlockRecord], txs: &[TxRecord]) -> (String, String) {
        let mut b = format!("{BLOCK_HEADER}\n");
        for r in blocks {
            writeln!(
                b,
                "{},{},{},{},{},{},{}",
                r.hash.raw(),
                r.first_local.as_nanos(),
                r.first_true.as_nanos(),
                kind_tag(r.first_kind),
                r.first_from.raw(),
                r.announces,
                r.full_blocks
            )
            .expect("String");
        }
        let mut t = format!("{TX_HEADER}\n");
        for r in txs {
            writeln!(
                t,
                "{},{},{},{},{}",
                r.id.raw(),
                r.first_local.as_nanos(),
                r.first_true.as_nanos(),
                r.from.raw(),
                r.arrival_seq
            )
            .expect("String");
        }
        (b, t)
    }

    /// The reference parser: a `Vec<&str>` of fields per row.
    fn reference_blocks_from_csv(text: &str) -> Result<Vec<BlockRecord>, ParseError> {
        let mut out = Vec::new();
        for (i, row) in text.lines().enumerate() {
            if i == 0 || row.is_empty() {
                continue;
            }
            let line = i + 1;
            let fields: Vec<&str> = row.split(',').collect();
            if fields.len() != 7 {
                return Err(ParseError::BadShape {
                    line,
                    expected: 7,
                    got: fields.len(),
                });
            }
            let kind = match fields[3] {
                "ann" => BlockMsgKind::Announce,
                "blk" => BlockMsgKind::FullBlock,
                _ => return Err(ParseError::BadKind { line }),
            };
            out.push(BlockRecord {
                hash: BlockHash(parse_int(fields[0], line, "hash")?),
                first_local: SimTime::from_nanos(parse_int(fields[1], line, "first_local_ns")?),
                first_true: SimTime::from_nanos(parse_int(fields[2], line, "first_true_ns")?),
                first_kind: kind,
                first_from: NodeId(parse_int(fields[4], line, "first_from")?),
                announces: parse_int(fields[5], line, "announces")?,
                full_blocks: parse_int(fields[6], line, "full_blocks")?,
            });
        }
        Ok(out)
    }

    fn reference_txs_from_csv(text: &str) -> Result<Vec<TxRecord>, ParseError> {
        let mut out = Vec::new();
        for (i, row) in text.lines().enumerate() {
            if i == 0 || row.is_empty() {
                continue;
            }
            let line = i + 1;
            let fields: Vec<&str> = row.split(',').collect();
            if fields.len() != 5 {
                return Err(ParseError::BadShape {
                    line,
                    expected: 5,
                    got: fields.len(),
                });
            }
            out.push(TxRecord {
                id: TxId(parse_int(fields[0], line, "tx")?),
                first_local: SimTime::from_nanos(parse_int(fields[1], line, "first_local_ns")?),
                first_true: SimTime::from_nanos(parse_int(fields[2], line, "first_true_ns")?),
                from: NodeId(parse_int(fields[3], line, "from")?),
                arrival_seq: parse_int(fields[4], line, "arrival_seq")?,
            });
        }
        Ok(out)
    }

    /// `v` as [`RowWriter`] writes it.
    fn rendered(v: u64) -> String {
        let mut out = String::new();
        let mut w = RowWriter::new(&mut out, "");
        w.u64(v);
        w.finish().expect("String");
        out.split_off(1)
    }

    /// Every edge value in every column: the one-pass loop must take
    /// the reference's value or leave the row to the general path.
    #[test]
    fn one_pass_rows_match_the_reference_at_every_edge() {
        let edges = [
            "0",
            "007",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "018446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "+5",
            "-0",
            "",
            "5 ",
            "1e3",
            "ann",
        ];
        let plain_block = ["1", "2", "3", "blk", "4", "5", "6"];
        let plain_tx = ["1", "2", "3", "4", "5"];
        for edge in edges {
            for at in 0..plain_block.len() {
                let mut row = plain_block;
                row[at] = edge;
                let text = format!("{BLOCK_HEADER}\n{}\n", row.join(","));
                assert_eq!(
                    blocks_from_csv(&text),
                    reference_blocks_from_csv(&text),
                    "{text}"
                );
            }
            for at in 0..plain_tx.len() {
                let mut row = plain_tx;
                row[at] = edge;
                let text = format!("{TX_HEADER}\n{}\n", row.join(","));
                assert_eq!(txs_from_csv(&text), reference_txs_from_csv(&text), "{text}");
            }
        }
        // Row ends and separators the loop must not accept.
        for row in [
            "1,2,3,4,5,",
            ",1,2,3,4,5",
            "1,2,3,4,,5",
            "1,2,3,4,5\r",
            "1,2,3,4",
        ] {
            let text = format!("{TX_HEADER}\n{row}\n");
            assert_eq!(
                txs_from_csv(&text),
                reference_txs_from_csv(&text),
                "{row:?}"
            );
        }
        for row in [
            "1,2,3,blk,4,5,6,",
            "1,2,3,blkx,4,5,6",
            "1,2,3,bl,4,5,6",
            "1,2,3,ann4,5,6",
        ] {
            let text = format!("{BLOCK_HEADER}\n{row}\n");
            assert_eq!(
                blocks_from_csv(&text),
                reference_blocks_from_csv(&text),
                "{row:?}"
            );
        }
    }

    #[test]
    fn u64_writer_matches_display_at_every_digit_boundary() {
        let mut edges = vec![0, 9, 10, 99, 100, u64::MAX, u64::MAX - 1];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p, p + 1]);
        }
        for v in edges {
            assert_eq!(rendered(v), format!("{v}"));
        }
    }

    /// One generated CSV field: mostly valid integers of every length,
    /// else a sign, an empty field, an overflow, a kind tag or junk.
    fn field(x: u64) -> String {
        let n = x >> (8 + (x >> 5) % 56);
        match x % 32 {
            0..=23 => n.to_string(),
            24 => format!("+{n}"),
            25 => format!("-{n}"),
            26 => String::new(),
            27 => "18446744073709551616".into(),
            28 => u64::MAX.to_string(),
            29 => "ann".into(),
            30 => "blk".into(),
            _ => format!("{n}x"),
        }
    }

    /// A dataset text from generated rows; an even selector pads or cuts
    /// the row to `arity` (and for blocks puts a valid tag at field 3),
    /// so both well- and ill-shaped rows occur.
    fn text(header: &str, arity: usize, rows: &[(u8, Vec<u64>)]) -> String {
        let mut out = format!("{header}\n");
        for (sel, raw) in rows {
            let mut fields: Vec<String> = raw.iter().map(|&x| field(x)).collect();
            if sel % 2 == 0 {
                fields.resize(arity, "7".into());
                if arity == 7 && sel % 4 == 0 {
                    fields[3] = "blk".into();
                }
            }
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    proptest! {
        #[test]
        fn u64_writer_matches_display(x in 0u64..u64::MAX, shift in 0u32..64) {
            let v = x >> shift;
            prop_assert_eq!(rendered(v), format!("{v}"));
        }

        #[test]
        fn parsers_match_the_split_collect_reference(
            rows in proptest::collection::vec(
                (0u8..8, proptest::collection::vec(0u64..u64::MAX, 0..10)),
                0..6,
            ),
        ) {
            let blocks = text(BLOCK_HEADER, 7, &rows);
            prop_assert_eq!(blocks_from_csv(&blocks), reference_blocks_from_csv(&blocks));
            let txs = text(TX_HEADER, 5, &rows);
            prop_assert_eq!(txs_from_csv(&txs), reference_txs_from_csv(&txs));
        }

        /// Exports span several writer chunks: ~1,500 rows of up to ~100
        /// bytes each.
        #[test]
        fn row_writer_matches_the_formatter_reference(
            seed in 0u64..u64::MAX,
            rows in 0usize..1_500,
        ) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let mut log = ObserverLog::new();
            for _ in 0..rows {
                let x = rng.next_u64();
                let wide = |v: u64| v >> (x % 64);
                log.record_block_msg(
                    BlockHash(rng.next_u64()),
                    if x % 2 == 0 { BlockMsgKind::Announce } else { BlockMsgKind::FullBlock },
                    NodeId(rng.next_u64() as u32),
                    SimTime::from_nanos(wide(rng.next_u64())),
                    SimTime::from_nanos(wide(rng.next_u64())),
                );
                log.record_tx(
                    TxId(rng.next_u64()),
                    NodeId(rng.next_u64() as u32),
                    SimTime::from_nanos(wide(rng.next_u64())),
                    SimTime::from_nanos(wide(rng.next_u64())),
                );
            }
            let (blocks, txs) = reference_text(&block_rows(&log), &tx_rows(&log));
            prop_assert_eq!(blocks_to_csv(&log), blocks);
            prop_assert_eq!(txs_to_csv(&log), txs);
        }

        /// Arbitrary seqs — duplicates, gaps, out of range, a row too
        /// many or too few — order exactly as the stable sort of the scan
        /// order; permutations of `0..n` too.
        #[test]
        fn arrival_order_equals_the_stable_sort(
            seqs in proptest::collection::vec(0u64..40, 0..40),
            permute in 0u8..2,
            miscount in 0usize..3,
        ) {
            let seqs: Vec<u64> = if permute == 1 {
                // A permutation of 0..n: rank each draw (ties by position).
                let mut order: Vec<usize> = (0..seqs.len()).collect();
                order.sort_by_key(|&i| seqs[i]);
                let mut perm = vec![0; seqs.len()];
                for (rank, &i) in order.iter().enumerate() {
                    perm[i] = rank as u64;
                }
                perm
            } else {
                seqs
            };
            let rows: Vec<TxRecord> = seqs
                .iter()
                .enumerate()
                .map(|(i, &seq)| TxRecord {
                    id: TxId(3 * i as u64 + 1),
                    first_local: SimTime::from_nanos(i as u64),
                    first_true: SimTime::from_nanos(i as u64),
                    from: NodeId(i as u32),
                    arrival_seq: seq,
                })
                .collect();
            let mut expected = rows.clone();
            expected.sort_by_key(|r| r.arrival_seq);
            // `n` as the log counts it, or off by one either way.
            let n = (rows.len() + miscount).saturating_sub(1);
            // The rows arrive reversed; the fallback scans them in order.
            let placed = by_arrival(n, rows.iter().rev().copied(), || rows.iter().copied());
            prop_assert_eq!(&placed, &expected);
            // A repeated seq beside a full permutation fills every slot.
            let mut extra = rows.clone();
            extra.extend(rows.first().copied());
            expected.extend(rows.first().copied());
            expected.sort_by_key(|r| r.arrival_seq);
            let placed = by_arrival(rows.len(), extra.iter().rev().copied(), || extra.iter().copied());
            prop_assert_eq!(placed, expected);
        }
    }
}
