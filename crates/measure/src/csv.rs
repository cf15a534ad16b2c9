//! Dataset export/import in a stable CSV dialect.
//!
//! The paper publishes its measurement dataset; this module is our
//! equivalent. The format is deliberately plain (no quoting needed — all
//! fields are numeric or controlled identifiers) so it round-trips exactly
//! and loads into pandas with one call, like the original tooling.

use std::fmt::{self, Write};
use std::num::ParseIntError;

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
    write_block_rows(&mut out, rows).expect("writing to String cannot fail");
    out
}

/// Writes the text [`blocks_to_csv`] returns into `out`, without building
/// it first (the campaign fingerprint hashes it this way).
pub(crate) fn write_blocks_csv(out: &mut impl Write, log: &ObserverLog) -> fmt::Result {
    write_block_rows(out, block_rows(log))
}

fn block_rows(log: &ObserverLog) -> Vec<BlockRecord> {
    let mut rows: Vec<BlockRecord> = log.scan_blocks().collect();
    rows.sort_by_key(|r| (r.first_true, r.hash));
    rows
}

fn write_block_rows(out: &mut impl Write, rows: Vec<BlockRecord>) -> fmt::Result {
    writeln!(out, "{BLOCK_HEADER}")?;
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.hash.raw(),
            r.first_local.as_nanos(),
            r.first_true.as_nanos(),
            kind_tag(r.first_kind),
            r.first_from.raw(),
            r.announces,
            r.full_blocks
        )?;
    }
    Ok(())
}

/// Serializes an observer's transaction records (sorted by arrival seq).
/// Reads through [`ObserverLog::scan_txs`] — see [`blocks_to_csv`].
pub fn txs_to_csv(log: &ObserverLog) -> String {
    let rows = tx_rows(log);
    let mut out = String::with_capacity(48 * (rows.len() + 1));
    write_tx_rows(&mut out, rows).expect("writing to String cannot fail");
    out
}

/// Writes the text [`txs_to_csv`] returns into `out`, without building it
/// first.
pub(crate) fn write_txs_csv(out: &mut impl Write, log: &ObserverLog) -> fmt::Result {
    write_tx_rows(out, tx_rows(log))
}

fn tx_rows(log: &ObserverLog) -> Vec<TxRecord> {
    let mut rows: Vec<TxRecord> = log.scan_txs().collect();
    rows.sort_by_key(|r| r.arrival_seq);
    rows
}

fn write_tx_rows(out: &mut impl Write, rows: Vec<TxRecord>) -> fmt::Result {
    writeln!(out, "{TX_HEADER}")?;
    for r in rows {
        writeln!(
            out,
            "{},{},{},{},{}",
            r.id.raw(),
            r.first_local.as_nanos(),
            r.first_true.as_nanos(),
            r.from.raw(),
            r.arrival_seq
        )?;
    }
    Ok(())
}

fn parse_u64(s: &str, line: usize, field: &'static str) -> Result<u64, ParseError> {
    s.parse::<u64>()
        .map_err(|_: ParseIntError| ParseError::BadField { line, field })
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
            hash: BlockHash(parse_u64(fields[0], line, "hash")?),
            first_local: SimTime::from_nanos(parse_u64(fields[1], line, "first_local_ns")?),
            first_true: SimTime::from_nanos(parse_u64(fields[2], line, "first_true_ns")?),
            first_kind: kind,
            first_from: NodeId(parse_u64(fields[4], line, "first_from")? as u32),
            announces: parse_u64(fields[5], line, "announces")? as u32,
            full_blocks: parse_u64(fields[6], line, "full_blocks")? as u32,
        });
    }
    Ok(out)
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
            id: TxId(parse_u64(fields[0], line, "tx")?),
            first_local: SimTime::from_nanos(parse_u64(fields[1], line, "first_local_ns")?),
            first_true: SimTime::from_nanos(parse_u64(fields[2], line, "first_true_ns")?),
            from: NodeId(parse_u64(fields[3], line, "from")? as u32),
            arrival_seq: parse_u64(fields[4], line, "arrival_seq")?,
        });
    }
    Ok(out)
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
        let fields = [
            "hash",
            "first_local_ns",
            "first_true_ns",
            // index 3 is the kind tag -> BadKind, covered below
            "first_from",
            "announces",
            "full_blocks",
        ];
        for (i, field) in (0..7).filter(|&i| i != 3).zip(fields) {
            let mut row: Vec<&str> = vec!["1", "2", "3", "ann", "4", "5", "6"];
            row[i] = "not-a-number";
            let text = format!("{BLOCK_HEADER}\n{}\n", row.join(","));
            assert_eq!(
                blocks_from_csv(&text),
                Err(ParseError::BadField { line: 2, field }),
                "field {i}"
            );
        }
        for (i, field) in (0..5).zip([
            "tx",
            "first_local_ns",
            "first_true_ns",
            "from",
            "arrival_seq",
        ]) {
            let mut row: Vec<&str> = vec!["1", "2", "3", "4", "5"];
            row[i] = "-9";
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
            let mut expected: Vec<BlockRecord> = log.blocks().copied().collect();
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
            let mut expected: Vec<TxRecord> = log.txs().copied().collect();
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
