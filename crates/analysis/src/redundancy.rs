//! Table II: redundant block receptions at a default-peers client.
//!
//! "We are interested in knowing how many redundant blocks a node with
//! default settings receives" (§III-A2). The input is the campaign's
//! complementary observer running Geth's default 25 peers; per block we
//! count announcement and whole-block receptions and report the paper's
//! four statistics (average, median, top-10%, top-1%).

use std::fmt;

use ethmeter_measure::CampaignData;
use ethmeter_stats::table::{f3, Table};
use ethmeter_stats::Cdf;

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundancyRow {
    /// Mean receptions per block.
    pub avg: f64,
    /// Median receptions per block.
    pub median: f64,
    /// 90th percentile ("Top 10%").
    pub p90: f64,
    /// 99th percentile ("Top 1%").
    pub p99: f64,
}

impl RedundancyRow {
    fn from_cdf(s: &Cdf) -> Self {
        RedundancyRow {
            avg: s.mean(),
            median: s.median(),
            p90: s.quantile(0.90),
            p99: s.quantile(0.99),
        }
    }
}

/// Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundancyReport {
    /// Hash-only announcements per block.
    pub announcements: RedundancyRow,
    /// Header+body messages per block.
    pub whole_blocks: RedundancyRow,
    /// Both kinds combined.
    pub combined: RedundancyRow,
    /// Blocks the observer received at least once.
    pub blocks: u64,
}

/// Errors from the redundancy analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedundancyError {
    /// The campaign deployed no default-peers observer.
    NoDefaultObserver,
    /// The observer saw no blocks.
    EmptyLog,
}

impl fmt::Display for RedundancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedundancyError::NoDefaultObserver => {
                write!(f, "campaign has no default-peers observer")
            }
            RedundancyError::EmptyLog => write!(f, "default-peers observer saw no blocks"),
        }
    }
}

impl std::error::Error for RedundancyError {}

/// Computes Table II.
///
/// # Errors
///
/// [`RedundancyError::NoDefaultObserver`] if the campaign lacks the
/// complementary observer, [`RedundancyError::EmptyLog`] if it saw
/// nothing.
pub fn analyze(data: &CampaignData) -> Result<RedundancyReport, RedundancyError> {
    let (_, log) = data
        .redundancy_observer()
        .ok_or(RedundancyError::NoDefaultObserver)?;
    // One pass over `ObserverLog::scan_blocks`, so a spilled log reads
    // identically to an in-memory one and raw rows are never collected;
    // the block count is the scan's row count.
    let mut ann: Vec<f64> = Vec::new();
    let mut full: Vec<f64> = Vec::new();
    let mut both: Vec<f64> = Vec::new();
    for r in log.scan_blocks() {
        ann.push(f64::from(r.announces));
        full.push(f64::from(r.full_blocks));
        both.push(f64::from(r.total_receptions()));
    }
    if both.is_empty() {
        return Err(RedundancyError::EmptyLog);
    }
    let blocks = both.len() as u64;
    Ok(RedundancyReport {
        announcements: RedundancyRow::from_cdf(&Cdf::from_values(ann)),
        whole_blocks: RedundancyRow::from_cdf(&Cdf::from_values(full)),
        combined: RedundancyRow::from_cdf(&Cdf::from_values(both)),
        blocks,
    })
}

impl fmt::Display for RedundancyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table II — redundant block receptions ({} blocks, 25-peer observer)",
            self.blocks
        )?;
        let mut t = Table::new(vec!["Message Type", "Avg.", "Med.", "Top 10%", "Top 1%"]);
        for (name, row) in [
            ("Announcements", &self.announcements),
            ("Whole Blocks", &self.whole_blocks),
            ("Both combined", &self.combined),
        ] {
            t.row(vec![
                name.into(),
                f3(row.avg),
                format!("{:.0}", row.median),
                format!("{:.0}", row.p90),
                format!("{:.0}", row.p99),
            ]);
        }
        writeln!(f, "{t}")?;
        write!(
            f,
            "(paper: announcements 2.585/2/5/7, whole blocks 7.043/7/10/12, both 9.11/9/12/15)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ethmeter_measure::{BlockMsgKind, ObserverLog, VantagePoint};
    use ethmeter_types::{NodeId, SimTime};

    fn campaign_with_redundancy() -> ethmeter_measure::CampaignData {
        let mut data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        let mut log = ObserverLog::new();
        // Every block: 2 announcements + 7 whole blocks, except the last
        // block which gets 4 + 9.
        let hashes: Vec<_> = data
            .truth
            .tree
            .canonical_blocks()
            .filter(|b| b.number() > 0)
            .map(|b| b.hash())
            .collect();
        for (i, &h) in hashes.iter().enumerate() {
            let last = i == hashes.len() - 1;
            let (na, nf) = if last { (4, 9) } else { (2, 7) };
            for k in 0..na {
                log.record_block_msg(
                    h,
                    BlockMsgKind::Announce,
                    NodeId(k),
                    SimTime::from_secs(i as u64 + 1),
                    SimTime::from_secs(i as u64 + 1),
                );
            }
            for k in 0..nf {
                log.record_block_msg(
                    h,
                    BlockMsgKind::FullBlock,
                    NodeId(100 + k),
                    SimTime::from_secs(i as u64 + 1),
                    SimTime::from_secs(i as u64 + 1),
                );
            }
        }
        data.observers.push((VantagePoint::paper_redundancy(), log));
        data
    }

    #[test]
    fn rows_match_hand_computation() {
        let data = campaign_with_redundancy();
        let r = analyze(&data).expect("observer present");
        assert_eq!(r.blocks, testutil::BLOCKS as u64);
        // 19 blocks at 2 announcements, 1 at 4: mean = (19*2 + 4)/20 = 2.1.
        assert!((r.announcements.avg - 2.1).abs() < 1e-9);
        assert_eq!(r.announcements.median, 2.0);
        assert_eq!(r.announcements.p99, 4.0);
        // Whole blocks: 19 * 7 + 9 -> mean 7.1.
        assert!((r.whole_blocks.avg - 7.1).abs() < 1e-9);
        assert_eq!(r.whole_blocks.median, 7.0);
        // Combined: 19 * 9 + 13 -> mean 9.2.
        assert!((r.combined.avg - 9.2).abs() < 1e-9);
        // More whole blocks than announcements — the paper's qualitative
        // finding.
        assert!(r.whole_blocks.avg > r.announcements.avg);
    }

    #[test]
    fn missing_observer_is_an_error() {
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        assert_eq!(analyze(&data), Err(RedundancyError::NoDefaultObserver));
    }

    #[test]
    fn empty_log_is_an_error() {
        let mut data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        data.observers
            .push((VantagePoint::paper_redundancy(), ObserverLog::new()));
        assert_eq!(analyze(&data), Err(RedundancyError::EmptyLog));
    }

    #[test]
    fn display_prints_table() {
        let data = campaign_with_redundancy();
        let r = analyze(&data).expect("ok");
        let s = r.to_string();
        assert!(s.contains("Table II"));
        assert!(s.contains("Announcements"));
        assert!(s.contains("Whole Blocks"));
    }
}
