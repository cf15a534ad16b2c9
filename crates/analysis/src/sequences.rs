//! Figure 7 and §III-D: consecutive main-chain blocks per pool, and what
//! they imply for the 12-block finality rule.
//!
//! "If a mining pool is able to produce more than 12 blocks in a row ...
//! it can effectively censor the blockchain and perform attacks such as
//! double-spends." The analysis extracts per-pool run lengths from the
//! canonical miner sequence, compares observed counts against the
//! theoretical expectation at each pool's hash share, and converts the
//! longest observed runs into censorship windows.

use std::fmt;

use ethmeter_measure::CampaignData;
use ethmeter_stats::runs::{naive_expected_runs, prob_run_at_least, run_lengths};
use ethmeter_stats::table::{f3, grouped, pct, Table};
use ethmeter_types::{PoolId, SimDuration};

/// One pool's sequence statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSequenceRow {
    /// The pool.
    pub pool: PoolId,
    /// Display name.
    pub name: String,
    /// Hash-power share.
    pub share: f64,
    /// Canonical blocks mined.
    pub blocks: u64,
    /// `runs[len]` = number of maximal runs of exactly `len` blocks
    /// (index 0 unused).
    pub runs: Vec<u64>,
    /// Longest observed run.
    pub longest: usize,
}

impl PoolSequenceRow {
    /// Count of maximal runs with length ≥ `k`.
    pub fn runs_at_least(&self, k: usize) -> u64 {
        self.runs.iter().skip(k).sum()
    }
}

/// Figure 7 plus the §III-D security table.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceReport {
    /// Rows ordered by descending share.
    pub pools: Vec<PoolSequenceRow>,
    /// Length of the analyzed canonical chain.
    pub total_blocks: u64,
    /// Mean inter-block time (for censorship-window conversion).
    pub interblock: SimDuration,
}

impl SequenceReport {
    /// The censorship window a run of `len` blocks represents.
    pub fn censorship_window(&self, len: usize) -> SimDuration {
        self.interblock * len as u64
    }

    /// §III-D's comparison for one pool and run length: `(observed count,
    /// naive expected count, exact probability of at least one)`.
    pub fn theory_for(&self, row: &PoolSequenceRow, k: usize) -> (u64, f64, f64) {
        let observed = row.runs_at_least(k);
        let expected = naive_expected_runs(self.total_blocks, row.share, k as u32);
        let prob = prob_run_at_least(self.total_blocks, row.share, k as u32);
        (observed, expected, prob)
    }
}

/// Analyzes a bare miner sequence (used directly by the chain-only
/// simulator). `names`/`shares` are indexed by pool id; unknown pools get
/// a generated label and zero share.
pub fn analyze_sequence(
    seq: &[PoolId],
    names: &[String],
    shares: &[f64],
    interblock: SimDuration,
) -> SequenceReport {
    let max_pool = seq
        .iter()
        .map(|p| p.index() + 1)
        .max()
        .unwrap_or(0)
        .max(names.len());
    let mut blocks = vec![0u64; max_pool];
    for p in seq {
        blocks[p.index()] += 1;
    }
    let mut runs: Vec<Vec<u64>> = vec![Vec::new(); max_pool];
    for (pool, len) in run_lengths(seq) {
        let r = &mut runs[pool.index()];
        if r.len() <= len {
            r.resize(len + 1, 0);
        }
        r[len] += 1;
    }
    let mut pools: Vec<PoolSequenceRow> = (0..max_pool)
        .filter(|&i| blocks[i] > 0)
        .map(|i| {
            let longest = runs[i]
                .iter()
                .enumerate()
                .rev()
                .find(|&(_, &c)| c > 0)
                .map_or(0, |(l, _)| l);
            PoolSequenceRow {
                pool: PoolId(i as u16),
                name: names.get(i).cloned().unwrap_or_else(|| format!("pool-{i}")),
                share: shares.get(i).copied().unwrap_or(0.0),
                blocks: blocks[i],
                runs: std::mem::take(&mut runs[i]),
                longest,
            }
        })
        .collect();
    pools.sort_by(|a, b| {
        b.share
            .partial_cmp(&a.share)
            .expect("finite shares")
            .then(b.blocks.cmp(&a.blocks))
            .then(a.pool.cmp(&b.pool))
    });
    SequenceReport {
        pools,
        total_blocks: seq.len() as u64,
        interblock,
    }
}

/// Analyzes a campaign's canonical chain.
pub fn analyze(data: &CampaignData) -> SequenceReport {
    let seq = ethmeter_chain::forks::miner_sequence(&data.truth.tree);
    analyze_sequence(
        &seq,
        &data.truth.pool_names,
        &data.truth.pool_shares,
        data.truth.interblock,
    )
}

impl fmt::Display for SequenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 / §III-D — consecutive main-chain blocks per pool ({} blocks)",
            grouped(self.total_blocks)
        )?;
        let mut t = Table::new(vec![
            "Pool",
            "Share",
            "Blocks",
            "Longest run",
            "Censor window",
            "Obs >= longest",
            "E[naive]",
            "P(exact)",
        ]);
        for row in self.pools.iter().take(8) {
            let k = row.longest.max(1);
            let (obs, expected, prob) = self.theory_for(row, k);
            t.row(vec![
                row.name.clone(),
                pct(row.share),
                grouped(row.blocks),
                row.longest.to_string(),
                format!("{:.0}s", self.censorship_window(row.longest).as_secs_f64()),
                obs.to_string(),
                f3(expected),
                f3(prob),
            ]);
        }
        write!(f, "{t}")?;
        write!(
            f,
            "(paper: Ethermine 4 runs of 8; Sparkpool 2 runs of 9; 12-conf window ~3 min)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    fn names() -> Vec<String> {
        vec!["Ethermine".into(), "Sparkpool".into()]
    }

    #[test]
    fn runs_extracted_per_pool() {
        // Sequence: A A A B A B B -> A runs: 3,1 ; B runs: 1,2.
        let seq: Vec<PoolId> = [0, 0, 0, 1, 0, 1, 1].iter().map(|&i| PoolId(i)).collect();
        let r = analyze_sequence(
            &seq,
            &names(),
            &[0.55, 0.45],
            SimDuration::from_secs_f64(13.3),
        );
        assert_eq!(r.total_blocks, 7);
        let a = &r.pools[0];
        assert_eq!(a.name, "Ethermine");
        assert_eq!(a.blocks, 4);
        assert_eq!(a.longest, 3);
        assert_eq!(a.runs_at_least(1), 2);
        assert_eq!(a.runs_at_least(2), 1);
        assert_eq!(a.runs_at_least(4), 0);
        let b = &r.pools[1];
        assert_eq!(b.longest, 2);
        assert_eq!(b.runs_at_least(1), 2);
    }

    #[test]
    fn censorship_window_scales_with_interblock() {
        let seq: Vec<PoolId> = vec![PoolId(0); 9];
        let r = analyze_sequence(
            &seq,
            &names(),
            &[1.0, 0.0],
            SimDuration::from_secs_f64(13.3),
        );
        assert_eq!(r.pools[0].longest, 9);
        // 9 blocks * 13.3 s ~ 120 s — the paper's "two minutes" regime.
        let w = r.censorship_window(9).as_secs_f64();
        assert!((w - 119.7).abs() < 0.2, "window {w}");
    }

    #[test]
    fn theory_matches_paper_arithmetic() {
        // 201,086 blocks, Ethermine share 0.259, runs of 8: ~4 expected.
        let seq: Vec<PoolId> = vec![PoolId(0); 10];
        let mut r = analyze_sequence(
            &seq,
            &names(),
            &[0.259, 0.0],
            SimDuration::from_secs_f64(13.3),
        );
        r.total_blocks = 201_086;
        let row = r.pools[0].clone();
        let (_, expected, prob) = r.theory_for(&row, 8);
        assert!((3.0..5.5).contains(&expected), "expected {expected}");
        assert!(prob > 0.9, "with E~4, at least one is near-certain: {prob}");
    }

    #[test]
    fn campaign_wrapper_uses_ground_truth() {
        let data = testutil::campaign_with_block_spread(&[0, 100, 40, 60]);
        let r = analyze(&data);
        // Alternating miners: every run has length 1.
        assert_eq!(r.total_blocks, testutil::BLOCKS as u64);
        assert!(r.pools.iter().all(|p| p.longest == 1));
        assert!(r.to_string().contains("Figure 7"));
    }

    #[test]
    fn empty_sequence() {
        let r = analyze_sequence(&[], &[], &[], SimDuration::from_secs_f64(13.3));
        assert_eq!(r.total_blocks, 0);
        assert!(r.pools.is_empty());
    }
}
