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
use ethmeter_stats::runs::{naive_expected_runs, prob_run_at_least};
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

/// Per-pool block counts and run-length histograms of a miner sequence,
/// folded one block at a time as the sequence is produced.
///
/// The state is the open run plus, per pool id, a block count and a
/// histogram as long as that pool's longest run, so a whole-chain scan
/// (7.7M blocks) holds O(pools) state and never the sequence itself. This
/// is the only run-length extraction: the chain-only draw loop and the
/// campaign's canonical chain both feed it.
#[derive(Debug, Clone, Default)]
pub struct RunFold {
    /// Blocks per pool id, credited when each run closes.
    blocks: Vec<u64>,
    /// `runs[pool][len]` = closed maximal runs of exactly `len` blocks.
    runs: Vec<Vec<u64>>,
    /// The open run's pool (meaningless while `run_len` is 0).
    run_pool: PoolId,
    /// The open run's length; 0 before the first block.
    run_len: usize,
}

impl RunFold {
    /// Appends the next block's miner.
    #[inline]
    pub fn push(&mut self, pool: PoolId) {
        // Before the first block `run_len` is 0, so a first block by
        // `run_pool` simply opens its run here.
        if pool == self.run_pool {
            self.run_len += 1;
        } else {
            self.close_run();
            self.run_pool = pool;
            self.run_len = 1;
        }
    }

    /// Credits the open run to its pool, growing the per-pool tables to
    /// the pool's id and its histogram to the run's length.
    #[inline]
    fn close_run(&mut self) {
        let (i, len) = (self.run_pool.index(), self.run_len);
        if len == 0 {
            return;
        }
        if self.blocks.len() <= i {
            self.blocks.resize(i + 1, 0);
            self.runs.resize(i + 1, Vec::new());
        }
        self.blocks[i] += len as u64;
        let r = &mut self.runs[i];
        if r.len() <= len {
            r.resize(len + 1, 0);
        }
        r[len] += 1;
    }

    /// Closes the open run and builds the report. `names`/`shares` are
    /// indexed by pool id; unknown pools get a generated label and zero
    /// share.
    pub fn report(
        mut self,
        names: &[String],
        shares: &[f64],
        interblock: SimDuration,
    ) -> SequenceReport {
        self.close_run();
        let total_blocks = self.blocks.iter().sum();
        let mut pools: Vec<PoolSequenceRow> = (0..self.blocks.len())
            .filter(|&i| self.blocks[i] > 0)
            .map(|i| {
                let runs = std::mem::take(&mut self.runs[i]);
                PoolSequenceRow {
                    // The tables grow to indices of `PoolId`s only.
                    pool: PoolId(i as u16),
                    name: names.get(i).cloned().unwrap_or_else(|| format!("pool-{i}")),
                    share: shares.get(i).copied().unwrap_or(0.0),
                    blocks: self.blocks[i],
                    // A histogram ends at its longest run's count.
                    longest: runs.len() - 1,
                    runs,
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
            total_blocks,
            interblock,
        }
    }
}

impl FromIterator<PoolId> for RunFold {
    fn from_iter<I: IntoIterator<Item = PoolId>>(miners: I) -> Self {
        let mut fold = RunFold::default();
        for pool in miners {
            fold.push(pool);
        }
        fold
    }
}

/// Analyzes a campaign's canonical chain.
pub fn analyze(data: &CampaignData) -> SequenceReport {
    ethmeter_chain::forks::miner_sequence(&data.truth.tree)
        .collect::<RunFold>()
        .report(
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

    /// Folds `seq` at the paper's 13.3 s inter-block time.
    fn fold(seq: &[PoolId], names: &[String], shares: &[f64]) -> SequenceReport {
        let fold: RunFold = seq.iter().copied().collect();
        fold.report(names, shares, SimDuration::from_secs_f64(13.3))
    }

    #[test]
    fn runs_extracted_per_pool() {
        // Sequence: A A A B A B B -> A runs: 3,1 ; B runs: 1,2.
        let seq: Vec<PoolId> = [0, 0, 0, 1, 0, 1, 1].iter().map(|&i| PoolId(i)).collect();
        let r = fold(&seq, &names(), &[0.55, 0.45]);
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
        let r = fold(&seq, &names(), &[1.0, 0.0]);
        assert_eq!(r.pools[0].longest, 9);
        // 9 blocks * 13.3 s ~ 120 s — the paper's "two minutes" regime.
        let w = r.censorship_window(9).as_secs_f64();
        assert!((w - 119.7).abs() < 0.2, "window {w}");
    }

    #[test]
    fn theory_matches_paper_arithmetic() {
        // 201,086 blocks, Ethermine share 0.259, runs of 8: ~4 expected.
        let seq: Vec<PoolId> = vec![PoolId(0); 10];
        let mut r = fold(&seq, &names(), &[0.259, 0.0]);
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
        let r = fold(&[], &[], &[]);
        assert_eq!(r.total_blocks, 0);
        assert!(r.pools.is_empty());
    }
}

/// The slice-based analysis the fold replaced: maximal runs extracted from
/// a materialised sequence, then tallied per pool. Kept as the reference
/// the fold is checked against.
#[cfg(test)]
mod reference {
    use super::*;

    /// Extracts maximal runs from a sequence as `(value, run_length)`.
    pub(super) fn run_lengths<T: Copy + PartialEq>(
        seq: &[T],
    ) -> impl Iterator<Item = (T, usize)> + '_ {
        let mut rest = seq;
        std::iter::from_fn(move || {
            let (&first, tail) = rest.split_first()?;
            let len = 1 + tail.iter().take_while(|&&v| v == first).count();
            rest = &rest[len..];
            Some((first, len))
        })
    }

    /// Analyzes a bare miner sequence. `names`/`shares` are indexed by
    /// pool id; unknown pools get a generated label and zero share.
    pub(super) fn analyze_sequence(
        seq: &[PoolId],
        names: &[String],
        shares: &[f64],
        interblock: SimDuration,
    ) -> SequenceReport {
        let mut blocks = vec![0u64; names.len()];
        let mut runs: Vec<Vec<u64>> = vec![Vec::new(); names.len()];
        for (pool, len) in run_lengths(seq) {
            let i = pool.index();
            if blocks.len() <= i {
                blocks.resize(i + 1, 0);
                runs.resize(i + 1, Vec::new());
            }
            blocks[i] += len as u64;
            let r = &mut runs[i];
            if r.len() <= len {
                r.resize(len + 1, 0);
            }
            r[len] += 1;
        }
        let mut pools: Vec<PoolSequenceRow> = (0..blocks.len())
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
}

/// The fold against [`reference`] over random sequences of one to four
/// pools: equal reports and identical rendered text, with runs of up to
/// 100k blocks, pool ids past the end of `names` (generated label, zero
/// share) and the empty sequence.
#[cfg(test)]
mod differential {
    use super::reference::{analyze_sequence, run_lengths};
    use super::*;
    use proptest::TestRng;

    const SEQUENCES: u64 = 256;
    const NAMES: [&str; 4] = ["Ethermine", "Sparkpool", "f2pool2", "Nanopool"];
    const SHARES: [f64; 4] = [0.2532, 0.2288, 0.1234, 0.1210];

    /// Both analyses of `seq`, the first `named` pools named and the rest
    /// not. Rendering evaluates the exact run theory, O(k²) memory and
    /// O(k³) time in a pool's longest run `k`, so `render` is off where
    /// runs are thousands of blocks long; a rendering is a function of
    /// the report, which is compared either way.
    fn assert_agree(seq: &[PoolId], named: usize, render: bool) {
        let names: Vec<String> = NAMES[..named].iter().map(|&n| n.into()).collect();
        let shares = &SHARES[..named];
        let interblock = SimDuration::from_secs_f64(13.3);
        let fold: RunFold = seq.iter().copied().collect();
        let folded = fold.report(&names, shares, interblock);
        let expected = analyze_sequence(seq, &names, shares, interblock);
        assert_eq!(folded, expected);
        if render {
            assert_eq!(folded.to_string(), expected.to_string());
        }
    }

    /// `(pool, length)` runs laid end to end; adjacent equal pools merge.
    fn expand(runs: &[(u16, usize)]) -> Vec<PoolId> {
        runs.iter()
            .flat_map(|&(pool, len)| std::iter::repeat_n(PoolId(pool), len))
            .collect()
    }

    #[test]
    fn edge_cases_agree() {
        assert_agree(&[], 0, true);
        assert_agree(&[], 4, true);
        assert_agree(&[PoolId(0)], 0, true);
        assert_agree(&[PoolId(3)], 1, true);
        // 100k blocks by a pool beyond `names`, then a named pool and the
        // first pool again.
        assert_agree(&expand(&[(2, 100_000), (0, 1), (2, 7)]), 2, false);
        // 100k blocks by a named pool.
        assert_agree(&expand(&[(1, 3), (0, 100_000), (1, 1)]), 2, false);
        // A pool id at the top of the id space.
        assert_agree(&expand(&[(u16::MAX, 3), (1, 2), (u16::MAX, 1)]), 2, true);
    }

    #[test]
    fn fold_matches_the_run_lengths_reference() {
        let mut rng = TestRng::deterministic("sequences-differential");
        for case in 0..SEQUENCES {
            // One sequence in four has runs of up to 20k blocks; the
            // others have runs of 1 to 4 blocks, merged where a pool
            // repeats.
            let long = case % 4 == 0;
            let pools = 1 + rng.next_u64() % 4;
            let named = (rng.next_u64() % 5) as usize;
            let runs: Vec<(u16, usize)> = (0..rng.next_u64() % 40)
                .map(|_| {
                    let pool = (rng.next_u64() % pools) as u16;
                    let cap = if long && rng.next_u64() % 8 == 0 {
                        20_000
                    } else {
                        4
                    };
                    (pool, 1 + (rng.next_u64() % cap) as usize)
                })
                .collect();
            assert_agree(&expand(&runs), named, !long);
        }
    }

    #[test]
    fn run_lengths_reconstruct_sequences() {
        let mut rng = TestRng::deterministic("sequences-run-lengths");
        for _ in 0..SEQUENCES {
            let seq: Vec<u8> = (0..rng.next_u64() % 200)
                .map(|_| (rng.next_u64() % 4) as u8)
                .collect();
            let runs: Vec<(u8, usize)> = run_lengths(&seq).collect();
            // Adjacent runs differ in value.
            assert!(runs.windows(2).all(|w| w[0].0 != w[1].0));
            // Reconstruction is identity.
            let rebuilt: Vec<u8> = runs
                .iter()
                .flat_map(|&(v, l)| std::iter::repeat_n(v, l))
                .collect();
            assert_eq!(rebuilt, seq);
        }
    }
}
