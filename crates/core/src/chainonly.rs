//! The chain-only fast path: block-producer sequences without a network.
//!
//! Figure 7 and the §III-D security analysis are statements about the
//! *canonical miner sequence* — who mined block N — over months (201,086
//! blocks) or the whole chain's life (7.7M blocks). At those scales the
//! network layer is irrelevant to the statistic and unaffordable to
//! simulate, so this runner draws the winner of each height directly from
//! the hash-power distribution. PoW makes this exact: each block is an
//! independent race won with probability equal to the share.
//!
//! Each draw is folded into the per-pool run-length histograms as it is
//! made ([`RunFold`]), so a run holds O(pools) state whatever its length:
//! the whole-chain scan never materialises its 7.7M-entry sequence.

use ethmeter_analysis::sequences::{RunFold, SequenceReport};
use ethmeter_mining::PoolDirectory;
use ethmeter_sim::dist::WeightedIndex;
use ethmeter_sim::Xoshiro256;
use ethmeter_types::{PoolId, SimDuration};

/// Configuration of a chain-only run.
#[derive(Debug, Clone)]
pub struct ChainOnlyConfig {
    /// Blocks to draw (the paper's month = 201,086; whole chain = 7.7M).
    pub blocks: u64,
    /// The pool directory supplying shares and names.
    pub pools: PoolDirectory,
    /// Mean inter-block time (for censorship-window conversion).
    pub interblock: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl ChainOnlyConfig {
    /// The paper's one-month window: 201,086 main blocks at 13.3 s.
    pub fn paper_month(seed: u64) -> Self {
        ChainOnlyConfig {
            blocks: 201_086,
            pools: PoolDirectory::paper_dsn2020(),
            interblock: SimDuration::from_secs_f64(13.3),
            seed,
        }
    }

    /// The whole-chain horizon the paper scans for 10+-block sequences
    /// (~7.7M blocks up to May 2019).
    pub fn paper_whole_chain(seed: u64) -> Self {
        ChainOnlyConfig {
            blocks: 7_700_000,
            pools: PoolDirectory::paper_dsn2020(),
            interblock: SimDuration::from_secs_f64(13.3),
            seed,
        }
    }
}

/// Draws the winner of each of `cfg.blocks` heights in order and hands it
/// to `sink`. The only place the chain-only draws are made: the report
/// folds them and the sequence pin hashes them.
pub(crate) fn draw_miners(cfg: &ChainOnlyConfig, mut sink: impl FnMut(PoolId)) {
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let shares: Vec<f64> = cfg.pools.iter().map(|p| p.share).collect();
    let winner = WeightedIndex::new(&shares);
    for _ in 0..cfg.blocks {
        let i = winner.sample(&mut rng);
        sink(PoolId(
            u16::try_from(i).expect("a directory holds at most 65,536 pools"),
        ));
    }
}

/// Draws the miner sequence and folds it into Figure 7 / §III-D's
/// per-pool run-length report as it is drawn.
pub fn run_chain_only(cfg: &ChainOnlyConfig) -> SequenceReport {
    let mut fold = RunFold::default();
    draw_miners(cfg, |pool| fold.push(pool));
    let names: Vec<String> = cfg.pools.iter().map(|p| p.name.clone()).collect();
    let shares: Vec<f64> = cfg.pools.iter().map(|p| p.share).collect();
    fold.report(&names, &shares, cfg.interblock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_scale_matches_paper_shapes() {
        let report = run_chain_only(&ChainOnlyConfig::paper_month(2020));
        assert_eq!(report.total_blocks, 201_086);
        // Winners follow the hash-power shares: Ethermine (25.32%) mines
        // ~51k blocks, Nanopool (12.10%) ~24k.
        let pool = |name: &str| {
            report
                .pools
                .iter()
                .find(|p| p.name == name)
                .expect("present")
        };
        let ethermine = pool("Ethermine");
        let frac = ethermine.blocks as f64 / 201_086.0;
        assert!((frac - 0.2532).abs() < 0.005, "share {frac}");
        let nano_frac = pool("Nanopool").blocks as f64 / 201_086.0;
        assert!((nano_frac - 0.1210).abs() < 0.004, "nanopool {nano_frac}");
        // The paper observed runs of 8 (Ethermine) and 9 (Sparkpool); at
        // these shares the longest run over a month is typically 7..=11.
        assert!(
            (6..=12).contains(&ethermine.longest),
            "longest {}",
            ethermine.longest
        );
        // Censorship window of an 8-run ~ 106s: minutes, not seconds.
        let w = report.censorship_window(8).as_secs_f64();
        assert!((100.0..115.0).contains(&w));
    }

    #[test]
    fn deterministic_sequences() {
        let first_100 = |seed| {
            let mut seq = Vec::new();
            let cfg = ChainOnlyConfig {
                blocks: 100,
                ..ChainOnlyConfig::paper_month(seed)
            };
            draw_miners(&cfg, |pool| seq.push(pool));
            seq
        };
        assert_eq!(first_100(1), first_100(1));
        assert_ne!(first_100(1), first_100(2));
    }

    #[test]
    fn small_uniform_run() {
        let cfg = ChainOnlyConfig {
            blocks: 10_000,
            pools: PoolDirectory::uniform(4, 1),
            interblock: SimDuration::from_secs_f64(13.3),
            seed: 9,
        };
        let report = run_chain_only(&cfg);
        assert_eq!(report.total_blocks, 10_000);
        for p in &report.pools {
            let frac = p.blocks as f64 / 10_000.0;
            assert!((frac - 0.25).abs() < 0.02, "{frac}");
        }
    }
}
