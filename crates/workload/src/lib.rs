//! Transaction workload generation.
//!
//! Reproduces the statistical features of the April-2019 transaction flow
//! that the paper's commit-time analysis depends on:
//!
//! - a Poisson base arrival process (21.96M transactions in a month is
//!   ~7.75 tx/s; scaled presets preserve *utilization*, the shape
//!   parameter of queueing delay);
//! - Zipf-skewed sender activity — a few exchanges and contracts emit most
//!   traffic;
//! - **bursts**: active senders submit short runs of consecutive nonces in
//!   quick succession. Burst transactions race each other through
//!   independent gossip paths, which is what produces the 11.54%
//!   out-of-order arrivals of §III-C2;
//! - a gas mix (transfers + contract calls) sized so blocks run ~80% full
//!   with ~100 transactions (§III-C3's context).
//!
//! The generator is a pure planner: [`TxGenerator::next_event`] returns the
//! planned transactions of the next submission event and the driver
//! schedules/injects them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ethmeter_sim::dist::{Exp, LogNormal, Zipf};
use ethmeter_sim::Xoshiro256;
use ethmeter_types::{AccountId, ByteSize, Gas, Nonce, SimDuration};

/// Workload tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Mean global submission rate, transactions per second (counting every
    /// transaction of every burst).
    pub tx_rate: f64,
    /// Number of distinct sender accounts.
    pub accounts: usize,
    /// Zipf exponent of sender activity (0 = uniform).
    pub zipf_s: f64,
    /// Probability that a submission event is a burst (> 1 transaction).
    pub burst_prob: f64,
    /// Mean number of *extra* transactions in a burst (geometric).
    pub burst_extra_mean: f64,
    /// Mean gap between consecutive burst transactions.
    pub burst_gap: SimDuration,
    /// Fraction of plain transfers (21k gas, small) vs contract calls.
    pub transfer_fraction: f64,
    /// Median gas of a contract call (log-normal around this).
    pub contract_gas_median: f64,
    /// Gas price range (uniform, gwei).
    pub gas_price_range: (u64, u64),
}

impl Default for WorkloadConfig {
    /// Paper-scale defaults (7.75 tx/s; ~80% utilization of 8M-gas blocks
    /// at a 13.3s inter-block time).
    fn default() -> Self {
        WorkloadConfig {
            tx_rate: 7.75,
            accounts: 10_000,
            zipf_s: 1.05,
            burst_prob: 0.35,
            burst_extra_mean: 2.5,
            burst_gap: SimDuration::from_millis(40),
            transfer_fraction: 0.60,
            contract_gas_median: 120_000.0,
            gas_price_range: (1, 60),
        }
    }
}

impl WorkloadConfig {
    /// Scales the rate while keeping everything else fixed — used by the
    /// utilization-preserving presets (halve the rate, halve the block
    /// capacity).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn with_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "invalid tx rate {rate}");
        self.tx_rate = rate;
        self
    }

    /// Expected gas per transaction under the configured mix.
    pub fn mean_gas(&self) -> f64 {
        // LogNormal(median m, sigma 0.5) has mean m * exp(sigma^2 / 2).
        let contract_mean = self.contract_gas_median * (0.5f64 * 0.5 / 2.0).exp();
        self.transfer_fraction * 21_000.0 + (1.0 - self.transfer_fraction) * contract_mean
    }

    /// Expected block gas utilization given a block gas limit and
    /// inter-block time.
    // detlint::allow(unread-pub, reason = "the ~80% block-fullness calibration identity that the core preset tests pin")
    pub fn utilization(&self, gas_limit: Gas, interblock: SimDuration) -> f64 {
        self.tx_rate * self.mean_gas() * interblock.as_secs_f64() / gas_limit as f64
    }
}

/// One planned transaction, relative to its submission event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedTx {
    /// Offset from the submission event instant.
    pub offset: SimDuration,
    /// The sender.
    pub sender: AccountId,
    /// The sender's next nonce.
    pub nonce: Nonce,
    /// Gas this transaction will consume.
    pub gas: Gas,
    /// Fee bid (gwei per gas).
    pub gas_price: u64,
    /// Wire size.
    pub size: ByteSize,
}

/// A submission event: one or more transactions from one sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionEvent {
    /// Delay from the previous event to this one.
    pub delay: SimDuration,
    /// The planned transactions (offsets are relative to the event).
    pub txs: Vec<PlannedTx>,
}

/// Stateful planner of the transaction stream.
#[derive(Debug, Clone)]
pub struct TxGenerator {
    config: WorkloadConfig,
    next_nonce: Vec<Nonce>,
    zipf: Zipf,
    event_gap: Exp,
    burst_gap: Exp,
    contract_gas: LogNormal,
    emitted: u64,
}

impl TxGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the config has no accounts or a non-positive rate.
    pub fn new(config: WorkloadConfig) -> Self {
        assert!(config.accounts > 0, "workload needs at least one account");
        assert!(
            config.tx_rate > 0.0 && config.tx_rate.is_finite(),
            "invalid tx rate"
        );
        // Events carry 1 + burst_prob * burst_extra_mean transactions on
        // average; the event rate is scaled so the *transaction* rate
        // matches config.tx_rate.
        let txs_per_event = 1.0 + config.burst_prob * config.burst_extra_mean;
        let event_rate = config.tx_rate / txs_per_event;
        TxGenerator {
            next_nonce: vec![0; config.accounts],
            zipf: Zipf::new(config.accounts, config.zipf_s),
            event_gap: Exp::with_rate(event_rate),
            burst_gap: Exp::with_mean(config.burst_gap.as_secs_f64().max(1e-6)),
            contract_gas: LogNormal::with_median(config.contract_gas_median, 0.5),
            emitted: 0,
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Total transactions planned so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Plans the next submission event.
    pub fn next_event(&mut self, rng: &mut Xoshiro256) -> SubmissionEvent {
        let delay = self.event_gap.sample_duration(rng);
        let sender = AccountId(self.zipf.sample(rng) as u32);
        let count = if rng.chance(self.config.burst_prob) {
            // A burst always carries at least one extra; the extra count is
            // 1 + Geometric so its mean is exactly `burst_extra_mean`.
            let p = 1.0 / self.config.burst_extra_mean.max(1.0);
            let mut extras = 1usize;
            while !rng.chance(p) && extras < 16 {
                extras += 1;
            }
            1 + extras
        } else {
            1
        };
        let mut txs = Vec::with_capacity(count);
        let mut offset = SimDuration::ZERO;
        for i in 0..count {
            if i > 0 {
                offset += self.burst_gap.sample_duration(rng);
            }
            let nonce = self.next_nonce[sender.index()];
            self.next_nonce[sender.index()] += 1;
            let (gas, size) = self.sample_gas_and_size(rng);
            let (lo, hi) = self.config.gas_price_range;
            txs.push(PlannedTx {
                offset,
                sender,
                nonce,
                gas,
                gas_price: rng.range_u64(lo, hi),
                size,
            });
            self.emitted += 1;
        }
        SubmissionEvent { delay, txs }
    }

    fn sample_gas_and_size(&self, rng: &mut Xoshiro256) -> (Gas, ByteSize) {
        if rng.chance(self.config.transfer_fraction) {
            (21_000, ByteSize::from_bytes(110))
        } else {
            let gas = self.contract_gas.sample(rng).clamp(21_000.0, 2_000_000.0) as Gas;
            // Call data grows loosely with gas.
            let size = 180 + (gas / 500).min(4_000);
            (gas, ByteSize::from_bytes(size))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn run_events(gen: &mut TxGenerator, rng: &mut Xoshiro256, n: usize) -> Vec<SubmissionEvent> {
        (0..n).map(|_| gen.next_event(rng)).collect()
    }

    #[test]
    fn nonces_are_per_sender_sequential() {
        let mut generator = TxGenerator::new(WorkloadConfig::default());
        let mut rng = Xoshiro256::seed_from_u64(1);
        let events = run_events(&mut generator, &mut rng, 5_000);
        let mut expected: HashMap<AccountId, Nonce> = HashMap::new();
        for ev in &events {
            for tx in &ev.txs {
                let e = expected.entry(tx.sender).or_insert(0);
                assert_eq!(tx.nonce, *e, "sender {:?}", tx.sender);
                *e += 1;
            }
        }
    }

    #[test]
    fn burst_offsets_are_monotone() {
        let mut generator = TxGenerator::new(WorkloadConfig::default());
        let mut rng = Xoshiro256::seed_from_u64(2);
        for ev in run_events(&mut generator, &mut rng, 2_000) {
            for w in ev.txs.windows(2) {
                assert!(w[1].offset > w[0].offset);
                assert_eq!(w[1].sender, w[0].sender);
                assert_eq!(w[1].nonce, w[0].nonce + 1);
            }
        }
    }

    #[test]
    fn average_rate_matches_config() {
        let cfg = WorkloadConfig::default().with_rate(5.0);
        let mut generator = TxGenerator::new(cfg);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let events = run_events(&mut generator, &mut rng, 50_000);
        let total_time: f64 = events.iter().map(|e| e.delay.as_secs_f64()).sum();
        let total_txs: usize = events.iter().map(|e| e.txs.len()).sum();
        let rate = total_txs as f64 / total_time;
        assert!((rate - 5.0).abs() < 0.25, "observed rate {rate}");
    }

    #[test]
    fn burst_fraction_close_to_config() {
        let cfg = WorkloadConfig::default();
        let expected = cfg.burst_prob;
        let mut generator = TxGenerator::new(cfg);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let events = run_events(&mut generator, &mut rng, 50_000);
        let bursts = events.iter().filter(|e| e.txs.len() > 1).count();
        let frac = bursts as f64 / events.len() as f64;
        assert!((frac - expected).abs() < 0.02, "burst fraction {frac}");
    }

    #[test]
    fn utilization_lands_near_eighty_percent() {
        let cfg = WorkloadConfig::default();
        let u = cfg.utilization(8_000_000, SimDuration::from_secs_f64(13.3));
        assert!((0.70..=0.92).contains(&u), "utilization {u}");
        // Scaling rate and capacity together preserves utilization.
        let scaled = cfg.clone().with_rate(1.0);
        let u2 = scaled.utilization(
            (8_000_000.0 / 7.75) as u64,
            SimDuration::from_secs_f64(13.3),
        );
        assert!((u - u2).abs() < 0.01, "{u} vs {u2}");
    }

    #[test]
    fn gas_mix_is_bimodal() {
        let mut generator = TxGenerator::new(WorkloadConfig::default());
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut transfers = 0usize;
        let mut total = 0usize;
        for ev in run_events(&mut generator, &mut rng, 20_000) {
            for tx in &ev.txs {
                total += 1;
                if tx.gas == 21_000 {
                    transfers += 1;
                }
                assert!(tx.gas >= 21_000);
                assert!(tx.size.as_bytes() >= 110);
            }
        }
        let frac = transfers as f64 / total as f64;
        assert!((frac - 0.60).abs() < 0.02, "transfer fraction {frac}");
    }

    #[test]
    fn zipf_concentrates_activity() {
        let mut generator = TxGenerator::new(WorkloadConfig::default());
        let mut rng = Xoshiro256::seed_from_u64(6);
        let mut counts: HashMap<AccountId, usize> = HashMap::new();
        for ev in run_events(&mut generator, &mut rng, 30_000) {
            for tx in &ev.txs {
                *counts.entry(tx.sender).or_default() += 1;
            }
        }
        let mut v: Vec<usize> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = v.iter().sum();
        let top100: usize = v.iter().take(100).sum();
        // With s = 1.05 over 10k accounts, the top 100 senders carry a
        // large minority of traffic.
        let frac = top100 as f64 / total as f64;
        assert!(frac > 0.25, "top-100 sender share {frac}");
    }

    #[test]
    fn emitted_counter_tracks() {
        let mut generator = TxGenerator::new(WorkloadConfig::default());
        let mut rng = Xoshiro256::seed_from_u64(7);
        let events = run_events(&mut generator, &mut rng, 100);
        let total: usize = events.iter().map(|e| e.txs.len()).sum();
        assert_eq!(generator.emitted(), total as u64);
    }
}
