//! Per-pool selfish-behavior strategy.

use ethmeter_chain::uncles::UnclePolicy;

/// The behavioral knobs of one mining pool.
///
/// A default strategy is perfectly honest; the paper's observed behaviors
/// are switched on per pool in the [`crate::pool::PoolDirectory`]
/// calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strategy {
    /// Probability that a won block is mined *empty* — the §III-C3
    /// behavior ("more than 25% of blocks mined by the Zhizu pool were
    /// empty"). Empty blocks skip transaction validation and propagate
    /// faster; the pool forfeits fees but keeps the (much larger) base
    /// reward.
    pub empty_block_prob: f64,
    /// Probability that, after winning a block, the pool keeps mining at
    /// the *same height* to produce a duplicate and harvest an uncle
    /// reward — the §III-C5 one-miner fork.
    pub duplicate_prob: f64,
    /// Probability that a successful duplicate is followed by yet another
    /// attempt (produces the observed triples).
    pub duplicate_again_prob: f64,
    /// Probability that a duplicate reuses the original transaction set
    /// ("in 56% of cases, mining pools appeared to be using their full
    /// mining power for mining distinct versions of the same block").
    pub duplicate_same_txset_prob: f64,
    /// Probability per won block of a pool malfunction/partition emitting
    /// a burst of same-height blocks (the observed 4-tuple and 7-tuple:
    /// "we believe that these were due to a mining pool partition or
    /// another pool malfunction").
    pub malfunction_prob: f64,
    /// Uncle-reference policy used when assembling blocks.
    pub uncle_policy: UnclePolicy,
}

impl Default for Strategy {
    /// An honest pool: no empty blocks, no duplicates, standard uncles.
    fn default() -> Self {
        Strategy {
            empty_block_prob: 0.0,
            duplicate_prob: 0.0,
            duplicate_again_prob: 0.0,
            duplicate_same_txset_prob: 0.56,
            malfunction_prob: 0.0,
            uncle_policy: UnclePolicy::Standard,
        }
    }
}

impl Strategy {
    /// An honest strategy (alias of `default`, for readability at call
    /// sites).
    pub fn honest() -> Self {
        Self::default()
    }

    /// Returns a copy with the given empty-block probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_empty_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.empty_block_prob = p;
        self
    }

    /// Returns a copy with the given one-miner-fork probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_duplicate_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.duplicate_prob = p;
        self
    }

    /// Returns a copy with the given malfunction probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_malfunction_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.malfunction_prob = p;
        self
    }

    /// Returns a copy with the given uncle policy (the §V ablation flips
    /// this to [`UnclePolicy::ForbidSameMinerHeight`]).
    pub fn with_uncle_policy(mut self, policy: UnclePolicy) -> Self {
        self.uncle_policy = policy;
        self
    }

    /// True if this strategy ever misbehaves.
    #[cfg(test)]
    pub fn is_selfish(&self) -> bool {
        self.empty_block_prob > 0.0 || self.duplicate_prob > 0.0 || self.malfunction_prob > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        let s = Strategy::default();
        assert!(!s.is_selfish());
        assert_eq!(s, Strategy::honest());
        assert_eq!(s.uncle_policy, UnclePolicy::Standard);
    }

    #[test]
    fn builders_set_fields() {
        let s = Strategy::honest()
            .with_empty_prob(0.26)
            .with_duplicate_prob(0.01)
            .with_malfunction_prob(1e-5)
            .with_uncle_policy(UnclePolicy::ForbidSameMinerHeight);
        assert!(s.is_selfish());
        assert_eq!(s.empty_block_prob, 0.26);
        assert_eq!(s.duplicate_prob, 0.01);
        assert_eq!(s.uncle_policy, UnclePolicy::ForbidSameMinerHeight);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_rejected() {
        let _ = Strategy::honest().with_empty_prob(1.5);
    }
}
