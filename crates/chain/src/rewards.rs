//! The post-Constantinople reward schedule (EIP-1234, in force during the
//! paper's April 2019 window).
//!
//! Rewards explain the selfish behaviors the paper documents: an empty
//! block forfeits only transaction fees (small) while keeping the 2 ETH
//! base reward (large) — "miners are penalized by not collecting
//! transaction fees ... they still get the mining reward which is, on
//! average, considerably higher" (§III-C3). One-miner forks harvest uncle
//! rewards: up to 7/8 of a block reward for a duplicate block (§III-C5).
//! `ethmeter_analysis::rewards` applies this schedule per pool.

use ethmeter_types::BlockNumber;

/// Milli-ether: rewards are tracked in integer thousandths of an ETH so
/// per-pool sums stay exact.
pub type MilliEther = u64;

/// Base block reward after Constantinople: 2 ETH.
pub const BLOCK_REWARD: MilliEther = 2_000;

/// Reward for an uncle at generation gap `k = nephew.number - uncle.number`
/// (1..=6): `(8 - k) / 8 * BLOCK_REWARD`.
///
/// Returns 0 outside the valid window.
pub fn uncle_reward(nephew: BlockNumber, uncle: BlockNumber) -> MilliEther {
    if uncle >= nephew {
        return 0;
    }
    let k = nephew - uncle;
    if k > 6 {
        return 0;
    }
    BLOCK_REWARD * (8 - k) / 8
}

/// Reward paid to the *nephew* for each uncle it references:
/// `BLOCK_REWARD / 32`.
pub const NEPHEW_REWARD: MilliEther = BLOCK_REWARD / 32;

/// Average fee revenue of one transaction (~75 transactions per full
/// block during the window → 2 mETH each). Deliberately integral so
/// revenue ledgers stay exact.
pub const AVG_FEE_PER_TX: MilliEther = 2;

/// Fee revenue of a block carrying `tx_count` transactions under the
/// flat per-transaction fee model.
pub fn tx_fees(tx_count: usize) -> MilliEther {
    AVG_FEE_PER_TX * tx_count as MilliEther
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncle_reward_schedule() {
        // Gap 1: 7/8 of 2 ETH = 1.75 ETH.
        assert_eq!(uncle_reward(10, 9), 1_750);
        // Gap 2: 6/8 = 1.5 ETH.
        assert_eq!(uncle_reward(10, 8), 1_500);
        // Gap 6: 2/8 = 0.5 ETH.
        assert_eq!(uncle_reward(10, 4), 500);
        // Out of window.
        assert_eq!(uncle_reward(10, 3), 0);
        assert_eq!(uncle_reward(10, 10), 0);
        assert_eq!(uncle_reward(10, 11), 0);
    }

    #[test]
    fn nephew_reward_is_one_thirty_second() {
        assert_eq!(NEPHEW_REWARD, 62); // 2000/32 = 62.5 truncated
    }

    #[test]
    fn flat_fee_model_matches_full_block_average() {
        assert_eq!(tx_fees(0), 0);
        // ~0.15 ETH of fees in a full block at April 2019 gas prices.
        assert_eq!(tx_fees(75), 150);
    }

    #[test]
    fn one_miner_fork_profitability() {
        // The paper's §III-C5 economics: a duplicate block recognized as a
        // gap-1 uncle earns 1.75 ETH -- 87.5% of a main block. That dwarfs
        // the fee income it forfeits, which is why duplicates pay off.
        assert!(uncle_reward(5, 4) > 10 * tx_fees(75));
    }
}
