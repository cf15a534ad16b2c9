//! Run-length statistics for miner sequences.
//!
//! §III-D of the paper measures how many *consecutive* main-chain blocks a
//! single pool mined (Figure 7) and compares against the theoretical
//! chance: "the theoretical chance of mining a sequence of 8 consecutive
//! blocks would be 0.259^8 = 2 × 10^-5 ... Ethermine should be able to mine
//! 8 consecutive blocks 4 times per month". This module provides the exact
//! theory the paper approximates; the empirical extraction is the
//! streaming run-length fold of `ethmeter_analysis::sequences`.
//!
//! The exact chance of a ≥k run in n trials ([`prob_run_at_least`]) is the
//! absorbed mass of a (k+1)-state Markov chain after n steps, read off the
//! n-th power of its transfer matrix taken by repeated squaring:
//! O(k³·⌈log2 n⌉) instead of the O(n·k) of stepping the chain, so the
//! whole-chain horizon (n = 7.7 M, k a pool's longest run) costs
//! microseconds. The stepping DP stays in the tests as the reference.

/// The paper's naive estimate of how many `k`-runs a miner with block-win
/// probability `p` produces among `n` blocks: `n * p^k`.
///
/// (This is the §III-D back-of-envelope: `2e-5 × 201,086 ≈ 4`.)
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn naive_expected_runs(n: u64, p: f64, k: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    n as f64 * p.powi(k as i32)
}

/// Exact probability that `n` Bernoulli(`p`) trials contain at least one
/// run of ≥ `k` successes.
///
/// The state is the current trailing run length (`0..k`, alive) plus one
/// absorbing state (a ≥k run has occurred), so the answer is exact rather
/// than the Poisson approximation implicit in the paper's estimate. It is
/// the absorbed entry of the n-th power of the (k+1)×(k+1) transfer
/// matrix (O(k³·log n) time, O(k²) space), which adds and multiplies
/// nonnegative numbers only, so it loses no precision to a `1 − q`
/// cancellation.
///
/// A ≥k run starts at one of `n − k + 1` trials, each with chance `p^k`,
/// so the answer is at most `(n − k + 1)·p^k`. Once that union bound's
/// log falls below −745.2 (half the least subnormal `f64`, 2^−1075, is
/// e^−745.13) the correctly rounded answer is `0.0`, returned without the
/// matrix: a pool with no share, or a run far longer than its share
/// makes likely (a 100,000-block run would need two 80 GB matrices).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `k == 0`.
pub fn prob_run_at_least(n: u64, p: f64, k: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    assert!(k > 0, "run length must be positive");
    if n < u64::from(k) {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    if union_bound_vanishes(n, p, k) {
        return 0.0;
    }
    prob_by_matrix_power(n, p, k as usize)
}

/// `ln(n − k + 1) + k·ln(p) < −745.2`, for `n ≥ k ≥ 1` and `p < 1`.
///
/// A normal `p` is at least `2^e` for its binary exponent `e`, so
/// `ln p ≥ e·ln 2`, and `ln(n − k + 1) ≥ 0`: the test can only pass once
/// `k·(−e) > 1075` (`745.2 / ln 2 ≈ 1075.1`). Below that the logarithms
/// are not taken, so rows at real shares never call into libm's `log`
/// (whose tables alone are ~0.2 MiB of a process's resident pages).
fn union_bound_vanishes(n: u64, p: f64, k: u32) -> bool {
    let e = (p.to_bits() >> 52) as i64 - 1023;
    (p < f64::MIN_POSITIVE || -e * i64::from(k) > 1075)
        && ((n - u64::from(k) + 1) as f64).ln() + f64::from(k) * p.ln() < -745.2
}

/// `e_0 · T^n`'s absorbed entry, with `T` the transfer matrix over states
/// `0..k` (alive, trailing run `j`) and `k` (absorbed), row-major.
fn prob_by_matrix_power(n: u64, p: f64, k: usize) -> f64 {
    let dim = k + 1;
    let mut power = vec![0.0f64; dim * dim];
    for j in 0..k {
        power[j * dim] = 1.0 - p;
        power[j * dim + j + 1] = p;
    }
    power[k * dim + k] = 1.0;
    let mut dist = vec![0.0f64; dim];
    dist[0] = 1.0;
    let (mut dist_next, mut power_next) = (dist.clone(), power.clone());
    // dist · T^n = dist · ∏ T^(2^i) over the set bits i of n; the powers
    // of one matrix commute, so the order of the factors is free.
    let mut bits = n;
    loop {
        if bits & 1 == 1 {
            mul_into(&mut dist_next, &dist, &power, dim);
            std::mem::swap(&mut dist, &mut dist_next);
        }
        bits >>= 1;
        if bits == 0 {
            return dist[k];
        }
        mul_into(&mut power_next, &power, &power, dim);
        std::mem::swap(&mut power, &mut power_next);
    }
}

/// `out = a · b` for row-major `a` (`a.len() / dim` rows) and a `dim × dim`
/// matrix `b`.
fn mul_into(out: &mut [f64], a: &[f64], b: &[f64], dim: usize) {
    out.fill(0.0);
    for (out_row, a_row) in out.chunks_exact_mut(dim).zip(a.chunks_exact(dim)) {
        for (&x, b_row) in a_row.iter().zip(b.chunks_exact(dim)) {
            for (o, &y) in out_row.iter_mut().zip(b_row) {
                *o += x * y;
            }
        }
    }
}

/// Steps the run-length chain `n` times (O(n·k)): the reference
/// [`prob_by_matrix_power`] is tested against.
#[cfg(test)]
fn prob_by_stepping(n: u64, p: f64, k: usize) -> f64 {
    // state[j] = P(alive, current trailing run == j), j in 0..k
    let mut state = vec![0.0f64; k];
    state[0] = 1.0;
    let q = 1.0 - p;
    let mut dead = 0.0f64; // absorbed: a >=k run has occurred
    for _ in 0..n {
        let fail_mass = state.iter().fold(0.0, |acc, &m| acc + m * q);
        dead += state[k - 1] * p;
        for j in (1..k).rev() {
            state[j] = state[j - 1] * p;
        }
        state[0] = fail_mass;
    }
    dead
}

/// Expected number of trials until the first run of `k` successes completes
/// (inclusive of the run itself): `(1 - p^k) / ((1 - p) · p^k)`, computed
/// in the equivalent form `(p^-k - 1) / (1 - p)`.
///
/// §III-D: with `p = 0.259` and `k = 14`, this is on the order of 10^7
/// blocks — "once in 1,000 years" at 13.3 s/block.
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)` or `k == 0`.
pub fn expected_trials_until_run(p: f64, k: u32) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0,1)");
    assert!(k > 0, "run length must be positive");
    (p.powi(-(k as i32)) - 1.0) / (1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_headline_numbers() {
        // Ethermine: p = 0.259, k = 8 => p^8 ~ 2e-5; over 201,086 blocks ~ 4
        // occurrences (paper's §III-D arithmetic).
        let p = 0.259f64;
        let naive = naive_expected_runs(201_086, p, 8);
        assert!((3.0..5.5).contains(&naive), "naive {naive}");

        // Sparkpool: p = 0.2269, k = 9 => about 0.3/month naive.
        let spark = naive_expected_runs(201_086, 0.2269, 9);
        assert!((0.2..0.5).contains(&spark), "spark {spark}");

        // 14-run at p = 0.259: mean waiting ~ 2.2e8 blocks ~ 90 years of
        // 13.3s blocks. The paper rounds this to "once in 1,000 years";
        // the exact arithmetic gives decades-to-centuries -- either way,
        // vastly beyond the one 14-run actually observed on chain, which is
        // the paper's point. We assert the order of magnitude.
        let per_month = naive_expected_runs(201_086, 0.259, 14);
        let years = 1.0 / per_month / 12.0;
        assert!((30.0..2_000.0).contains(&years), "years {years}");
        let wait_blocks = expected_trials_until_run(0.259, 14);
        assert!(wait_blocks > 1e8, "wait {wait_blocks}");
    }

    /// The shares of the agreement grid: rare, paper-scale and dominant.
    const PS: [f64; 6] = [0.01, 0.05, 0.1, 0.2532, 0.5, 0.9];

    fn rel_diff(a: f64, b: f64) -> f64 {
        let scale = a.abs().max(b.abs());
        if scale == 0.0 {
            0.0
        } else {
            (a - b).abs() / scale
        }
    }

    /// Both paths over `p ∈ PS`, `k ∈ 1..=16` at each `n` (`None` = `n = k`)
    /// agree within `tol` relative.
    fn assert_paths_agree(ns: &[Option<u64>], tol: f64) {
        for &n in ns {
            for p in PS {
                for k in 1..=16u32 {
                    let n = n.unwrap_or(u64::from(k));
                    let stepped = prob_by_stepping(n, p, k as usize);
                    let powered = prob_by_matrix_power(n, p, k as usize);
                    let d = rel_diff(stepped, powered);
                    assert!(
                        d <= tol,
                        "n={n} p={p} k={k}: stepped {stepped:e} vs matrix {powered:e} (rel {d:e})"
                    );
                }
            }
        }
    }

    #[test]
    fn stepping_and_matrix_power_agree() {
        assert_paths_agree(&[None, Some(10), Some(1_000), Some(201_086)], 1e-8);
    }

    /// The whole-chain horizon: 96 stepped calls of up to 123 M updates,
    /// several of which (p ≥ 0.5, small k) spend millions of steps on
    /// subnormal alive mass — about a minute even optimised.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release only: O(n·k) reference at n = 7.7 M"
    )]
    fn stepping_and_matrix_power_agree_over_the_whole_chain() {
        assert_paths_agree(&[Some(7_700_000)], 1e-8);
    }

    #[test]
    fn both_paths_match_closed_forms() {
        type Path = fn(u64, f64, usize) -> f64;
        for path in [prob_by_stepping as Path, prob_by_matrix_power] {
            for p in PS {
                // k = 1: P(any success in n trials) = 1 - (1-p)^n.
                for n in [1u64, 10, 1_000, 201_086] {
                    let closed = 1.0 - (1.0 - p).powf(n as f64);
                    let d = rel_diff(path(n, p, 1), closed);
                    assert!(d < 1e-12, "k=1 n={n} p={p}: rel {d:e}");
                }
                // n = k: exactly p^k.
                for k in 1..=16 {
                    let d = rel_diff(path(k, p, k as usize), p.powi(k as i32));
                    assert!(d < 1e-12, "n=k={k} p={p}: rel {d:e}");
                }
            }
        }
        // Degenerate edges.
        assert_eq!(prob_run_at_least(3, 0.5, 4), 0.0);
        assert_eq!(prob_run_at_least(10, 1.0, 4), 1.0);
        assert_eq!(prob_run_at_least(10, 0.0, 1), 0.0);
        assert_eq!(prob_run_at_least(7_700_000, 0.0, 3), 0.0);
    }

    #[test]
    fn a_union_bound_below_half_the_least_subnormal_rounds_to_zero() {
        // At p = 0.01 over 1,000 trials the union bound's log crosses
        // −745.2 between k = 163 (−743.9) and k = 164 (−748.5).
        assert_eq!(
            prob_run_at_least(1_000, 0.01, 163),
            prob_by_matrix_power(1_000, 0.01, 163)
        );
        assert_eq!(prob_run_at_least(1_000, 0.01, 164), 0.0);
        assert!(prob_by_matrix_power(1_000, 0.01, 164) <= f64::from_bits(1));
        // Runs no matrix this side of 80 GB could hold.
        assert_eq!(prob_run_at_least(100_000, 0.55, 100_000), 0.0);
        assert_eq!(prob_run_at_least(7_700_000, 0.0, 100_000), 0.0);
    }

    #[test]
    fn the_exponent_filter_never_changes_the_bound_test() {
        // At p = 2^−e the filter's estimate of ln p is exact, so k·e = 1075
        // and 1076 straddle the test itself: a filter one step too strict
        // fails here.
        let by_logs = |n: u64, p: f64, k: u32| {
            ((n - u64::from(k) + 1) as f64).ln() + f64::from(k) * p.ln() < -745.2
        };
        for e in 1..=1074u32 {
            let p = 0.5f64.powi(e as i32);
            for k in [1075 / e, 1075 / e + 1, 1075 / e + 2] {
                for n in [u64::from(k), u64::from(k) + 1_000, 7_700_000] {
                    assert_eq!(
                        union_bound_vanishes(n, p, k),
                        by_logs(n, p, k),
                        "p = 2^-{e}, k = {k}, n = {n}"
                    );
                }
            }
        }
        for p in [0.0, f64::from_bits(1), 1e-310, 0.01, 0.2532, 0.55, 0.9] {
            for k in (1..=3_000u32).step_by(7) {
                assert_eq!(
                    union_bound_vanishes(10_000, p, k),
                    by_logs(10_000, p, k),
                    "p = {p}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn dp_matches_monte_carlo() {
        use ethmeter_sim::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(31);
        let (n, p, k) = (60u64, 0.4f64, 3u32);
        let trials = 200_000;
        let mut hits = 0u64;
        for _ in 0..trials {
            let mut run = 0u32;
            let mut found = false;
            for _ in 0..n {
                if rng.chance(p) {
                    run += 1;
                    if run >= k {
                        found = true;
                        break;
                    }
                } else {
                    run = 0;
                }
            }
            if found {
                hits += 1;
            }
        }
        let mc = hits as f64 / trials as f64;
        let dp = prob_run_at_least(n, p, k);
        assert!((mc - dp).abs() < 0.005, "mc {mc} vs dp {dp}");
    }

    proptest! {
        #[test]
        fn prob_is_monotone_in_n_and_antimonotone_in_k(
            p in 0.05f64..0.95,
            k in 1u32..6,
            n in 1u64..60,
        ) {
            let base = prob_run_at_least(n, p, k);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&base));
            // Tolerances absorb the additive FP error of the matrix products.
            prop_assert!(prob_run_at_least(n + 10, p, k) >= base - 1e-9);
            prop_assert!(prob_run_at_least(n, p, k + 1) <= base + 1e-9);
        }

    }
}
