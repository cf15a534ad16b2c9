//! Run-length statistics for miner sequences.
//!
//! §III-D of the paper measures how many *consecutive* main-chain blocks a
//! single pool mined (Figure 7) and compares against the theoretical
//! chance: "the theoretical chance of mining a sequence of 8 consecutive
//! blocks would be 0.259^8 = 2 × 10^-5 ... Ethermine should be able to mine
//! 8 consecutive blocks 4 times per month". This module provides both the
//! empirical extraction and the exact theory the paper approximates.

/// Extracts maximal runs from a sequence: `[(value, run_length)]`.
///
/// ```
/// use ethmeter_stats::runs::run_lengths;
/// assert_eq!(run_lengths(&[1, 1, 2, 2, 2, 1]), vec![(1, 2), (2, 3), (1, 1)]);
/// ```
pub fn run_lengths<T: Copy + PartialEq>(seq: &[T]) -> Vec<(T, usize)> {
    let mut out = Vec::new();
    let mut iter = seq.iter();
    let Some(&first) = iter.next() else {
        return out;
    };
    let mut current = first;
    let mut len = 1usize;
    for &v in iter {
        if v == current {
            len += 1;
        } else {
            out.push((current, len));
            current = v;
            len = 1;
        }
    }
    out.push((current, len));
    out
}

/// The longest run of `value` in `seq` (0 if absent).
pub fn longest_run<T: Copy + PartialEq>(seq: &[T], value: T) -> usize {
    run_lengths(seq)
        .into_iter()
        .filter(|&(v, _)| v == value)
        .map(|(_, l)| l)
        .max()
        .unwrap_or(0)
}

/// Counts maximal runs of `value` with length at least `k`.
pub fn count_runs_at_least<T: Copy + PartialEq>(seq: &[T], value: T, k: usize) -> usize {
    run_lengths(seq)
        .into_iter()
        .filter(|&(v, l)| v == value && l >= k)
        .count()
}

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

/// Exact expected number of *maximal* runs of length ≥ `k` in `n` Bernoulli
/// trials with success probability `p`.
///
/// By linearity: a maximal ≥k-run starts at trial 1 with probability `p^k`,
/// and at trial `i > 1` with probability `(1-p)·p^k`, so
/// `E = p^k · (1 + (n-k)·(1-p))` for `n ≥ k`, else 0.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `k == 0`.
pub fn expected_maximal_runs(n: u64, p: f64, k: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    assert!(k > 0, "run length must be positive");
    if n < u64::from(k) {
        return 0.0;
    }
    let pk = p.powi(k as i32);
    pk * (1.0 + (n - u64::from(k)) as f64 * (1.0 - p))
}

/// Exact probability that `n` Bernoulli(`p`) trials contain at least one
/// run of ≥ `k` successes.
///
/// Computed by dynamic programming over the current-run-length state
/// (O(n·k) time, O(k) space), so it is exact rather than the Poisson
/// approximation implicit in the paper's estimate.
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
    let k = k as usize;
    // state[j] = P(alive, current trailing run == j), j in 0..k
    let mut state = vec![0.0f64; k];
    state[0] = 1.0;
    let mut next = vec![0.0f64; k];
    let mut dead = 0.0f64; // absorbed: a >=k run has occurred
    for _ in 0..n {
        next.fill(0.0);
        let mut fail_mass = 0.0;
        for (j, &m) in state.iter().enumerate() {
            if m == 0.0 {
                continue;
            }
            fail_mass += m * (1.0 - p);
            let extended = m * p;
            if j + 1 == k {
                dead += extended;
            } else {
                next[j + 1] += extended;
            }
        }
        next[0] += fail_mass;
        std::mem::swap(&mut state, &mut next);
    }
    dead
}

/// Expected number of trials until the first run of `k` successes completes
/// (inclusive of the run itself): `(1 - p^k) / ((1 - p) · p^k)` + `k`-free
/// standard form; equivalently `(p^-k - 1)/(1 - p)`.
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
    fn run_extraction_basics() {
        assert_eq!(run_lengths::<u8>(&[]), vec![]);
        assert_eq!(run_lengths(&[5]), vec![(5, 1)]);
        assert_eq!(
            run_lengths(&[1, 1, 1, 2, 1, 1]),
            vec![(1, 3), (2, 1), (1, 2)]
        );
    }

    #[test]
    fn longest_and_count() {
        let seq = [1, 1, 2, 1, 1, 1, 2, 2, 1];
        assert_eq!(longest_run(&seq, 1), 3);
        assert_eq!(longest_run(&seq, 2), 2);
        assert_eq!(longest_run(&seq, 9), 0);
        assert_eq!(count_runs_at_least(&seq, 1, 2), 2);
        assert_eq!(count_runs_at_least(&seq, 1, 3), 1);
        assert_eq!(count_runs_at_least(&seq, 2, 1), 2);
    }

    #[test]
    fn paper_headline_numbers() {
        // Ethermine: p = 0.259, k = 8 => p^8 ~ 2e-5; over 201,086 blocks ~ 4
        // occurrences (paper's §III-D arithmetic).
        let p = 0.259f64;
        let naive = naive_expected_runs(201_086, p, 8);
        assert!((3.0..5.5).contains(&naive), "naive {naive}");
        // Exact maximal-run expectation is close to (1-p) * naive here.
        let exact = expected_maximal_runs(201_086, p, 8);
        assert!((exact - naive * (1.0 - p)).abs() / exact < 0.01);

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

    #[test]
    fn dp_matches_closed_forms_small() {
        // k=1: P(any success in n trials) = 1 - (1-p)^n.
        for &(n, p) in &[(1u64, 0.3f64), (5, 0.3), (10, 0.7)] {
            let dp = prob_run_at_least(n, p, 1);
            let closed = 1.0 - (1.0 - p).powi(n as i32);
            assert!((dp - closed).abs() < 1e-12, "n={n} p={p}");
        }
        // n = k: must be exactly p^k.
        let dp = prob_run_at_least(4, 0.5, 4);
        assert!((dp - 0.0625).abs() < 1e-12);
        // Degenerate edges.
        assert_eq!(prob_run_at_least(3, 0.5, 4), 0.0);
        assert_eq!(prob_run_at_least(10, 1.0, 4), 1.0);
        assert_eq!(prob_run_at_least(10, 0.0, 1), 0.0);
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
        fn run_lengths_reconstruct_sequence(seq in proptest::collection::vec(0u8..4, 0..200)) {
            let runs = run_lengths(&seq);
            // Total length preserved.
            let total: usize = runs.iter().map(|&(_, l)| l).sum();
            prop_assert_eq!(total, seq.len());
            // Adjacent runs differ in value.
            for w in runs.windows(2) {
                prop_assert_ne!(w[0].0, w[1].0);
            }
            // Reconstruction is identity.
            let rebuilt: Vec<u8> = runs
                .iter()
                .flat_map(|&(v, l)| std::iter::repeat_n(v, l))
                .collect();
            prop_assert_eq!(rebuilt, seq);
        }

        #[test]
        fn prob_is_monotone_in_n_and_antimonotone_in_k(
            p in 0.05f64..0.95,
            k in 1u32..6,
            n in 1u64..60,
        ) {
            let base = prob_run_at_least(n, p, k);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&base));
            // Tolerances absorb the additive FP error of the O(n*k) DP.
            prop_assert!(prob_run_at_least(n + 10, p, k) >= base - 1e-9);
            prop_assert!(prob_run_at_least(n, p, k + 1) <= base + 1e-9);
        }

        #[test]
        fn expected_runs_bounds(p in 0.05f64..0.95, k in 1u32..6, n in 1u64..500) {
            let e = expected_maximal_runs(n, p, k);
            prop_assert!(e >= 0.0);
            // Cannot exceed the count of available starting positions / k.
            prop_assert!(e <= n as f64);
            // Naive estimate upper-bounds the exact maximal-run expectation
            // for n >= k (each maximal run is counted once, naive counts
            // every position).
            if n >= u64::from(k) {
                prop_assert!(e <= naive_expected_runs(n, p, k) + 1e-9);
            }
        }
    }
}
