//! Pluggable consensus engines: fork-choice scoring, head preference,
//! block validation, and uncle/reward policy behind one object-safe trait.
//!
//! The paper's measurements all sit on Ethereum's heaviest-chain
//! (total-difficulty) rule, but its §V mitigation discussion — and the
//! adversarial-behavior experiments layered on top — ask what happens to
//! fork rates, commit times, and selfish-mining revenue when the *rule*
//! changes. [`Consensus`] factors every protocol decision out of the one
//! fork-choice core, [`crate::headertree::HeaderTree`]:
//!
//! - **scoring** ([`Consensus::score`]): the fork-choice weight of a block
//!   given its parent's weight, replacing the hardcoded total-difficulty
//!   accumulation;
//! - **head selection** ([`Consensus::prefer`]): whether a candidate
//!   `(score, hash)` displaces the incumbent head;
//! - **validation** ([`Consensus::validate`]): the structural check a
//!   header must pass before attaching (height continuity by default);
//! - **uncle policy** ([`Consensus::uncle_policy`] /
//!   [`Consensus::rewards_uncles`]): which uncle references are legal and
//!   whether the reward schedule credits them;
//! - **confirmation depths** ([`Consensus::safe_depth`] /
//!   [`Consensus::finalized_depth`]): how far the derived safe/finalized
//!   markers trail the head.
//!
//! Three engines ship: [`HeaviestChain`] (the default — bit-identical to
//! the historical hardcoded rule and pinned by the campaign goldens),
//! [`LongestChain`], and the uncle-weighted [`UncleGhost`]. Scenario
//! plumbing selects one via the serializable [`ConsensusKind`].
//!
//! # Determinism
//!
//! [`HeaviestChain`] keeps Geth's first-seen tie-break (a tie keeps the
//! incumbent), which makes its head depend on insertion order — exactly
//! the behavior the simulator measures and the goldens pin. Every
//! *non-default* engine must instead order candidates by the total order
//! `(score, hash)`: head selection then becomes an incremental argmax,
//! independent of insertion order and of the merge tree of the sharded
//! engine. See DETERMINISM.md ("Fork-choice tie-breaks").

use std::fmt;
use std::sync::Arc;

use ethmeter_types::{BlockHash, BlockNumber};

use crate::headertree::InsertError;
use crate::uncles::UnclePolicy;

/// The fork-choice score of a block. Concrete (not an associated type) so
/// [`Consensus`] stays object-safe and engines remain freely swappable at
/// runtime; `u128` holds any additive accumulation a campaign can reach.
pub type Score = u128;

/// A consensus engine: every protocol decision a block tree delegates.
///
/// Implementations must be stateless value objects (`Send + Sync`) — all
/// chain state lives in the tree; the engine is pure policy. The trait is
/// object-safe and is threaded through the simulator as an
/// `Arc<dyn Consensus>`.
pub trait Consensus: fmt::Debug + Send + Sync {
    /// Short stable identifier (used in reports, JSON, and CLI output).
    fn name(&self) -> &'static str;

    /// Fork-choice score of a block, from its parent's score, its own
    /// difficulty, and the number of uncles it references.
    fn score(&self, parent_score: Score, difficulty: u64, uncle_count: usize) -> Score;

    /// Head-selection rule: true if the candidate should displace the
    /// incumbent head.
    ///
    /// The default is Ethereum's rule under constant difficulty: a
    /// strictly greater score wins, ties keep the incumbent (first-seen).
    /// Non-default engines should override this with the `(score, hash)`
    /// total order (see the module docs on determinism).
    fn prefer(
        &self,
        candidate: Score,
        candidate_hash: BlockHash,
        incumbent: Score,
        incumbent_hash: BlockHash,
    ) -> bool {
        let _ = (candidate_hash, incumbent_hash);
        candidate > incumbent
    }

    /// Structural validation of a header against its (attached) parent's
    /// height, run before the header joins a tree. The default enforces
    /// height continuity (`number == parent_number + 1`).
    fn validate(
        &self,
        hash: BlockHash,
        number: BlockNumber,
        parent_number: BlockNumber,
    ) -> Result<(), InsertError> {
        let expected = parent_number + 1;
        if number != expected {
            return Err(InsertError::HeightMismatch {
                hash,
                expected,
                got: number,
            });
        }
        Ok(())
    }

    /// The engine-level uncle-reference policy. [`UnclePolicy::Standard`]
    /// defers to the per-pool strategy; a stricter policy overrides it
    /// network-wide (the paper's §V mitigation as a protocol rule).
    fn uncle_policy(&self) -> UnclePolicy {
        UnclePolicy::Standard
    }

    /// Whether the reward schedule credits uncle and nephew rewards.
    /// Engines without uncle semantics (pure longest-chain) return false
    /// and the revenue analysis pays block rewards and fees only.
    fn rewards_uncles(&self) -> bool {
        true
    }

    /// Confirmations behind the head at which a block is considered
    /// *safe* (unlikely to revert under honest-majority conditions).
    fn safe_depth(&self) -> u64 {
        6
    }

    /// Confirmations behind the head at which a block is considered
    /// *finalized* by this engine's confirmation rule.
    fn finalized_depth(&self) -> u64 {
        12
    }
}

/// Ethereum's heaviest-chain (total-difficulty) rule — the default engine,
/// bit-identical to the historical hardcoded fork choice and pinned by the
/// campaign golden fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeaviestChain;

impl Consensus for HeaviestChain {
    fn name(&self) -> &'static str {
        "heaviest"
    }

    fn score(&self, parent_score: Score, difficulty: u64, _uncle_count: usize) -> Score {
        parent_score + Score::from(difficulty)
    }
}

/// Pure longest-chain fork choice: every block weighs 1 regardless of
/// difficulty, uncles carry no weight and earn no rewards. Ties break on
/// the `(score, hash)` total order, so the head is insertion-order
/// independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LongestChain;

impl Consensus for LongestChain {
    fn name(&self) -> &'static str {
        "longest"
    }

    fn score(&self, parent_score: Score, _difficulty: u64, _uncle_count: usize) -> Score {
        parent_score + 1
    }

    fn prefer(
        &self,
        candidate: Score,
        candidate_hash: BlockHash,
        incumbent: Score,
        incumbent_hash: BlockHash,
    ) -> bool {
        (candidate, candidate_hash) > (incumbent, incumbent_hash)
    }

    fn rewards_uncles(&self) -> bool {
        false
    }
}

/// An uncle-weighted GHOST variant: a block's weight is its difficulty
/// multiplied by `1 + uncles referenced`, so branches that absorb orphans
/// accumulate weight faster — the inclusive-protocol family the paper's
/// §V mitigation discussion points toward. Ties break on the
/// `(score, hash)` total order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UncleGhost;

impl Consensus for UncleGhost {
    fn name(&self) -> &'static str {
        "uncle-ghost"
    }

    fn score(&self, parent_score: Score, difficulty: u64, uncle_count: usize) -> Score {
        parent_score + Score::from(difficulty) * (1 + uncle_count as Score)
    }

    fn prefer(
        &self,
        candidate: Score,
        candidate_hash: BlockHash,
        incumbent: Score,
        incumbent_hash: BlockHash,
    ) -> bool {
        (candidate, candidate_hash) > (incumbent, incumbent_hash)
    }
}

/// Serializable selector for the shipped engines — the form scenarios and
/// grid axes carry (an `Arc<dyn Consensus>` is neither `PartialEq` nor
/// meaningfully printable, a `ConsensusKind` is both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ConsensusKind {
    /// [`HeaviestChain`] — the golden-pinned default.
    #[default]
    Heaviest,
    /// [`LongestChain`].
    Longest,
    /// [`UncleGhost`].
    UncleGhost,
}

impl ConsensusKind {
    /// Every shipped engine, in declaration order.
    pub const ALL: [ConsensusKind; 3] = [
        ConsensusKind::Heaviest,
        ConsensusKind::Longest,
        ConsensusKind::UncleGhost,
    ];

    /// Instantiates the engine.
    pub fn build(self) -> Arc<dyn Consensus> {
        match self {
            ConsensusKind::Heaviest => Arc::new(HeaviestChain),
            ConsensusKind::Longest => Arc::new(LongestChain),
            ConsensusKind::UncleGhost => Arc::new(UncleGhost),
        }
    }
}

impl fmt::Display for ConsensusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConsensusKind::Heaviest => "heaviest",
            ConsensusKind::Longest => "longest",
            ConsensusKind::UncleGhost => "uncle-ghost",
        })
    }
}

impl std::str::FromStr for ConsensusKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "heaviest" => Ok(ConsensusKind::Heaviest),
            "longest" => Ok(ConsensusKind::Longest),
            "uncle-ghost" | "ghost" => Ok(ConsensusKind::UncleGhost),
            other => Err(format!(
                "unknown consensus engine {other:?} (expected heaviest, longest, or uncle-ghost)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trait-conformance checks shared by every shipped engine.
    fn conformance(kind: ConsensusKind) {
        let engine = kind.build();
        assert_eq!(engine.name(), kind.to_string());
        // Round-trips through the CLI form.
        assert_eq!(kind.to_string().parse::<ConsensusKind>(), Ok(kind));

        // Scores are monotone in the parent score.
        let lo = engine.score(0, 1, 0);
        let hi = engine.score(lo, 1, 0);
        assert!(hi > lo, "{kind}: score must strictly increase");

        // prefer is a strict order: never prefer a candidate over itself.
        let h = BlockHash::mix(7);
        assert!(!engine.prefer(lo, h, lo, h), "{kind}: irreflexive");
        // A strictly greater score always wins, regardless of hashes.
        let (a, b) = (BlockHash::mix(1), BlockHash::mix(2));
        assert!(engine.prefer(hi, a, lo, b));
        assert!(engine.prefer(hi, b, lo, a));
        assert!(!engine.prefer(lo, a, hi, b));

        // Default validation enforces height continuity.
        assert!(engine.validate(h, 1, 0).is_ok());
        assert!(matches!(
            engine.validate(h, 5, 0),
            Err(InsertError::HeightMismatch {
                expected: 1,
                got: 5,
                ..
            })
        ));

        // Depth markers are sane: safe no deeper than finalized.
        assert!(engine.safe_depth() <= engine.finalized_depth());
    }

    #[test]
    fn all_engines_conform() {
        for kind in ConsensusKind::ALL {
            conformance(kind);
        }
    }

    #[test]
    fn heaviest_matches_the_historical_rule() {
        let e = HeaviestChain;
        // score = parent + difficulty, uncles ignored.
        assert_eq!(e.score(10, 3, 2), 13);
        // Strictly-greater wins; ties keep the incumbent whatever the
        // hashes say — the first-seen behavior the goldens pin.
        let (a, b) = (BlockHash::mix(1), BlockHash::mix(2));
        assert!(e.prefer(11, a, 10, b));
        assert!(!e.prefer(10, a, 10, b));
        assert!(!e.prefer(10, b, 10, a));
        assert!(e.rewards_uncles());
        assert_eq!(e.uncle_policy(), UnclePolicy::Standard);
    }

    #[test]
    fn longest_counts_blocks_not_difficulty() {
        let e = LongestChain;
        assert_eq!(e.score(4, 1_000, 2), 5);
        assert!(!e.rewards_uncles());
        // Ties break on hash: exactly one orientation wins.
        let (a, b) = (BlockHash::mix(1), BlockHash::mix(2));
        assert_ne!(e.prefer(5, a, 5, b), e.prefer(5, b, 5, a));
    }

    #[test]
    fn ghost_weights_uncles() {
        let e = UncleGhost;
        assert_eq!(e.score(0, 1, 0), 1);
        assert_eq!(e.score(0, 1, 2), 3);
        // Same chain with more referenced uncles outweighs a longer bare
        // chain of equal difficulty.
        let with_uncles = e.score(e.score(0, 1, 2), 1, 1);
        let bare = e.score(e.score(e.score(0, 1, 0), 1, 0), 1, 0);
        assert!(with_uncles > bare);
        assert!(e.rewards_uncles());
    }

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!(
            "ghost".parse::<ConsensusKind>(),
            Ok(ConsensusKind::UncleGhost)
        );
        assert!("casper".parse::<ConsensusKind>().is_err());
        assert_eq!(ConsensusKind::default(), ConsensusKind::Heaviest);
        assert_eq!(ConsensusKind::ALL.len(), 3);
    }
}
