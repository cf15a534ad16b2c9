//! Stateful pool behaviors: the selfish-mining state machine.
//!
//! The probabilistic [`crate::Strategy`] knobs reproduce what the paper
//! *observed* (empty blocks, one-miner forks); they cannot express the
//! withholding attacks that the same pool concentration *enables*. This
//! module adds the uncle-aware selfish-mining machine of "Selfish Mining
//! in Ethereum" (Niu & Feng, 2019): the attacker mines on a private
//! branch, tracks its lead over the public chain, matches or overrides
//! honest blocks at fork-choice time, and releases abandoned private
//! blocks so the network references them as uncles.
//!
//! [`SelfishState`] is the *pure* decision core — it never touches a
//! network, a registry, or an RNG. Drivers feed it two events (the pool
//! solved a block; the pool's gateway adopted a new public head) and
//! obey its release decisions: each event moves the payloads of the
//! blocks to publish into a buffer the caller owns and reuses. That
//! purity is what lets the same machine drive both the full
//! discrete-event world (`ethmeter-core`'s `SimWorld`, where the tie-win
//! fraction γ *emerges* from gateway placement) and the chain-only
//! profitability race (where γ is an explicit parameter), and what makes
//! its invariants proptestable.

use ethmeter_types::{BlockHash, BlockNumber};

/// How a pool decides what to do with the blocks it mines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolBehavior {
    /// Publish every block immediately (the paper's pools; the
    /// probabilistic [`crate::Strategy`] knobs still apply). This is the
    /// default and is bit-identical to the pre-behavior code path — the
    /// golden fingerprints pin that.
    #[default]
    Honest,
    /// Withhold blocks on a private branch and release them at
    /// fork-choice time per the selfish-mining machine.
    Selfish(SelfishConfig),
}

impl PoolBehavior {
    /// True for any behavior other than plain honest publishing.
    #[cfg(test)]
    pub fn is_adversarial(&self) -> bool {
        !matches!(self, PoolBehavior::Honest)
    }
}

/// Parameters of the selfish-mining machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfishConfig {
    /// The lead (private tip height minus public head height, measured
    /// *after* a public advance) at or below which the attacker publishes
    /// its entire remaining private branch.
    ///
    /// `1` is the classic Niu–Feng machine: override while the private
    /// branch is still strictly longer. `0` is the fully lead-stubborn
    /// variant: keep matching block for block and settle only ties.
    /// Values `k > 1` give up the withheld lead earlier (useful as
    /// ablation arms; they interpolate toward honest mining).
    pub override_lead: u64,
}

impl SelfishConfig {
    /// The classic selfish-mining machine (override at lead 1).
    pub fn classic() -> Self {
        SelfishConfig { override_lead: 1 }
    }

    /// A lead-`k` stubborn variant: the attacker keeps racing until its
    /// lead falls to `k` before publishing the whole branch. `stubborn(1)`
    /// is [`SelfishConfig::classic`]; `stubborn(0)` never overrides early.
    // detlint::allow(unread-pub, reason = "library API: the stubborn selfish-mining variant, run in full simulation by tests/selfish.rs")
    pub fn stubborn(override_lead: u64) -> Self {
        SelfishConfig { override_lead }
    }
}

impl Default for SelfishConfig {
    fn default() -> Self {
        Self::classic()
    }
}

/// The selfish-mining state machine (see the module docs).
///
/// The machine tracks a *base* (the public block the private branch
/// forks from), the withheld branch itself, and how much of that branch
/// has already been shown to the network. Drivers call
/// [`SelfishState::target`] to know where the pool mines,
/// [`SelfishState::on_solve`] when the pool wins a PoW race, and
/// [`SelfishState::on_public_head`] when the pool's gateway adopts a new
/// public head. Each block's payload `B` (a registry slot, a full
/// block, ...) is handed over with its solve and moved back out, never
/// cloned, when the machine releases the block: both event methods
/// append the payloads of every block that must be published *now* to
/// the caller's `out`, oldest first.
#[derive(Debug, Clone)]
pub struct SelfishState<B> {
    cfg: SelfishConfig,
    /// `(hash, height)` of the public block the private branch extends.
    /// Only rewritten when the branch is empty (fold/adopt/abandon), so
    /// the branch is always connected to it.
    base: (BlockHash, BlockNumber),
    /// The private branch's hashes, oldest first: entry `i` extends
    /// entry `i - 1` (entry 0 the base) at height `base.1 + 1 + i`.
    private: Vec<BlockHash>,
    /// Length of the already-released prefix of `private`.
    released: usize,
    /// The payloads of `private[released..]`, oldest first.
    payloads: Vec<B>,
    /// Highest public head height the machine has been told about.
    public_number: BlockNumber,
    /// True while the fully released branch is tied with a public branch
    /// of equal height (state 0′ of the classic machine): the next solve
    /// is published immediately instead of withheld.
    racing: bool,
}

/// What a [`SelfishState`] event decided, beyond the blocks to release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelfishOutcome {
    /// The solved block was withheld on the private branch.
    Withheld,
    /// The solved block was published immediately (race win).
    Published,
    /// The branch (or part of it) was released to match the public
    /// height; the remainder stays private.
    Matched,
    /// The whole branch was released because it is strictly longer than
    /// the public chain (override) — the branch folds into the base.
    Overrode,
    /// The whole branch was released at equal height — a tie race the
    /// network (γ) will settle.
    Tied,
    /// The public chain overtook the branch; the leftovers were released
    /// only so the network can reference them as uncles.
    Abandoned,
    /// Nothing to do (adopted the head, or the advance was already
    /// covered by earlier releases).
    Idle,
}

impl<B> SelfishState<B> {
    /// A machine rooted at `base` (typically the genesis block).
    pub fn new(cfg: SelfishConfig, base: BlockHash) -> Self {
        SelfishState {
            cfg,
            base: (base, 0),
            private: Vec::new(),
            released: 0,
            payloads: Vec::new(),
            public_number: 0,
            racing: false,
        }
    }

    /// The configuration this machine runs.
    pub fn config(&self) -> SelfishConfig {
        self.cfg
    }

    /// `(parent hash, height)` of the next block the pool should mine:
    /// on top of the private tip, or of the base when nothing is
    /// withheld.
    pub fn target(&self) -> (BlockHash, BlockNumber) {
        let (hash, number) = self.tip().unwrap_or(self.base);
        (hash, number + 1)
    }

    /// `(hash, height)` of the base: the public block the private branch
    /// extends, or the next solve will when nothing is withheld.
    pub fn base(&self) -> (BlockHash, BlockNumber) {
        self.base
    }

    /// `(hash, height)` of the private tip, if a branch exists.
    pub fn tip(&self) -> Option<(BlockHash, BlockNumber)> {
        let number = self.base.1 + self.private.len() as BlockNumber;
        self.private.last().map(|&hash| (hash, number))
    }

    /// Blocks currently on the private branch (released prefix included).
    pub fn branch_len(&self) -> usize {
        self.private.len()
    }

    /// How many of the branch's blocks have been released.
    pub fn released_len(&self) -> usize {
        self.released
    }

    /// The private tip's lead over the last observed public head.
    /// Never negative: the machine abandons the branch the moment the
    /// public chain overtakes it.
    pub fn lead(&self) -> u64 {
        self.tip()
            .map_or(0, |(_, number)| number.saturating_sub(self.public_number))
    }

    /// True while a fully released branch is racing a public tie.
    #[cfg(test)]
    pub fn is_racing(&self) -> bool {
        self.racing
    }

    /// Moves the payloads of the unreleased blocks below `upto` into
    /// `out`.
    fn drain_unreleased(&mut self, upto: usize, out: &mut Vec<B>) {
        out.extend(self.payloads.drain(..upto - self.released));
        self.released = upto;
    }

    /// Folds the (fully released) branch away: mining continues on
    /// `head` as if the pool were honest there.
    fn fold_to(&mut self, head: BlockHash, number: BlockNumber) {
        self.base = (head, number);
        self.private.clear();
        self.released = 0;
        self.payloads.clear();
        self.racing = false;
    }

    /// The pool solved a block at [`SelfishState::target`]. Moves the
    /// payload into `out` if the block is to be published now; otherwise
    /// the machine keeps it and `out` is left as it was.
    pub fn on_solve(&mut self, hash: BlockHash, payload: B, out: &mut Vec<B>) -> SelfishOutcome {
        let (_, number) = self.target();
        if self.racing {
            // State 0′: the branch is public and tied; this block breaks
            // the tie in our favor. Publish it immediately and fold.
            self.fold_to(hash, number);
            out.push(payload);
            return SelfishOutcome::Published;
        }
        self.private.push(hash);
        self.payloads.push(payload);
        SelfishOutcome::Withheld
    }

    /// The pool's gateway adopted a new public head. `extends_tip` must
    /// be true iff `head` is the private tip or a descendant of it (the
    /// caller answers this from its chain view). Moves the payloads to
    /// publish now into `out`, oldest first.
    pub fn on_public_head(
        &mut self,
        head: BlockHash,
        number: BlockNumber,
        extends_tip: bool,
        out: &mut Vec<B>,
    ) -> SelfishOutcome {
        self.public_number = self.public_number.max(number);
        if extends_tip || self.private.is_empty() {
            // The network adopted our branch (override landed, or we won
            // a tie), or there is none: continue from the head like an
            // honest miner.
            self.fold_to(head, number);
            return SelfishOutcome::Idle;
        }
        let (tip, tip_number) = self.tip().expect("branch non-empty");
        if number > tip_number {
            // Overtaken: the branch lost. Release the leftovers anyway —
            // published losers are uncle candidates worth 7/8 of a block
            // reward, the Niu–Feng uncle channel.
            self.drain_unreleased(self.private.len(), out);
            self.fold_to(head, number);
            return SelfishOutcome::Abandoned;
        }
        let lead = tip_number - number;
        if lead == 0 {
            // Equal height: show everything and let the network (γ)
            // settle the tie. The branch stays recorded so a later win
            // can still fold onto it.
            self.drain_unreleased(self.private.len(), out);
            self.racing = true;
            return SelfishOutcome::Tied;
        }
        if lead <= self.cfg.override_lead {
            // Strictly longer: publish the whole branch; fork choice
            // must switch to it. Fold eagerly so mining continues on the
            // tip without waiting for our own gateway's import.
            self.drain_unreleased(self.private.len(), out);
            self.fold_to(tip, tip_number);
            return SelfishOutcome::Overrode;
        }
        // Comfortable lead: reveal just enough to contest every public
        // height above the base, keep the rest private. A head at or
        // below the base (an override not yet adopted) contests none.
        let need = number.saturating_sub(self.base.1) as usize;
        if need > self.released {
            self.drain_unreleased(need, out);
            return SelfishOutcome::Matched;
        }
        SelfishOutcome::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u64) -> BlockHash {
        BlockHash(0xbeef_0000 + n)
    }

    fn machine() -> SelfishState<u64> {
        SelfishState::new(SelfishConfig::classic(), h(0))
    }

    /// [`SelfishState::on_solve`], with what it released.
    fn solve<B>(m: &mut SelfishState<B>, hash: BlockHash, payload: B) -> (SelfishOutcome, Vec<B>) {
        let mut out = Vec::new();
        (m.on_solve(hash, payload, &mut out), out)
    }

    /// [`SelfishState::on_public_head`], with what it released.
    fn public_head<B>(
        m: &mut SelfishState<B>,
        head: BlockHash,
        number: BlockNumber,
        extends_tip: bool,
    ) -> (SelfishOutcome, Vec<B>) {
        let mut out = Vec::new();
        (m.on_public_head(head, number, extends_tip, &mut out), out)
    }

    #[test]
    fn honest_default_and_adversarial_flag() {
        assert_eq!(PoolBehavior::default(), PoolBehavior::Honest);
        assert!(!PoolBehavior::Honest.is_adversarial());
        assert!(PoolBehavior::Selfish(SelfishConfig::classic()).is_adversarial());
        assert_eq!(SelfishConfig::default(), SelfishConfig::classic());
        assert_eq!(SelfishConfig::stubborn(1), SelfishConfig::classic());
    }

    #[test]
    fn first_solve_is_withheld() {
        let mut m = machine();
        assert_eq!(m.target(), (h(0), 1));
        let (out, rel) = solve(&mut m, h(1), 1);
        assert_eq!(out, SelfishOutcome::Withheld);
        assert!(rel.is_empty());
        assert_eq!(m.target(), (h(1), 2));
        assert_eq!(m.lead(), 1);
    }

    #[test]
    fn lead_one_honest_block_forces_tie_release() {
        let mut m = machine();
        solve(&mut m, h(1), 1);
        // Honest network reaches height 1 on a competing block.
        let (out, rel) = public_head(&mut m, h(100), 1, false);
        assert_eq!(out, SelfishOutcome::Tied);
        assert_eq!(rel, vec![1]);
        assert!(m.is_racing());
        // We still mine on our own tip during the race.
        assert_eq!(m.target(), (h(1), 2));
    }

    #[test]
    fn race_win_by_own_solve_publishes_immediately() {
        let mut m = machine();
        solve(&mut m, h(1), 1);
        public_head(&mut m, h(100), 1, false);
        let (out, rel) = solve(&mut m, h(2), 2);
        assert_eq!(out, SelfishOutcome::Published);
        assert_eq!(rel, vec![2]);
        assert!(!m.is_racing());
        assert_eq!(m.target(), (h(2), 3));
        assert_eq!(m.branch_len(), 0);
    }

    #[test]
    fn race_win_by_honest_extension_folds() {
        let mut m = machine();
        solve(&mut m, h(1), 1);
        public_head(&mut m, h(100), 1, false);
        // An honest miner built on our released block: we won the tie.
        let (out, rel) = public_head(&mut m, h(101), 2, true);
        assert_eq!(out, SelfishOutcome::Idle);
        assert!(rel.is_empty());
        assert_eq!(m.target(), (h(101), 3));
    }

    #[test]
    fn race_loss_abandons_cleanly() {
        let mut m = machine();
        solve(&mut m, h(1), 1);
        public_head(&mut m, h(100), 1, false);
        // The honest branch got extended instead: adopt it.
        let (out, rel) = public_head(&mut m, h(101), 2, false);
        assert_eq!(out, SelfishOutcome::Abandoned);
        assert!(rel.is_empty(), "everything was already released");
        assert_eq!(m.target(), (h(101), 3));
        assert!(!m.is_racing());
    }

    #[test]
    fn lead_two_override_releases_whole_branch() {
        let mut m = machine();
        solve(&mut m, h(1), 1);
        solve(&mut m, h(2), 2);
        assert_eq!(m.lead(), 2);
        let (out, rel) = public_head(&mut m, h(100), 1, false);
        assert_eq!(out, SelfishOutcome::Overrode);
        assert_eq!(rel, vec![1, 2]);
        // Folded onto our own tip.
        assert_eq!(m.target(), (h(2), 3));
        assert_eq!(m.branch_len(), 0);
    }

    #[test]
    fn long_lead_matches_then_overrides() {
        let mut m = machine();
        for i in 1..=4u64 {
            solve(&mut m, h(i), i);
        }
        // Honest height 1: match with our first block only.
        let (out, rel) = public_head(&mut m, h(100), 1, false);
        assert_eq!(out, SelfishOutcome::Matched);
        assert_eq!(rel, vec![1]);
        assert_eq!(m.released_len(), 1);
        // Honest height 2: still lead 2 -> match the second block.
        let (out, rel) = public_head(&mut m, h(101), 2, false);
        assert_eq!(out, SelfishOutcome::Matched);
        assert_eq!(rel, vec![2]);
        // Honest height 3: lead 1 -> override with the rest.
        let (out, rel) = public_head(&mut m, h(102), 3, false);
        assert_eq!(out, SelfishOutcome::Overrode);
        assert_eq!(rel, vec![3, 4]);
        assert_eq!(m.target(), (h(4), 5));
    }

    #[test]
    fn overtaken_branch_is_released_for_uncles() {
        let mut m = machine();
        solve(&mut m, h(1), 1);
        solve(&mut m, h(2), 2);
        // Public jumps straight past us (e.g. a burst of honest imports).
        let (out, rel) = public_head(&mut m, h(100), 3, false);
        assert_eq!(out, SelfishOutcome::Abandoned);
        assert_eq!(rel, vec![1, 2], "losers still go public as uncle bait");
        assert_eq!(m.target(), (h(100), 4));
        assert_eq!(m.lead(), 0);
    }

    #[test]
    fn stubborn_variant_keeps_matching_at_lead_one() {
        let mut m: SelfishState<u64> = SelfishState::new(SelfishConfig::stubborn(0), h(0));
        solve(&mut m, h(1), 1);
        solve(&mut m, h(2), 2);
        let (out, rel) = public_head(&mut m, h(100), 1, false);
        assert_eq!(out, SelfishOutcome::Matched, "no early override");
        assert_eq!(rel, vec![1]);
        assert_eq!(m.branch_len(), 2);
        // Only the tie is settled by release.
        let (out, rel) = public_head(&mut m, h(101), 2, false);
        assert_eq!(out, SelfishOutcome::Tied);
        assert_eq!(rel, vec![2]);
        assert!(m.is_racing());
    }

    #[test]
    fn a_head_below_the_base_after_an_override_releases_nothing() {
        let mut m: SelfishState<u64> = SelfishState::new(SelfishConfig::stubborn(2), h(0));
        solve(&mut m, h(1), 1);
        solve(&mut m, h(2), 2);
        solve(&mut m, h(3), 3);
        // Lead 2 at public height 1: override, folding onto our tip.
        let (out, rel) = public_head(&mut m, h(100), 1, false);
        assert_eq!((out, rel), (SelfishOutcome::Overrode, vec![1, 2, 3]));
        solve(&mut m, h(4), 4);
        solve(&mut m, h(5), 5);
        // The gateway still sees the honest chain, now at height 2, below
        // the base: a lead of 3 with nothing to contest.
        let (out, rel) = public_head(&mut m, h(101), 2, false);
        assert_eq!((out, rel), (SelfishOutcome::Idle, vec![]));
        assert_eq!(m.target(), (h(5), 6));
    }

    #[test]
    fn releases_move_payloads_onto_the_end_of_the_callers_buffer() {
        // A payload that cannot be cloned: releases hand back the values
        // the solves handed in.
        #[derive(Debug, PartialEq)]
        struct Slot(u64);
        let mut m = SelfishState::new(SelfishConfig::classic(), h(0));
        let mut out = vec![Slot(0)];
        for i in 1..=3u64 {
            assert_eq!(
                m.on_solve(h(i), Slot(i), &mut out),
                SelfishOutcome::Withheld
            );
        }
        assert_eq!(out, [Slot(0)], "withheld blocks stay with the machine");
        assert_eq!(
            m.on_public_head(h(100), 1, false, &mut out),
            SelfishOutcome::Matched
        );
        assert_eq!(
            m.on_public_head(h(101), 2, false, &mut out),
            SelfishOutcome::Overrode
        );
        assert_eq!(out, [Slot(0), Slot(1), Slot(2), Slot(3)]);
        assert_eq!(m.target(), (h(3), 4));
    }

    #[test]
    fn adopting_heads_without_a_branch_is_honest() {
        let mut m = machine();
        let (out, rel) = public_head(&mut m, h(100), 1, false);
        assert_eq!(out, SelfishOutcome::Idle);
        assert!(rel.is_empty());
        assert_eq!(m.target(), (h(100), 2));
        assert_eq!(m.branch_len(), 0);
        assert_eq!(m.config(), SelfishConfig::classic());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn h(n: u64) -> BlockHash {
        BlockHash(0xcafe_0000 + n)
    }

    /// Replays a random event script against the machine, checking the
    /// structural invariants after every step:
    ///
    /// - the lead is never negative (the machine abandons instead);
    /// - `released` is a prefix of the branch, and the machine holds the
    ///   payloads of exactly the rest (here each payload is its block's
    ///   height);
    /// - every event's releases are a run of consecutive heights;
    /// - the mining target is always one above the tip (or base).
    fn check_invariants(m: &SelfishState<u64>, released: &[u64]) {
        assert!(m.released <= m.private.len());
        let (_, base) = m.base();
        let unreleased = base + m.released as u64 + 1..=base + m.private.len() as u64;
        assert!(m.payloads.iter().copied().eq(unreleased), "payloads held");
        assert!(
            released.windows(2).all(|w| w[1] == w[0] + 1),
            "{released:?}"
        );
        assert_eq!(m.target().1, base + m.private.len() as u64 + 1);
    }

    proptest! {
        // The `on_public_head` underflow a below-base head caused first
        // failed on case 261.
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn random_schedules_hold_invariants(
            override_lead in 0u64..3,
            script in proptest::collection::vec((0u8..4, 0u64..3), 1..60),
        ) {
            let mut m: SelfishState<u64> =
                SelfishState::new(SelfishConfig::stubborn(override_lead), h(0));
            let mut next = 1u64;
            let mut public = 0u64; // highest public height announced
            // One event's releases, and every event's.
            let (mut released, mut released_total) = (Vec::new(), 0);
            for (op, jump) in script {
                released.clear();
                match op {
                    // The pool solves at its target.
                    0 => {
                        let (_, n) = m.target();
                        let hash = h(next);
                        next += 1;
                        m.on_solve(hash, n, &mut released);
                    }
                    // A competing public head at/above the known height.
                    1 | 2 => {
                        public = (public + 1).max(public + jump);
                        let hash = h(10_000 + next);
                        next += 1;
                        m.on_public_head(hash, public, false, &mut released);
                        prop_assert!(
                            m.branch_len() == 0 || m.lead() >= 1 || m.is_racing(),
                            "an unreleased branch never trails the public chain"
                        );
                    }
                    // The public chain adopted our tip (only possible for
                    // a fully released branch at or above public height).
                    _ => {
                        if let Some((tip, tip_n)) = m.tip() {
                            if tip_n >= public && m.released_len() == m.branch_len() {
                                public = tip_n;
                                m.on_public_head(tip, tip_n, true, &mut released);
                            }
                        }
                    }
                }
                // Lead is computed with saturating_sub; prove it is real:
                // whenever a branch survives an event, its tip sits at or
                // above every announced public height (never a negative
                // lead — the machine abandons instead).
                if let Some((_, tip_n)) = m.tip() {
                    prop_assert!(tip_n >= public, "tip {tip_n} vs public {public}");
                }
                released_total += released.len();
                check_invariants(&m, &released);
            }
            // Releases only ever surface blocks that exist.
            prop_assert!(released_total <= (next as usize));
        }
    }
}
