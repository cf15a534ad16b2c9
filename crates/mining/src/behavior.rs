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
//! obey its release decisions. That purity is what lets the same machine
//! drive both the full discrete-event world (`ethmeter-core`'s
//! `SimWorld`, where the tie-win fraction γ *emerges* from gateway
//! placement) and the chain-only profitability race (where γ is an
//! explicit parameter), and what makes its invariants proptestable.

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

/// One withheld block of the private branch.
#[derive(Debug, Clone)]
pub struct Withheld<B> {
    /// The block's hash.
    pub hash: BlockHash,
    /// The parent it extends (the previous private block, or the base).
    pub parent: BlockHash,
    /// Height.
    pub number: BlockNumber,
    /// Driver payload (registry slot, full block, ...), handed back when
    /// the machine decides to release the block.
    pub payload: B,
}

/// The selfish-mining state machine (see the module docs).
///
/// The machine tracks a *base* (the public block the private branch
/// forks from), the withheld branch itself, and how much of that branch
/// has already been shown to the network. Drivers call
/// [`SelfishState::target`] to know where the pool mines,
/// [`SelfishState::on_solve`] when the pool wins a PoW race, and
/// [`SelfishState::on_public_head`] when the pool's gateway adopts a new
/// public head; both event methods return the payloads of every block
/// that must be published *now*.
#[derive(Debug, Clone)]
pub struct SelfishState<B> {
    cfg: SelfishConfig,
    /// `(hash, height)` of the public block the private branch extends.
    /// Only rewritten when the branch is empty (fold/adopt/abandon), so
    /// the branch is always connected to it.
    base: (BlockHash, BlockNumber),
    /// The private branch, oldest first; entry `i` extends entry `i-1`.
    private: Vec<Withheld<B>>,
    /// Length of the already-released prefix of `private`.
    released: usize,
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
        match self.private.last() {
            Some(tip) => (tip.hash, tip.number + 1),
            None => (self.base.0, self.base.1 + 1),
        }
    }

    /// `(hash, height)` of the private tip, if a branch exists.
    pub fn tip(&self) -> Option<(BlockHash, BlockNumber)> {
        self.private.last().map(|w| (w.hash, w.number))
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
        match self.private.last() {
            Some(tip) => tip.number.saturating_sub(self.public_number),
            None => 0,
        }
    }

    /// True while a fully released branch is racing a public tie.
    #[cfg(test)]
    pub fn is_racing(&self) -> bool {
        self.racing
    }

    /// The withheld branch, oldest first (inspection/testing).
    #[cfg(test)]
    pub fn branch(&self) -> &[Withheld<B>] {
        &self.private
    }

    fn drain_unreleased(&mut self, upto: usize) -> Vec<B>
    where
        B: Clone,
    {
        let out: Vec<B> = self.private[self.released..upto]
            .iter()
            .map(|w| w.payload.clone())
            .collect();
        self.released = upto;
        out
    }

    /// Folds the (fully released) branch away: mining continues on
    /// `head` as if the pool were honest there.
    fn fold_to(&mut self, head: BlockHash, number: BlockNumber) {
        self.base = (head, number);
        self.private.clear();
        self.released = 0;
        self.racing = false;
    }

    /// The pool solved a block at [`SelfishState::target`]. Returns the
    /// payloads to publish now (empty means the block was withheld).
    pub fn on_solve(&mut self, hash: BlockHash, payload: B) -> (SelfishOutcome, Vec<B>)
    where
        B: Clone,
    {
        let (parent, number) = self.target();
        if self.racing {
            // State 0′: the branch is public and tied; this block breaks
            // the tie in our favor. Publish it immediately and fold.
            self.fold_to(hash, number);
            return (SelfishOutcome::Published, vec![payload]);
        }
        self.private.push(Withheld {
            hash,
            parent,
            number,
            payload,
        });
        (SelfishOutcome::Withheld, Vec::new())
    }

    /// The pool's gateway adopted a new public head. `extends_tip` must
    /// be true iff `head` is the private tip or a descendant of it (the
    /// driver answers this from its chain view). Returns the payloads to
    /// publish now.
    pub fn on_public_head(
        &mut self,
        head: BlockHash,
        number: BlockNumber,
        extends_tip: bool,
    ) -> (SelfishOutcome, Vec<B>)
    where
        B: Clone,
    {
        self.public_number = self.public_number.max(number);
        if extends_tip {
            // The network adopted our branch (override landed, or we won
            // a tie): continue from the head like an honest miner.
            self.fold_to(head, number);
            return (SelfishOutcome::Idle, Vec::new());
        }
        if self.private.is_empty() {
            self.fold_to(head, number);
            return (SelfishOutcome::Idle, Vec::new());
        }
        let tip_number = self.private.last().expect("branch non-empty").number;
        if number > tip_number {
            // Overtaken: the branch lost. Release the leftovers anyway —
            // published losers are uncle candidates worth 7/8 of a block
            // reward, the Niu–Feng uncle channel.
            let rest = self.drain_unreleased(self.private.len());
            self.fold_to(head, number);
            return (SelfishOutcome::Abandoned, rest);
        }
        let lead = tip_number - number;
        if lead == 0 {
            // Equal height: show everything and let the network (γ)
            // settle the tie. The branch stays recorded so a later win
            // can still fold onto it.
            let rest = self.drain_unreleased(self.private.len());
            self.racing = true;
            return (SelfishOutcome::Tied, rest);
        }
        if lead <= self.cfg.override_lead {
            // Strictly longer: publish the whole branch; fork choice
            // must switch to it. Fold eagerly so mining continues on the
            // tip without waiting for our own gateway's import.
            let rest = self.drain_unreleased(self.private.len());
            let tip = (
                self.private.last().expect("branch non-empty").hash,
                tip_number,
            );
            self.fold_to(tip.0, tip.1);
            return (SelfishOutcome::Overrode, rest);
        }
        // Comfortable lead: reveal just enough to contest every public
        // height, keep the rest private.
        let need = (number - self.base.1) as usize;
        if need > self.released {
            let out = self.drain_unreleased(need);
            return (SelfishOutcome::Matched, out);
        }
        (SelfishOutcome::Idle, Vec::new())
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
        let (out, rel) = m.on_solve(h(1), 1);
        assert_eq!(out, SelfishOutcome::Withheld);
        assert!(rel.is_empty());
        assert_eq!(m.target(), (h(1), 2));
        assert_eq!(m.lead(), 1);
    }

    #[test]
    fn lead_one_honest_block_forces_tie_release() {
        let mut m = machine();
        m.on_solve(h(1), 1);
        // Honest network reaches height 1 on a competing block.
        let (out, rel) = m.on_public_head(h(100), 1, false);
        assert_eq!(out, SelfishOutcome::Tied);
        assert_eq!(rel, vec![1]);
        assert!(m.is_racing());
        // We still mine on our own tip during the race.
        assert_eq!(m.target(), (h(1), 2));
    }

    #[test]
    fn race_win_by_own_solve_publishes_immediately() {
        let mut m = machine();
        m.on_solve(h(1), 1);
        m.on_public_head(h(100), 1, false);
        let (out, rel) = m.on_solve(h(2), 2);
        assert_eq!(out, SelfishOutcome::Published);
        assert_eq!(rel, vec![2]);
        assert!(!m.is_racing());
        assert_eq!(m.target(), (h(2), 3));
        assert_eq!(m.branch_len(), 0);
    }

    #[test]
    fn race_win_by_honest_extension_folds() {
        let mut m = machine();
        m.on_solve(h(1), 1);
        m.on_public_head(h(100), 1, false);
        // An honest miner built on our released block: we won the tie.
        let (out, rel) = m.on_public_head(h(101), 2, true);
        assert_eq!(out, SelfishOutcome::Idle);
        assert!(rel.is_empty());
        assert_eq!(m.target(), (h(101), 3));
    }

    #[test]
    fn race_loss_abandons_cleanly() {
        let mut m = machine();
        m.on_solve(h(1), 1);
        m.on_public_head(h(100), 1, false);
        // The honest branch got extended instead: adopt it.
        let (out, rel) = m.on_public_head(h(101), 2, false);
        assert_eq!(out, SelfishOutcome::Abandoned);
        assert!(rel.is_empty(), "everything was already released");
        assert_eq!(m.target(), (h(101), 3));
        assert!(!m.is_racing());
    }

    #[test]
    fn lead_two_override_releases_whole_branch() {
        let mut m = machine();
        m.on_solve(h(1), 1);
        m.on_solve(h(2), 2);
        assert_eq!(m.lead(), 2);
        let (out, rel) = m.on_public_head(h(100), 1, false);
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
            m.on_solve(h(i), i);
        }
        // Honest height 1: match with our first block only.
        let (out, rel) = m.on_public_head(h(100), 1, false);
        assert_eq!(out, SelfishOutcome::Matched);
        assert_eq!(rel, vec![1]);
        assert_eq!(m.released_len(), 1);
        // Honest height 2: still lead 2 -> match the second block.
        let (out, rel) = m.on_public_head(h(101), 2, false);
        assert_eq!(out, SelfishOutcome::Matched);
        assert_eq!(rel, vec![2]);
        // Honest height 3: lead 1 -> override with the rest.
        let (out, rel) = m.on_public_head(h(102), 3, false);
        assert_eq!(out, SelfishOutcome::Overrode);
        assert_eq!(rel, vec![3, 4]);
        assert_eq!(m.target(), (h(4), 5));
    }

    #[test]
    fn overtaken_branch_is_released_for_uncles() {
        let mut m = machine();
        m.on_solve(h(1), 1);
        m.on_solve(h(2), 2);
        // Public jumps straight past us (e.g. a burst of honest imports).
        let (out, rel) = m.on_public_head(h(100), 3, false);
        assert_eq!(out, SelfishOutcome::Abandoned);
        assert_eq!(rel, vec![1, 2], "losers still go public as uncle bait");
        assert_eq!(m.target(), (h(100), 4));
        assert_eq!(m.lead(), 0);
    }

    #[test]
    fn stubborn_variant_keeps_matching_at_lead_one() {
        let mut m: SelfishState<u64> = SelfishState::new(SelfishConfig::stubborn(0), h(0));
        m.on_solve(h(1), 1);
        m.on_solve(h(2), 2);
        let (out, rel) = m.on_public_head(h(100), 1, false);
        assert_eq!(out, SelfishOutcome::Matched, "no early override");
        assert_eq!(rel, vec![1]);
        assert_eq!(m.branch_len(), 2);
        // Only the tie is settled by release.
        let (out, rel) = m.on_public_head(h(101), 2, false);
        assert_eq!(out, SelfishOutcome::Tied);
        assert_eq!(rel, vec![2]);
        assert!(m.is_racing());
    }

    #[test]
    fn adopting_heads_without_a_branch_is_honest() {
        let mut m = machine();
        let (out, rel) = m.on_public_head(h(100), 1, false);
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
    /// - `released` is a prefix of the branch;
    /// - the branch is connected: entry 0 extends the base, entry i
    ///   extends entry i-1, heights are consecutive;
    /// - every release output is itself a connected run of payloads;
    /// - the mining target is always one above the tip (or base).
    fn check_invariants(m: &SelfishState<u64>) {
        assert!(m.released_len() <= m.branch_len());
        let (base_hash, base_number) = match m.branch().first() {
            Some(first) => (first.parent, first.number - 1),
            None => {
                let (t, n) = m.target();
                (t, n - 1)
            }
        };
        let mut parent = base_hash;
        let mut number = base_number;
        for w in m.branch() {
            assert_eq!(w.parent, parent, "branch must be connected");
            assert_eq!(w.number, number + 1, "heights must be consecutive");
            parent = w.hash;
            number = w.number;
        }
        let (_, target_number) = m.target();
        assert_eq!(target_number, number + 1);
    }

    proptest! {
        #[test]
        fn random_schedules_hold_invariants(
            override_lead in 0u64..3,
            script in proptest::collection::vec((0u8..4, 0u64..3), 1..60),
        ) {
            let mut m: SelfishState<u64> =
                SelfishState::new(SelfishConfig::stubborn(override_lead), h(0));
            let mut next = 1u64;
            let mut public = 0u64; // highest public height announced
            let mut released_total = 0usize;
            for (op, jump) in script {
                match op {
                    // The pool solves at its target.
                    0 => {
                        let (_, n) = m.target();
                        let hash = h(next);
                        next += 1;
                        let (_, rel) = m.on_solve(hash, n);
                        released_total += rel.len();
                    }
                    // A competing public head at/above the known height.
                    1 | 2 => {
                        public = (public + 1).max(public + jump);
                        let hash = h(10_000 + next);
                        next += 1;
                        let (_, rel) = m.on_public_head(hash, public, false);
                        released_total += rel.len();
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
                                let (_, rel) = m.on_public_head(tip, tip_n, true);
                                released_total += rel.len();
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
                check_invariants(&m);
            }
            // Releases only ever surface blocks that exist.
            prop_assert!(released_total <= (next as usize));
        }
    }
}
