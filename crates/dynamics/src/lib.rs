//! Scheduled, deterministic network dynamics and attack scripts.
//!
//! The paper's measurements (§IV–V) run on a *static* world; this crate
//! supplies the fault-injection layer that stresses it: node churn
//! (leave/rejoin), link failures and heals, regional partitions,
//! bandwidth/latency degradation windows, and the attack scenarios they
//! enable — eclipse/isolation of a victim pool's gateways, transaction
//! floods through the txpool, and the double-spend depth analysis built
//! on top (`P(revert ≥ k)`, see `ethmeter_analysis::reorg`).
//!
//! A [`DynamicsScript`] is a list of `(SimTime, DynamicsEvent)` entries.
//! It is *data only*: the simulation driver (`ethmeter-core`) lowers each
//! entry into its event stream and applies the topology mutations. Every
//! event fires at a pre-declared virtual time, so a scripted campaign is
//! exactly as deterministic as a static one — the same script, scenario,
//! and seed produce bit-identical campaign fingerprints on the sequential
//! and sharded engines alike.
//!
//! ```
//! use ethmeter_dynamics::{DynamicsScript, RegionMask};
//! use ethmeter_types::{Region, SimDuration, SimTime};
//!
//! let asia = RegionMask::of(&[Region::EasternAsia, Region::SouthAsia]);
//! let rest = asia.complement();
//! let script = DynamicsScript::new().partition_window(
//!     SimTime::ZERO + SimDuration::from_mins(5),
//!     SimDuration::from_mins(3),
//!     asia,
//!     rest,
//! );
//! assert_eq!(script.entries().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ethmeter_sim::Xoshiro256;
use ethmeter_types::{NodeId, PoolId, Region, SimDuration, SimTime};

/// A set of [`Region`]s as a bitmask over [`Region::ALL`] indices.
///
/// Used by partition events: a partition severs every link whose
/// endpoints fall on opposite sides of an `(a, b)` mask pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionMask(u8);

impl RegionMask {
    /// The empty set.
    #[cfg(test)]
    pub const EMPTY: RegionMask = RegionMask(0);

    /// Every region.
    pub const ALL: RegionMask = RegionMask(((1u16 << Region::COUNT) - 1) as u8);

    /// Builds a mask from a list of regions.
    pub fn of(regions: &[Region]) -> Self {
        let mut bits = 0u8;
        for r in regions {
            bits |= 1 << r.index();
        }
        RegionMask(bits)
    }

    /// True if `region` is in the set.
    pub fn contains(self, region: Region) -> bool {
        self.0 & (1 << region.index()) != 0
    }

    /// The regions *not* in this set.
    pub fn complement(self) -> Self {
        RegionMask(!self.0 & Self::ALL.0)
    }

    /// True if no region is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if the two sets share a region.
    pub fn intersects(self, other: RegionMask) -> bool {
        self.0 & other.0 != 0
    }
}

/// One scheduled dynamics action.
///
/// Node and pool identifiers refer to the scenario's own numbering: the
/// driver validates them against the world at build time
/// ([`DynamicsScript::validate`]) so a malformed script fails with a
/// structured error naming the offending [`SimTime`] instead of
/// panicking inside a shard worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynamicsEvent {
    /// The node leaves: every one of its links is torn down (per-link
    /// gossip state dropped on both ends). The torn link set is recorded
    /// for [`DynamicsEvent::NodeUp`].
    NodeDown(NodeId),
    /// The node rejoins: its recorded links are re-dialed (skipping
    /// peers that are themselves still down — those re-dial on their own
    /// rejoin). Fresh links start with empty known-sets, like any new
    /// dial.
    NodeUp(NodeId),
    /// One link fails (both ends forget it). Recorded for
    /// [`DynamicsEvent::LinkUp`].
    LinkDown(NodeId, NodeId),
    /// A previously failed link heals. A no-op if the pair was never
    /// severed or either end is down (the pair then re-dials on rejoin).
    LinkUp(NodeId, NodeId),
    /// Regional partition: every live link with one endpoint in `a` and
    /// the other in `b` is severed (recorded for [`DynamicsEvent::Heal`]).
    Partition {
        /// One side of the cut.
        a: RegionMask,
        /// The other side.
        b: RegionMask,
    },
    /// Heals every severed link whose endpoints match the `a`/`b` masks
    /// (in either orientation) and whose endpoints are both up.
    Heal {
        /// One side of the original cut.
        a: RegionMask,
        /// The other side.
        b: RegionMask,
    },
    /// Multiplies every subsequently sampled link latency by `factor`
    /// (`> 1` degrades, `< 1` upgrades). Stays in force until the next
    /// `LatencyScale`; `1.0` restores nominal latency.
    LatencyScale(f64),
    /// Scales effective access bandwidth by `factor` (transfer times are
    /// divided by it; `< 1` degrades). Stays in force until the next
    /// `BandwidthScale`; `1.0` restores nominal bandwidth.
    BandwidthScale(f64),
    /// Eclipse attack: every gateway of the victim pool is isolated
    /// (all gossip links torn, as [`DynamicsEvent::NodeDown`] per
    /// gateway). The pool keeps mining — its stratum path to its own
    /// gateways is internal — so it extends an island chain that is
    /// reverted on release, which is what drives `P(revert ≥ k)`.
    EclipsePool(PoolId),
    /// Ends an eclipse: every gateway of the pool re-dials its recorded
    /// links (as [`DynamicsEvent::NodeUp`] per gateway).
    ReleasePool(PoolId),
    /// Starts a transaction-spam flood: spam transactions from random
    /// origin nodes are injected into the gossip layer as a Poisson
    /// process at `rate_per_sec`, on top of the normal workload. The
    /// spam stream draws from the dedicated dynamics RNG lane, so the
    /// base workload is untouched.
    FloodStart {
        /// Mean spam injections per simulated second.
        rate_per_sec: f64,
    },
    /// Stops the flood started by the latest [`DynamicsEvent::FloodStart`].
    FloodStop,
}

/// Why a script failed validation. Every variant carries the virtual
/// time of the offending entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynamicsError {
    /// A node id at or beyond the world's node count.
    UnknownNode {
        /// When the offending entry fires.
        at: SimTime,
        /// The out-of-range node.
        node: NodeId,
    },
    /// A pool id at or beyond the scenario's pool count.
    UnknownPool {
        /// When the offending entry fires.
        at: SimTime,
        /// The out-of-range pool.
        pool: PoolId,
    },
    /// A link event naming the same node on both ends.
    SelfLink {
        /// When the offending entry fires.
        at: SimTime,
        /// The node linked to itself.
        node: NodeId,
    },
    /// A partition/heal with an empty or overlapping region pair.
    BadRegionPair {
        /// When the offending entry fires.
        at: SimTime,
    },
    /// A latency/bandwidth factor that is not finite and positive.
    BadScale {
        /// When the offending entry fires.
        at: SimTime,
        /// The rejected factor.
        factor: f64,
    },
    /// A flood rate that is not finite and positive.
    BadRate {
        /// When the offending entry fires.
        at: SimTime,
        /// The rejected rate.
        rate: f64,
    },
}

impl std::fmt::Display for DynamicsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicsError::UnknownNode { at, node } => {
                write!(f, "dynamics entry at {at}: unknown node {node}")
            }
            DynamicsError::UnknownPool { at, pool } => {
                write!(f, "dynamics entry at {at}: unknown pool {pool:?}")
            }
            DynamicsError::SelfLink { at, node } => {
                write!(f, "dynamics entry at {at}: self-link on node {node}")
            }
            DynamicsError::BadRegionPair { at } => {
                write!(
                    f,
                    "dynamics entry at {at}: partition sides must be non-empty and disjoint"
                )
            }
            DynamicsError::BadScale { at, factor } => {
                write!(
                    f,
                    "dynamics entry at {at}: scale factor {factor} must be finite and positive"
                )
            }
            DynamicsError::BadRate { at, rate } => {
                write!(
                    f,
                    "dynamics entry at {at}: flood rate {rate} must be finite and positive"
                )
            }
        }
    }
}

impl std::error::Error for DynamicsError {}

/// A deterministic fault-injection script: `(SimTime, DynamicsEvent)`
/// entries attached to a scenario via `ScenarioBuilder::dynamics(...)`.
///
/// Entries need not be sorted; the driver schedules each at its declared
/// time. Entries sharing a timestamp fire in list order. An empty script
/// is the static world: campaigns are bit-identical to a scenario with
/// no dynamics at all (pinned by the golden regression tests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsScript {
    entries: Vec<(SimTime, DynamicsEvent)>,
}

impl DynamicsScript {
    /// An empty script (the static world).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry; returns the script for chaining.
    #[must_use]
    pub fn at(mut self, time: SimTime, event: DynamicsEvent) -> Self {
        self.entries.push((time, event));
        self
    }

    /// The scheduled entries, in list order.
    pub fn entries(&self) -> &[(SimTime, DynamicsEvent)] {
        &self.entries
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Recipe: sever all links between region sets `a` and `b` at
    /// `start`, heal them `duration` later.
    #[must_use]
    pub fn partition_window(
        self,
        start: SimTime,
        duration: SimDuration,
        a: RegionMask,
        b: RegionMask,
    ) -> Self {
        self.at(start, DynamicsEvent::Partition { a, b })
            .at(start + duration, DynamicsEvent::Heal { a, b })
    }

    /// Recipe: eclipse `pool`'s gateways at `start`, release them
    /// `duration` later.
    #[must_use]
    pub fn eclipse_window(self, start: SimTime, duration: SimDuration, pool: PoolId) -> Self {
        self.at(start, DynamicsEvent::EclipsePool(pool))
            .at(start + duration, DynamicsEvent::ReleasePool(pool))
    }

    /// Recipe: flood spam transactions at `rate_per_sec` for `duration`
    /// starting at `start`.
    #[must_use]
    pub fn flood_window(self, start: SimTime, duration: SimDuration, rate_per_sec: f64) -> Self {
        self.at(start, DynamicsEvent::FloodStart { rate_per_sec })
            .at(start + duration, DynamicsEvent::FloodStop)
    }

    /// Recipe: take one node down at `start` and bring it back
    /// `duration` later.
    #[must_use]
    pub fn churn_window(self, start: SimTime, duration: SimDuration, node: NodeId) -> Self {
        self.at(start, DynamicsEvent::NodeDown(node))
            .at(start + duration, DynamicsEvent::NodeUp(node))
    }

    /// Generates a deterministic churn script: over `[start, start +
    /// span)`, a `fraction` of the first `nodes` node ids (sampled
    /// without replacement from `seed`) each go down once at a random
    /// offset and come back after `downtime`. The same arguments always
    /// produce the same script.
    #[must_use]
    // detlint::allow(unread-pub, reason = "library API: scripted churn, driven by the shard-invariance proptest in tests/dynamics.rs")
    pub fn churn(
        mut self,
        seed: u64,
        nodes: u32,
        fraction: f64,
        start: SimTime,
        span: SimDuration,
        downtime: SimDuration,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "churn fraction must be in [0, 1]"
        );
        assert!(nodes > 0, "churn needs a node population");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let churners = ((f64::from(nodes) * fraction).round() as u32).min(nodes);
        // Partial Fisher–Yates over the id range: the first `churners`
        // entries are a uniform sample without replacement.
        let mut ids: Vec<u32> = (0..nodes).collect();
        for i in 0..churners as usize {
            let j = i + (rng.next_u64() as usize) % (ids.len() - i);
            ids.swap(i, j);
        }
        let span_ns = span.as_secs_f64();
        for &id in &ids[..churners as usize] {
            let offset = SimDuration::from_secs_f64(rng.next_f64() * span_ns);
            self = self.churn_window(start + offset, downtime, NodeId(id));
        }
        self
    }

    /// The smallest latency scale factor any entry can put in force
    /// (`1.0` if none scales latency). The sharded engine's lookahead is
    /// `proc_overhead + min_link_delay × min(1, this)`, pre-computed
    /// conservatively before the run so a degradation window can never
    /// undercut the synchronization horizon.
    pub fn min_latency_scale(&self) -> f64 {
        let mut min = 1.0f64;
        for (_, e) in &self.entries {
            if let DynamicsEvent::LatencyScale(factor) = e {
                min = min.min(*factor);
            }
        }
        min
    }

    /// Validates every entry against a world of `nodes` nodes and
    /// `pools` pools, returning the first offense with its [`SimTime`].
    pub fn validate(&self, nodes: usize, pools: usize) -> Result<(), DynamicsError> {
        let check_node = |at: SimTime, n: NodeId| {
            if (n.index()) < nodes {
                Ok(())
            } else {
                Err(DynamicsError::UnknownNode { at, node: n })
            }
        };
        for &(at, ref event) in &self.entries {
            match *event {
                DynamicsEvent::NodeDown(n) | DynamicsEvent::NodeUp(n) => check_node(at, n)?,
                DynamicsEvent::LinkDown(a, b) | DynamicsEvent::LinkUp(a, b) => {
                    check_node(at, a)?;
                    check_node(at, b)?;
                    if a == b {
                        return Err(DynamicsError::SelfLink { at, node: a });
                    }
                }
                DynamicsEvent::Partition { a, b } | DynamicsEvent::Heal { a, b } => {
                    if a.is_empty() || b.is_empty() || a.intersects(b) {
                        return Err(DynamicsError::BadRegionPair { at });
                    }
                }
                DynamicsEvent::LatencyScale(factor) | DynamicsEvent::BandwidthScale(factor) => {
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(DynamicsError::BadScale { at, factor });
                    }
                }
                DynamicsEvent::EclipsePool(p) | DynamicsEvent::ReleasePool(p) => {
                    if p.0 as usize >= pools {
                        return Err(DynamicsError::UnknownPool { at, pool: p });
                    }
                }
                DynamicsEvent::FloodStart { rate_per_sec } => {
                    if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
                        return Err(DynamicsError::BadRate {
                            at,
                            rate: rate_per_sec,
                        });
                    }
                }
                DynamicsEvent::FloodStop => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn region_mask_basics() {
        let asia = RegionMask::of(&[Region::EasternAsia, Region::SouthAsia]);
        assert!(asia.contains(Region::EasternAsia));
        assert!(!asia.contains(Region::Oceania));
        assert!(asia.complement().contains(Region::Oceania));
        assert!(!asia.intersects(asia.complement()));
        assert!(RegionMask::ALL.contains(Region::SouthAmerica));
        assert!(RegionMask::EMPTY.is_empty());
        assert_eq!(RegionMask::ALL.complement(), RegionMask::EMPTY);
    }

    #[test]
    fn recipes_expand_to_paired_entries() {
        let asia = RegionMask::of(&[Region::EasternAsia]);
        let script = DynamicsScript::new()
            .partition_window(t(10), SimDuration::from_secs(60), asia, asia.complement())
            .eclipse_window(t(5), SimDuration::from_secs(30), PoolId(0))
            .flood_window(t(1), SimDuration::from_secs(2), 50.0)
            .churn_window(t(7), SimDuration::from_secs(3), NodeId(4));
        assert_eq!(script.entries().len(), 8);
        assert_eq!(
            script.entries()[1],
            (
                t(70),
                DynamicsEvent::Heal {
                    a: asia,
                    b: asia.complement()
                }
            )
        );
        assert_eq!(
            script.entries()[3],
            (t(35), DynamicsEvent::ReleasePool(PoolId(0)))
        );
        assert!(script.validate(10, 1).is_ok());
    }

    #[test]
    fn churn_is_deterministic_and_sized() {
        let a = DynamicsScript::new().churn(
            9,
            40,
            0.25,
            t(0),
            SimDuration::from_mins(10),
            SimDuration::from_mins(1),
        );
        let b = DynamicsScript::new().churn(
            9,
            40,
            0.25,
            t(0),
            SimDuration::from_mins(10),
            SimDuration::from_mins(1),
        );
        assert_eq!(a, b, "same seed, same script");
        assert_eq!(a.entries().len(), 2 * 10, "25% of 40 nodes, down+up each");
        // Distinct churners (sample without replacement).
        let mut ids: Vec<u32> = a
            .entries()
            .iter()
            .filter_map(|(_, e)| match e {
                DynamicsEvent::NodeDown(n) => Some(n.0),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        let c = DynamicsScript::new().churn(
            10,
            40,
            0.25,
            t(0),
            SimDuration::from_mins(10),
            SimDuration::from_mins(1),
        );
        assert_ne!(a, c, "different seed, different script");
    }

    #[test]
    fn validation_names_the_offending_time() {
        let bad = DynamicsScript::new().at(t(33), DynamicsEvent::NodeDown(NodeId(99)));
        assert_eq!(
            bad.validate(10, 1),
            Err(DynamicsError::UnknownNode {
                at: t(33),
                node: NodeId(99)
            })
        );
        let self_link =
            DynamicsScript::new().at(t(2), DynamicsEvent::LinkDown(NodeId(3), NodeId(3)));
        assert_eq!(
            self_link.validate(10, 1),
            Err(DynamicsError::SelfLink {
                at: t(2),
                node: NodeId(3)
            })
        );
        let overlap = DynamicsScript::new().at(
            t(4),
            DynamicsEvent::Partition {
                a: RegionMask::ALL,
                b: RegionMask::of(&[Region::Oceania]),
            },
        );
        assert_eq!(
            overlap.validate(10, 1),
            Err(DynamicsError::BadRegionPair { at: t(4) })
        );
        let bad_scale = DynamicsScript::new().at(t(6), DynamicsEvent::LatencyScale(0.0));
        assert!(matches!(
            bad_scale.validate(10, 1),
            Err(DynamicsError::BadScale { .. })
        ));
        let bad_pool = DynamicsScript::new().at(t(8), DynamicsEvent::EclipsePool(PoolId(7)));
        assert!(matches!(
            bad_pool.validate(10, 2),
            Err(DynamicsError::UnknownPool { .. })
        ));
        let bad_rate = DynamicsScript::new().at(
            t(9),
            DynamicsEvent::FloodStart {
                rate_per_sec: f64::NAN,
            },
        );
        assert!(matches!(
            bad_rate.validate(10, 1),
            Err(DynamicsError::BadRate { .. })
        ));
    }

    #[test]
    fn min_latency_scale_is_conservative() {
        let s = DynamicsScript::new()
            .at(t(1), DynamicsEvent::LatencyScale(2.0))
            .at(t(2), DynamicsEvent::LatencyScale(0.25))
            .at(t(3), DynamicsEvent::LatencyScale(1.0));
        assert_eq!(s.min_latency_scale(), 0.25);
        assert_eq!(DynamicsScript::new().min_latency_scale(), 1.0);
    }
}
