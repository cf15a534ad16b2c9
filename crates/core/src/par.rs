//! Deterministic sharded parallel execution of a single campaign.
//!
//! [`run_campaign_sharded`] partitions one campaign's *execution* across
//! worker threads while keeping its *output* bit-identical to the
//! sequential engine at any shard count — the campaign fingerprint is
//! invariant in `scenario.shards`. Three mechanisms make that hold:
//!
//! - **Replicated construction, partitioned execution.** Every shard
//!   builds the identical full [`SimWorld`] from the scenario (same
//!   topology, placement, and workload; construction randomness comes
//!   from dedicated forks of the root seed), then processes only the
//!   events addressed to entities it owns under the region-atomic
//!   [`ShardMap`]. Per-entity RNG lanes make the partition sound: an
//!   entity's lane is consumed exclusively by its own events, which all
//!   run on its owner shard in the same order as sequentially.
//!
//! - **Conservative lookahead windows.** Any event one shard can cause
//!   on another is delayed by at least the fixed processing overhead
//!   plus the geographic latency floor, so simulated time advances in
//!   bounded windows `[s, s + L)`: each shard runs its window to
//!   completion, then exchanges cross-shard events and freshly minted
//!   block replicas at a barrier. Nothing can arrive inside a window
//!   that was not known at its start, so no shard ever rolls back.
//!   Windows start at the global minimum next-event time, so idle
//!   stretches cost one barrier round, not `⌈idle/L⌉`.
//!
//! - **Deterministic merge.** Shard outputs are combined on canonical
//!   keys only — blocks in `(mined_at, miner)` order (a stable sort, so
//!   one pool's same-instant blocks keep creation order), observer logs
//!   by vantage slot, counters by summation — never in thread-arrival
//!   order.
//!
//! A worker panic cannot hang the run: the panicking worker marks the
//! run poisoned and keeps joining barriers as a no-op, every sibling
//! exits at the next window boundary, and the panic is re-raised on the
//! caller with its shard context attached.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ethmeter_chain::block::Block;
use ethmeter_measure::ObserverLog;
use ethmeter_net::{RemoteEvent, ShardMap};
use ethmeter_sim::Engine;
use ethmeter_types::{SimDuration, SimTime};

use crate::runner::{run_campaign, CampaignOutcome};
use crate::scenario::Scenario;
use crate::world::{RunStats, SimWorld};

/// The conservative lookahead: the minimum simulated delay between an
/// event on one shard and the earliest event it can cause on another.
///
/// Every cross-shard effect is a message delivery (fixed processing
/// overhead + link latency, floored by the latency model) or a gateway
/// block injection (fixed gateway delay, larger still), so `proc_overhead
/// + latency floor` bounds both from below.
///
/// A dynamics script can *shrink* link latency at runtime (a sub-1.0
/// [`ethmeter_dynamics::DynamicsEvent::LatencyScale`] window), so the
/// floor is pre-tightened by the script's minimum scale — computed once
/// here, before any worker starts, which keeps the window size a run
/// constant. Scripts without latency events leave the bound untouched
/// (`min_latency_scale()` is 1.0 and `mul_f64(1.0)` is exact on the
/// nanosecond floor).
fn lookahead(scenario: &Scenario) -> SimDuration {
    let scale = scenario.dynamics.min_latency_scale();
    scenario.net.proc_overhead + scenario.latency.min_delay().mul_f64(scale)
}

/// A sense-reversing barrier with a spin fast path and a parking slow
/// path.
///
/// Windows are ~1.3 ms of simulated time, so a large campaign crosses
/// hundreds of thousands of barriers — arrival latency is on the hot
/// path. When every worker has its own core, siblings arrive within
/// microseconds and the spin fast path never leaves userspace. When the
/// machine is oversubscribed (more shards than cores, the debug-test
/// norm), spinning would burn the very quantum the straggler needs, so
/// waiters escalate: spin briefly, yield a few times, then park on a
/// condvar until the releaser wakes them.
///
/// All atomics are `SeqCst`: the barrier is also the happens-before
/// edge for the mailboxes and `next_time` slots, and the generation /
/// sleeper-count handshake between releaser and parker needs a single
/// total order to be obviously race-free.
struct SpinBarrier {
    parties: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl SpinBarrier {
    const SPINS: u32 = 128;
    const YIELDS: u32 = 32;

    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all `parties` threads have called `wait`.
    ///
    /// Establishes happens-before from everything written before any
    /// party's `wait` to everything read after every party's `wait`.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            self.count.store(0, Ordering::SeqCst);
            self.generation.fetch_add(1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Taking the lock orders this wakeup after any parker
                // that observed the old generation inside the lock.
                drop(lock_ignoring_poison(&self.lock));
                self.wake.notify_all();
            }
            return;
        }
        let mut tries = 0u32;
        while self.generation.load(Ordering::SeqCst) == generation {
            tries = tries.saturating_add(1);
            if tries < Self::SPINS {
                std::hint::spin_loop();
            } else if tries < Self::SPINS + Self::YIELDS {
                std::thread::yield_now();
            } else {
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                let mut guard = lock_ignoring_poison(&self.lock);
                while self.generation.load(Ordering::SeqCst) == generation {
                    guard = self.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
                }
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
}

/// One shard's barrier mailbox: the cross-shard events and freshly
/// minted block replicas it posted for the current window.
type Mailbox = Mutex<(Vec<RemoteEvent>, Vec<Block>)>;

/// State shared by all shard workers of one run.
struct Shared {
    map: Arc<ShardMap>,
    /// Written only by the owning shard (post in phase A, clear in phase
    /// C), read by every other shard in phase B.
    mailboxes: Vec<Mailbox>,
    /// Each shard's next pending event time in nanos (`u64::MAX` when
    /// its queue is empty), refreshed every window in phase B.
    next_time: Vec<AtomicU64>,
    /// Set by a panicking worker; every worker exits at the next window
    /// boundary once raised.
    poisoned: AtomicBool,
    /// `(shard, panic message)` per caught worker panic.
    panics: Mutex<Vec<(usize, String)>>,
    barrier: SpinBarrier,
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker that panicked while holding a mailbox already marked the
    // run poisoned; the data is discarded, so the lock stays usable.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Renders a caught panic payload for re-raising with job context
/// (shared with the grid executor).
pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

/// Runs `f` unless this worker is already dead; a panic inside `f`
/// poisons the run, records the message with its shard id, and turns
/// the worker into a barrier-keeping no-op.
fn guard<R>(me: usize, shared: &Shared, dead: &mut bool, f: impl FnOnce() -> R) -> Option<R> {
    if *dead {
        return None;
    }
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Some(r),
        Err(payload) => {
            *dead = true;
            shared.poisoned.store(true, Ordering::Release);
            lock_ignoring_poison(&shared.panics).push((me, panic_text(payload)));
            None
        }
    }
}

/// Runs one campaign across `scenario.shards` worker threads and merges
/// the shard outputs into a [`CampaignOutcome`] bit-identical to
/// [`run_campaign`] (fingerprint, stats, and event count all match the
/// sequential engine).
///
/// # Panics
///
/// Re-raises any worker panic with `[shard N]` context after all workers
/// have exited cleanly (no hung barriers, no poisoned joins).
pub fn run_campaign_sharded(scenario: &Scenario) -> CampaignOutcome {
    let shards = scenario.shards.max(1);
    if shards == 1 {
        return run_campaign(scenario);
    }
    // One replica is built up front to derive the ownership map; shard 0
    // adopts it instead of rebuilding.
    let seed_world = SimWorld::new(scenario);
    let map = Arc::new(ShardMap::by_region(&seed_world.node_regions(), shards));
    let shared = Shared {
        map: Arc::clone(&map),
        mailboxes: (0..shards)
            .map(|_| Mutex::new((Vec::new(), Vec::new())))
            .collect(),
        next_time: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
        poisoned: AtomicBool::new(false),
        panics: Mutex::new(Vec::new()),
        barrier: SpinBarrier::new(shards),
    };
    let deadline = SimTime::ZERO + scenario.duration;
    let la = lookahead(scenario);

    let mut results: Vec<Option<(SimWorld, u64)>> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let mut seed_world = Some(seed_world);
        let handles: Vec<_> = (0..shards)
            .map(|me| {
                let world = if me == 0 { seed_world.take() } else { None };
                let shared = &shared;
                scope.spawn(move || worker(me, scenario, world, shared, deadline, la))
            })
            .collect();
        for handle in handles {
            // Workers catch their own panics; a join error would mean the
            // guard itself failed, which is unreachable in practice.
            results.push(handle.join().unwrap_or(None));
        }
    });

    let mut panics = lock_ignoring_poison(&shared.panics);
    if !panics.is_empty() {
        panics.sort_by_key(|a| a.0);
        let detail: Vec<String> = panics
            .iter()
            .map(|(shard, msg)| format!("[shard {shard}/{shards}] {msg}"))
            .collect();
        panic!("sharded campaign worker panicked: {}", detail.join("; "));
    }
    drop(panics);

    let worlds: Vec<(SimWorld, u64)> = results
        .into_iter()
        .map(|r| r.expect("no panics recorded, so every worker completed"))
        .collect();
    merge(scenario, &map, worlds)
}

/// One shard worker: build the replica, then alternate run/exchange
/// phases until every shard's queue is past the deadline.
///
/// Window protocol, per iteration (two barriers):
/// - **Phase A** — run the engine through `[start, end)`, then post this
///   window's outgoing [`RemoteEvent`]s and newly minted blocks to the
///   own mailbox.
/// - **Phase B** — after barrier 1: ingest every *other* shard's block
///   replicas (canonically sorted, so registry slots are deterministic),
///   then schedule their remote events in `sort_key` order, then publish
///   the next pending event time.
/// - **Phase C** — after barrier 2: clear the own mailbox, exit if the
///   run is poisoned or globally past the deadline, else advance the
///   window to the global minimum next-event time.
///
/// A dead (panicked) worker keeps arriving at both barriers and
/// publishes `u64::MAX` so siblings neither hang nor wait on it.
fn worker(
    me: usize,
    scenario: &Scenario,
    prebuilt: Option<SimWorld>,
    shared: &Shared,
    deadline: SimTime,
    la: SimDuration,
) -> Option<(SimWorld, u64)> {
    let shards = shared.map.shards();
    let mut dead = false;
    let mut engine = guard(me, shared, &mut dead, || {
        let mut world = prebuilt.unwrap_or_else(|| SimWorld::new(scenario));
        world.attach_shard(Arc::clone(&shared.map), me);
        let initial = world.initial_events();
        let mut engine = Engine::new(world);
        for (t, e) in initial {
            engine.schedule(t, e);
        }
        engine
    });

    let mut start = SimTime::ZERO;
    loop {
        // The final window ends at deadline + 1 ns so events at exactly
        // the deadline are processed, matching the sequential engine's
        // inclusive `run_until(deadline)`.
        let end = (start + la).min(deadline + SimDuration::from_nanos(1));
        guard(me, shared, &mut dead, || {
            let engine = engine.as_mut().expect("guarded build succeeded");
            engine.run_until(end - SimDuration::from_nanos(1));
            let mut mailbox = lock_ignoring_poison(&shared.mailboxes[me]);
            let (remotes, blocks) = &mut *mailbox;
            engine.world_mut().drain_shard_output(remotes, blocks);
        });
        shared.barrier.wait();

        guard(me, shared, &mut dead, || {
            let engine = engine.as_mut().expect("guarded build succeeded");
            let mut blocks = Vec::new();
            let mut remotes = Vec::new();
            for other in (0..shards).filter(|&s| s != me) {
                let mailbox = lock_ignoring_poison(&shared.mailboxes[other]);
                blocks.extend_from_slice(&mailbox.1);
                // Only the destination's owner may schedule a remote
                // event; everyone else replicates just the blocks.
                remotes.extend(
                    mailbox
                        .0
                        .iter()
                        .filter(|r| shared.map.owns(me, r.kind.dest()))
                        .cloned(),
                );
            }
            // Replicas first: remote injections resolve by hash against
            // the registry, so the blocks must already be interned.
            engine.world_mut().ingest_replica_blocks(&mut blocks);
            remotes.sort_by_key(RemoteEvent::sort_key);
            for remote in remotes {
                let event = engine.world().resolve_remote(remote.kind);
                engine.schedule(remote.at, event);
            }
        });
        let next = match (&engine, dead) {
            (Some(e), false) => e.next_event_time().map_or(u64::MAX, |t| t.as_nanos()),
            _ => u64::MAX,
        };
        shared.next_time[me].store(next, Ordering::Release);
        shared.barrier.wait();

        {
            let mut mailbox = lock_ignoring_poison(&shared.mailboxes[me]);
            mailbox.0.clear();
            mailbox.1.clear();
        }
        if shared.poisoned.load(Ordering::Acquire) {
            return None;
        }
        let gmin = shared
            .next_time
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .min()
            .expect("at least one shard");
        if gmin == u64::MAX || gmin > deadline.as_nanos() {
            break;
        }
        start = SimTime::from_nanos(gmin);
    }

    engine.map(|e| {
        let processed = e.processed();
        (e.into_world(), processed)
    })
}

/// Combines the shard worlds into the sequential-identical outcome.
fn merge(scenario: &Scenario, map: &ShardMap, mut worlds: Vec<(SimWorld, u64)>) -> CampaignOutcome {
    // Counters: each is incremented on exactly one shard (messages on
    // the destination's, bytes on the sender's, mining and import
    // counters on the owner's), so summation reproduces the sequential
    // totals. The only replicated events are the workload's
    // `NextSubmission` ticks and the dynamics script's
    // `Dynamics`/`FloodTick` events, subtracted from the processed sum.
    let mut stats = RunStats::default();
    let mut processed = 0u64;
    let submissions = worlds[0].0.submission_events();
    let dynamics = worlds[0].0.dynamics_events();
    for (world, events) in &worlds {
        stats.merge(&world.stats);
        processed += events;
        debug_assert_eq!(
            world.submission_events(),
            submissions,
            "workload ticks are replicated and must agree across shards"
        );
        debug_assert_eq!(
            world.dynamics_events(),
            dynamics,
            "dynamics events are replicated and must agree across shards"
        );
    }
    let events = processed - (worlds.len() as u64 - 1) * (submissions + dynamics);

    // Ground-truth blocks: concatenate each shard's locally minted
    // blocks (already in creation order) and stable-sort on the
    // canonical key. One pool's blocks live on one shard, so the stable
    // sort preserves per-pool creation order — including same-instant
    // duplicate-mint bursts — and reproduces the sequential registry
    // order everywhere it affects first-seen fork choice.
    let mut blocks: Vec<Block> = Vec::new();
    for (world, _) in &mut worlds {
        blocks.append(&mut world.take_local_blocks());
    }
    blocks.sort_by_key(|b| (b.mined_at(), b.miner().raw()));

    // Observer logs: each observer records only on its home shard; all
    // other shards hold an untouched empty log in that vantage slot.
    let observer_nodes = worlds[0].0.observer_nodes();
    let mut shard_logs: Vec<Vec<ObserverLog>> =
        worlds.iter_mut().map(|(w, _)| w.take_logs()).collect();
    let logs = observer_nodes
        .iter()
        .enumerate()
        .map(|(slot, &node)| std::mem::take(&mut shard_logs[map.owner(node)][slot]))
        .collect();

    // The transaction table and pool directory are replicated; shard 0
    // donates its copies.
    CampaignOutcome {
        campaign: worlds[0]
            .0
            .assemble_campaign(logs, blocks, scenario.duration),
        stats,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Preset;

    fn scenario(seed: u64, mins: u64, shards: usize) -> Scenario {
        Scenario::builder()
            .preset(Preset::Tiny)
            .seed(seed)
            .duration(SimDuration::from_mins(mins))
            .shards(shards)
            .build()
    }

    #[test]
    fn sharded_matches_sequential_exactly() {
        let sequential = run_campaign(&scenario(9, 2, 1));
        for shards in [2, 3, 4] {
            let sharded = run_campaign_sharded(&scenario(9, 2, shards));
            assert_eq!(sharded.stats, sequential.stats, "{shards} shards");
            assert_eq!(sharded.events, sequential.events, "{shards} shards");
            assert_eq!(
                sharded.campaign.fingerprint(),
                sequential.campaign.fingerprint(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn run_campaign_dispatches_on_scenario_shards() {
        let sequential = run_campaign(&scenario(17, 1, 1));
        let dispatched = run_campaign(&scenario(17, 1, 4));
        assert_eq!(
            dispatched.campaign.fingerprint(),
            sequential.campaign.fingerprint()
        );
        assert_eq!(dispatched.events, sequential.events);
    }

    #[test]
    fn more_shards_than_regions_still_matches() {
        // Tiny has few populated regions; 8 shards guarantees empties.
        let sequential = run_campaign(&scenario(23, 1, 1));
        let sharded = run_campaign_sharded(&scenario(23, 1, 8));
        assert_eq!(
            sharded.campaign.fingerprint(),
            sequential.campaign.fingerprint()
        );
    }

    #[test]
    fn zero_latency_links_sit_on_the_lookahead_horizon() {
        // An all-zero base matrix makes every link sample exactly the
        // 1 ms floor, so every cross-shard delivery lands exactly on a
        // window boundary (`proc_overhead + floor` = the lookahead) —
        // the off-by-one-nanosecond edge of the window protocol.
        //
        // Bit-identity is deliberately NOT asserted here: all-floor
        // links *guarantee* same-nanosecond delivery ties between
        // different senders, and the sequential engine orders those by
        // queue insertion — an order no shard can reconstruct (the
        // measure-zero caveat in DETERMINISM.md, made certain). What
        // must survive arbitrary tie ordering: the protocol neither
        // hangs nor drops work — the physical totals (mining, workload,
        // imports) and the resulting chain are identical.
        let build = |shards: usize| {
            let mut s = scenario(31, 1, shards);
            s.latency = ethmeter_geo::LatencyModel::with_jitter(0.0).with_base_matrix(
                [[0.0; ethmeter_types::Region::COUNT]; ethmeter_types::Region::COUNT],
            );
            s
        };
        let sequential = run_campaign(&build(1));
        for shards in [2, 4] {
            let sharded = run_campaign_sharded(&build(shards));
            let (a, b) = (&sharded.stats, &sequential.stats);
            assert_eq!(a.blocks_produced, b.blocks_produced, "{shards} shards");
            assert_eq!(a.txs_submitted, b.txs_submitted, "{shards} shards");
            assert_eq!(a.imports, b.imports, "{shards} shards");
            assert_eq!(
                a.duplicates_produced, b.duplicates_produced,
                "{shards} shards"
            );
            assert_eq!(
                sharded.campaign.truth.tree.head(),
                sequential.campaign.truth.tree.head(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn worker_panic_propagates_with_shard_context_and_no_hang() {
        // No public scenario knob can make a healthy world panic
        // mid-run, so the poisoning protocol is driven through `guard`
        // directly: a panic must mark the run poisoned, record its
        // shard, and turn the worker into a barrier-keeping no-op.
        let shared = Shared {
            map: Arc::new(ShardMap::by_region(
                &[ethmeter_types::Region::NorthAmerica],
                1,
            )),
            mailboxes: vec![Mutex::new((Vec::new(), Vec::new()))],
            next_time: vec![AtomicU64::new(u64::MAX)],
            poisoned: AtomicBool::new(false),
            panics: Mutex::new(Vec::new()),
            barrier: SpinBarrier::new(1),
        };
        let mut dead = false;
        let out: Option<()> = guard(0, &shared, &mut dead, || panic!("boom at seed 7"));
        assert!(out.is_none() && dead);
        assert!(shared.poisoned.load(Ordering::SeqCst));
        // A dead worker's guard becomes a no-op instead of re-running.
        let again = guard(0, &shared, &mut dead, || unreachable!("dead workers skip"));
        assert!(again.is_none());
        let panics = lock_ignoring_poison(&shared.panics);
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].0, 0);
        assert!(panics[0].1.contains("boom at seed 7"));
    }

    #[test]
    fn spin_barrier_synchronizes_and_reuses() {
        let barrier = SpinBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 1..=32 {
                        counter.fetch_add(1, Ordering::AcqRel);
                        barrier.wait();
                        assert_eq!(counter.load(Ordering::Acquire), 4 * round);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Acquire), 128);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scenario::Preset;
    use proptest::prelude::*;

    proptest! {
        /// The tentpole invariant: the campaign fingerprint (and the
        /// stats and event counters) must be independent of the shard
        /// count across random seeds, shard counts, and durations. Each
        /// case runs the sequential reference and one sharded execution
        /// of the identical scenario.
        #[test]
        fn fingerprint_is_invariant_in_shard_count(
            seed in 0u64..1_000_000,
            shards_sel in 0u8..3,
            secs in 20u64..61,
        ) {
            let shards = [2usize, 4, 8][shards_sel as usize];
            let build = |shards: usize| {
                Scenario::builder()
                    .preset(Preset::Tiny)
                    .seed(seed)
                    .duration(SimDuration::from_secs(secs))
                    .shards(shards)
                    .build()
            };
            let sequential = run_campaign(&build(1));
            let sharded = run_campaign_sharded(&build(shards));
            prop_assert_eq!(sequential.stats, sharded.stats);
            prop_assert_eq!(sequential.events, sharded.events);
            prop_assert_eq!(
                sequential.campaign.fingerprint(),
                sharded.campaign.fingerprint()
            );
        }
    }
}
