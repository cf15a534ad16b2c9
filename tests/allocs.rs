//! Heap-allocation ceilings of the event loop.
//!
//! The gossip handlers are meant to run out of state that already exists:
//! a node's known-sets are two chunk pools and a few bitmap pages, the
//! relay-candidate lists are one world-owned scratch. These tests count
//! calls into the allocator while the sequential engine runs and hold
//! them under a per-event ceiling, on the two shapes where the count
//! means something different:
//!
//! - a cold start on a planet-shaped network (√-relay, thousands of
//!   nodes, every node meeting its first transactions and its first
//!   block), where each per-(node, peer) heap object costs an allocation
//!   per pair inside the event loop;
//! - the everyday `Preset::Small` campaign once its queues are warm,
//!   where what remains is blocks, mempools and observer logs.
//!
//! Counts are per thread, so the tests can share a process, and they do
//! not depend on the build profile.
//!
//! The same allocator also keeps a per-thread high-water mark of live
//! heap bytes, which bounds the chain-only runner's memory: the
//! whole-chain scan folds its 7.7M draws as they are made, so its heap
//! peak is independent of the chain's length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ethmeter::analysis::sequences::RunFold;
use ethmeter::prelude::*;
use ethmeter::sim::engine::RunOutcome;
use ethmeter::sim::Engine;
use ethmeter::types::PoolId;
use ethmeter::SimWorld;

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
    /// Const-initialized and without a destructor, so touching it from
    /// inside the allocator can neither allocate nor outlive the thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread. Memory freed by
    /// another thread than the one that allocated it skews both threads'
    /// figures, so only single-threaded work is measured with it.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE_BYTES` since the last [`reset_peak`].
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

/// Adds `delta` to this thread's live bytes and raises its peak.
fn track(delta: i64) {
    let live = LIVE_BYTES.with(|l| {
        let v = l.get().wrapping_add(delta);
        l.set(v);
        v
    });
    PEAK_BYTES.with(|p| p.set(p.get().max(live)));
}

/// Restarts the high-water mark at the current live bytes, returning them.
fn reset_peak() -> i64 {
    let live = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(live));
    live
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// integers and never touch the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as given.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(size(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-size(layout.size()));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(size(layout.size()));
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            track(size(new_size) - size(layout.size()));
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Builds `scenario`'s world, runs `warm_up` events uncounted, then
/// returns allocator calls per event over the next `measured` events.
fn allocs_per_event(scenario: &Scenario, warm_up: u64, measured: u64) -> f64 {
    let mut engine = Engine::new(SimWorld::new(scenario));
    for (t, e) in engine.world_mut().initial_events() {
        engine.schedule(t, e);
    }
    let deadline = SimTime::ZERO + scenario.duration;
    if warm_up > 0 {
        engine.run_with_limits(deadline, warm_up);
    }
    let before = ALLOC_CALLS.with(Cell::get);
    let outcome = engine.run_with_limits(deadline, measured);
    let calls = ALLOC_CALLS.with(Cell::get) - before;
    assert_eq!(
        (outcome, engine.processed()),
        (RunOutcome::BudgetExhausted, warm_up + measured),
        "the event budget, not the horizon, must end the run"
    );
    calls as f64 / measured as f64
}

#[test]
fn planet_shaped_cold_start_stays_under_the_allocation_ceiling() {
    // The 10k-node preset's configuration on a fifth of its nodes: same
    // √-relay, same degrees, so the same allocations per (node, peer)
    // pair, spread over proportionally fewer events.
    let scenario = Scenario::builder()
        .preset(Preset::Planet)
        .ordinary_nodes(2_000)
        .seed(42)
        .build();
    // Measured 0.054 (0.062 while chunks held 7 whole keys, so the pool
    // doubled more often); a ring buffer per (node, peer) pair made it 0.396.
    let per_event = allocs_per_event(&scenario, 0, 500_000);
    assert!(
        per_event <= 0.10,
        "cold start made {per_event:.3} allocator calls per event (ceiling 0.10)"
    );
}

#[test]
fn small_preset_steady_state_stays_under_the_allocation_ceiling() {
    let scenario = Scenario::builder().preset(Preset::Small).seed(42).build();
    // Measured 0.011; with per-pair ring buffers still doubling, 0.035.
    let per_event = allocs_per_event(&scenario, 1_000_000, 1_000_000);
    assert!(
        per_event <= 0.03,
        "steady state made {per_event:.3} allocator calls per event (ceiling 0.03)"
    );
}

#[test]
fn whole_chain_scan_peaks_under_a_mebibyte_of_heap() {
    let before = reset_peak();
    let report = run_chain_only(&ChainOnlyConfig::paper_whole_chain(7));
    let peak = PEAK_BYTES.with(Cell::get) - before;
    assert_eq!(report.total_blocks, 7_700_000);
    // Measured 10,570 bytes: the pool directory, the draw table, the
    // names and shares, and seventeen run-length histograms. A
    // materialised 7.7M-entry miner sequence alone is 15.4 MB.
    assert!(
        peak < 1 << 20,
        "the whole-chain scan peaked at {peak} heap bytes (ceiling 1 MiB)"
    );
}

#[test]
fn rendering_a_hundred_thousand_block_run_peaks_under_a_mebibyte_of_heap() {
    // 100,000 blocks in a row by a pool at share 0.55, then 100,000 by a
    // pool with no share: what a full campaign with a selfish majority
    // pool hands the report.
    let mut fold = RunFold::default();
    for pool in [PoolId(0), PoolId(1)] {
        for _ in 0..100_000 {
            fold.push(pool);
        }
    }
    let names = ["Majority".to_owned(), "Idle".to_owned()];
    let report = fold.report(&names, &[0.55, 0.0], SimDuration::from_secs_f64(13.3));
    let before = reset_peak();
    let text = report.to_string();
    let peak = PEAK_BYTES.with(Cell::get) - before;
    assert!(text.contains("Majority") && text.contains("Idle"), "{text}");
    // Measured 1,863 bytes. Each row's chance of its longest run is far
    // below the least subnormal, so no run-theory matrix is built: the
    // two (k+1)² matrices at k = 100,000 asked for 80 GB each.
    assert!(
        peak < 1 << 20,
        "rendering peaked at {peak} heap bytes (ceiling 1 MiB)"
    );
}

/// Allocator calls per race block over a 100,000-block chain-only
/// selfish-mining race at seed 42.
fn race_allocs_per_block(alpha: f64, gamma: f64) -> f64 {
    let cfg = SelfishRaceConfig::new(alpha, gamma, 100_000, 42);
    let before = ALLOC_CALLS.with(Cell::get);
    let result = run_selfish_race(&cfg);
    let calls = ALLOC_CALLS.with(Cell::get) - before;
    assert!(result.canonical_height > 0);
    calls as f64 / cfg.blocks as f64
}

#[test]
fn selfish_race_stays_under_the_allocation_ceiling() {
    // Measured 0.176 and 0.805: what remains is a referencing block's
    // uncle list, a release's block batch and the window's growth. With a
    // `Vec` of picks and one of credits per block, and the reward inputs
    // in a hash map, the same races made 0.26 and 1.22.
    for (alpha, gamma, ceiling) in [(0.1, 0.0, 0.20), (0.45, 1.0, 0.90)] {
        let per_block = race_allocs_per_block(alpha, gamma);
        assert!(
            per_block <= ceiling,
            "alpha {alpha}, gamma {gamma}: {per_block:.3} allocator calls per block (ceiling {ceiling})"
        );
    }
}
