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
//! Counts are per thread, so the two tests can share a process, and they
//! do not depend on the build profile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ethmeter::prelude::*;
use ethmeter::sim::engine::RunOutcome;
use ethmeter::sim::Engine;
use ethmeter::SimWorld;

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread.
    /// Const-initialized and without a destructor, so touching it from
    /// inside the allocator can neither allocate nor outlive the thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and never touches the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
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
