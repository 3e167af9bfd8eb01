//! Allocation pin for the World's frame path.
//!
//! Almost every event of a run is a frame hop, and most allocations
//! are frame payloads: one per encoded gPTP message, none for moving an
//! event through the queue, none for an FTA round's temporaries, none
//! for a hypervisor monitor tick. What is left beside the payloads is
//! the bridge relay's per-Sync state (two small `Vec`s) and the vectors
//! an `Aggregation` result owns. Wall time on a shared box is too noisy
//! to catch a regression here; allocations per event repeat exactly:
//! 0.647 on this run, 0.682 with the monitor tick's two `Vec<bool>`,
//! 1.242 with two allocations per encode and five temporaries per FTA
//! round on top.
//!
//! The file holds exactly one test so no concurrent test pollutes the
//! allocator counters.

use clocksync::scenario::ScenarioKind;
use clocksync::{TestbedConfig, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsn_time::{Nanos, SimTime};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_fault_injection_run_allocates_less_than_once_per_event() {
    const BUDGET: f64 = 0.66;

    let mut cfg = TestbedConfig::paper_default(7);
    cfg.duration = Nanos::from_secs(60);
    ScenarioKind::FaultInjection.apply(&mut cfg);
    let end = SimTime::ZERO + cfg.warmup + cfg.duration;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut world = World::new(cfg);
    world.run_until(end);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let events = world.events_processed();
    assert!(events > 100_000, "only {events} events: not the frame path");
    let per_event = allocations as f64 / events as f64;
    assert!(
        per_event <= BUDGET,
        "{allocations} allocations over {events} events = {per_event:.3} per event \
         (budget {BUDGET}) — the frame path allocates again"
    );
}
