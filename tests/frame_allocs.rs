//! Allocation pin for the World's frame path.
//!
//! Almost every event of a run is a frame hop, and most allocations
//! are frame payloads: one per encoded gPTP message, none for moving an
//! event through the queue, none for an FTA round's temporaries, none
//! for a hypervisor monitor tick. What is left beside the payloads is
//! the bridge relay's per-Sync state (two small `Vec`s) and the vectors
//! an `Aggregation` result owns. Wall time on a shared box is too noisy
//! to catch a regression here; allocations per event repeat exactly:
//! 0.620 on the fault-injection run, 0.682 with the monitor tick's two
//! `Vec<bool>`, 1.242 with two allocations per encode and five
//! temporaries per FTA round on top.
//!
//! A payload has one owner, so a frame sent to n ports is n − 1 copies
//! and a move: the election run, whose bridges relay every Announce to
//! several ports, reads 0.649.
//!
//! The file holds exactly one test so no concurrent test pollutes the
//! allocator counters.

use clocksync::election::ElectionConfig;
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

/// Allocations per event of one `cfg` run, and its event count.
fn allocations_per_event(cfg: TestbedConfig) -> (f64, u64) {
    let end = SimTime::ZERO + cfg.warmup + cfg.duration;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut world = World::new(cfg);
    world.run_until(end);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let events = world.events_processed();
    (allocations as f64 / events as f64, events)
}

#[test]
fn a_fault_injection_run_allocates_less_than_once_per_event() {
    const BUDGET: f64 = 0.66;
    const ELECTION_BUDGET: f64 = 0.65;

    let mut cfg = TestbedConfig::paper_default(7);
    cfg.duration = Nanos::from_secs(60);
    ScenarioKind::FaultInjection.apply(&mut cfg);
    let (per_event, events) = allocations_per_event(cfg);
    assert!(events > 100_000, "only {events} events: not the frame path");
    assert!(
        per_event <= BUDGET,
        "{per_event:.3} allocations per event over {events} events \
         (budget {BUDGET}) — the frame path allocates again"
    );

    // Announce traffic: a bridge relays each Announce to several ports.
    let mut cfg = TestbedConfig::paper_default(7);
    cfg.duration = Nanos::from_secs(60);
    cfg.election = Some(ElectionConfig {
        gm_failure_at: Some(Nanos::from_secs(8)),
        gm_failure_node: 0,
        ..ElectionConfig::default()
    });
    let (per_event, events) = allocations_per_event(cfg);
    assert!(
        per_event <= ELECTION_BUDGET,
        "{per_event:.3} allocations per event over {events} events \
         (budget {ELECTION_BUDGET}) — the Announce fan-out copies again"
    );
}
