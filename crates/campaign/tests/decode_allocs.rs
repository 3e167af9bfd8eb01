//! Allocation pin for `RunRecord::decode`.
//!
//! The decoder reads a record straight off the JSON lexer, so what it
//! allocates is what the record owns: the `campaign` and `hash` strings
//! (the `transitions` vector stays unallocated while empty). A decoder
//! that builds a tree first allocates per key and per container — some
//! 135 allocations and 15 KB for the same line.
//!
//! The file holds exactly one test so no concurrent test pollutes the
//! allocator counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsn_campaign::artifact::{BoundsRecord, PrecisionRecord, RunRecord};
use tsn_campaign::Coord;

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
fn decoding_a_record_allocates_only_what_the_record_owns() {
    const RECORDS: usize = 1_000;
    const PER_RECORD: usize = 4;

    let record = RunRecord {
        campaign: "decode-allocs".to_string(),
        hash: "00ff00ff00ff00ff".to_string(),
        coord: Coord {
            domains: Some(5),
            strategy: Some("trim-edge"),
            election: Some(true),
            fleet_topology: Some("fat-tree"),
            ..Coord::new(clocksync::scenario::ScenarioKind::Baseline, 7)
        },
        seed: u64::MAX - 3,
        counters: clocksync::RunCounters::default(),
        bounds: BoundsRecord {
            pi_ns: 12_000,
            gamma_ns: 1_000,
            pi_plus_gamma_ns: 13_000,
            ..BoundsRecord::default()
        },
        precision: Some(PrecisionRecord {
            count: 100,
            mean_ns: 3_120.5,
            std_ns: 25.0,
            ..PrecisionRecord::default()
        }),
        fraction_within_bound: 0.9833,
        transitions: Vec::new(),
    };
    let line = record.encode();
    // One-time set-up (the counter key list) happens on the first call.
    assert_eq!(RunRecord::decode(&line).as_ref(), Some(&record));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..RECORDS {
        let decoded = RunRecord::decode(std::hint::black_box(&line));
        assert!(std::hint::black_box(decoded).is_some());
    }
    let per_record = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / RECORDS as f64;
    assert!(
        per_record <= PER_RECORD as f64,
        "{per_record} allocations per decoded record (budget {PER_RECORD}) — \
         the decode path is building intermediate values again"
    );
}
