//! Allocation pins for `RunRecord::decode` and `RunRecord::encode_to`.
//!
//! The decoder reads a record straight off the JSON lexer, so what it
//! allocates is what the record owns: the `campaign` and `hash` strings
//! (the `transitions` vector stays unallocated while empty). A decoder
//! that builds a tree first allocates per key and per container — some
//! 135 allocations and 15 KB for the same line. The encoder writes a
//! record straight from its field tables, so into a reused buffer it
//! allocates nothing; a tree writer allocates some 70 key strings and
//! their vectors per record.
//!
//! Allocations are counted per thread, so the tests in this file do not
//! see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tsn_campaign::artifact::{BoundsRecord, PrecisionRecord, RunRecord, TransitionRecord};
use tsn_campaign::Coord;
use tsn_time::SyncState;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised `Cell` has no destructor, so this cannot fail
    // while the thread is being torn down; `try_with` keeps it so.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const RECORDS: usize = 1_000;

fn record() -> RunRecord {
    RunRecord {
        campaign: "decode-allocs".to_string(),
        hash: "00ff00ff00ff00ff".to_string(),
        coord: Coord {
            domains: Some(5),
            strategy: Some("trim-edge"),
            election: Some(true),
            hops: Some(64),
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
    }
}

#[test]
fn decoding_a_record_allocates_only_what_the_record_owns() {
    const PER_RECORD: usize = 4;

    let record = record();
    let line = record.encode();
    // One-time set-up (the counter key list) happens on the first call.
    assert_eq!(RunRecord::decode(&line).as_ref(), Some(&record));

    let before = allocations();
    for _ in 0..RECORDS {
        let decoded = RunRecord::decode(std::hint::black_box(&line));
        assert!(std::hint::black_box(decoded).is_some());
    }
    let per_record = (allocations() - before) as f64 / RECORDS as f64;
    assert!(
        per_record <= PER_RECORD as f64,
        "{per_record} allocations per decoded record (budget {PER_RECORD}) — \
         the decode path is building intermediate values again"
    );
}

#[test]
fn encoding_a_record_allocates_nothing_into_a_reused_sink() {
    let mut record = record();
    record.transitions.push(TransitionRecord {
        at_ns: 7_000_000_000,
        node: 3,
        slot: 1,
        from: SyncState::Synchronized,
        to: SyncState::Holdover,
    });
    record.campaign = "needs \"escapes\"\n and ünïcode".to_string();
    let mut sink = Vec::new();
    // Warm-up: the sink grows to the line's size once.
    record
        .encode_to(&mut sink)
        .expect("writing to memory cannot fail");

    let before = allocations();
    for _ in 0..RECORDS {
        sink.clear();
        std::hint::black_box(&record)
            .encode_to(&mut sink)
            .expect("writing to memory cannot fail");
    }
    assert_eq!(
        allocations() - before,
        0,
        "encode_to allocated per record — the writer is building intermediate values again"
    );

    let before = allocations();
    for _ in 0..RECORDS {
        std::hint::black_box(std::hint::black_box(&record).encode());
    }
    assert_eq!(
        allocations() - before,
        RECORDS,
        "encode allocates its String and nothing else"
    );
    assert_eq!(record.encode().as_bytes(), sink);
}
