//! Bounded-memory regression test for the streaming summarizer.
//!
//! The pre-streaming pipeline collected every `RunRecord` into a `Vec`
//! before grouping (O(records) memory — tens of megabytes for a
//! fleet-scale campaign). The streaming path must summarize an
//! arbitrarily large campaign with memory proportional to the number of
//! *groups*, not records. This test pins that with a counting global
//! allocator: 100 000 synthetic records pushed one at a time must keep
//! the peak live-byte delta under a budget far below what the old
//! collect-first path needed.
//!
//! The file holds exactly one test so no concurrent test pollutes the
//! allocator counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use tsn_campaign::artifact::{BoundsRecord, PrecisionRecord, RunRecord};
use tsn_campaign::{Coord, StreamSummarizer};

struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as isize, Ordering::Relaxed) + size as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One synthetic run record: the axes every campaign has (scenario +
/// seed) plus per-seed metric variation so the accumulators do real
/// work.
fn synthetic(seed: u64) -> RunRecord {
    let p95 = 3_000 + (seed % 977) as i64;
    RunRecord {
        campaign: "alloc-budget".to_string(),
        hash: format!("{seed:016x}"),
        coord: Coord {
            fleet_nodes: Some(1024),
            fleet_topology: Some("fat-tree"),
            ..Coord::new(clocksync::scenario::ScenarioKind::Baseline, seed)
        },
        seed: seed.wrapping_mul(0x9e3779b97f4a7c15),
        counters: clocksync::RunCounters::default(),
        bounds: BoundsRecord {
            d_min_ns: 0,
            d_max_ns: 0,
            reading_error_ns: 0,
            drift_offset_ns: 0,
            pi_ns: 12_000,
            gamma_ns: 1_000,
            pi_plus_gamma_ns: 13_000,
        },
        precision: Some(PrecisionRecord {
            count: 100,
            mean_ns: p95 as f64 / 2.0,
            std_ns: 25.0,
            min_ns: 90,
            max_ns: p95 + 800,
            p50_ns: p95 / 2,
            p90_ns: p95 - 120,
            p95_ns: p95,
            p99_ns: p95 + 400,
        }),
        fraction_within_bound: 1.0 - (seed % 10) as f64 / 1000.0,
        transitions: Vec::new(),
    }
}

#[test]
fn summarizing_100k_records_stays_under_the_allocation_budget() {
    const RECORDS: u64 = 100_000;
    // Far below the ≥ 40 MB the old collect-everything path needed for
    // 100k records, yet roomy against the summarizer's real footprint
    // (19 exact-mode buffers × 4096 f64 ≈ 0.6 MB, then bounded
    // sketches).
    const BUDGET_BYTES: isize = 8 * 1024 * 1024;

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);

    let mut summarizer = StreamSummarizer::new();
    for seed in 0..RECORDS {
        // Records are synthesized, pushed, and dropped one at a time —
        // the shape a `RunRecordReader` loop has on a real campaign
        // directory.
        summarizer.push(&synthetic(seed));
    }
    let groups = summarizer.finish();

    let peak_delta = PEAK.load(Ordering::Relaxed) - baseline;
    assert_eq!(groups.len(), 1, "one grid point, one group");
    assert_eq!(groups[0].runs, RECORDS as usize);
    let p95 = groups[0].pi_star_p95.as_ref().expect("precision present");
    assert_eq!(p95.count, RECORDS as usize);
    assert!(
        (3_000.0..=3_977.0).contains(&p95.mean),
        "sketched mean {} escaped the synthetic value range",
        p95.mean
    );
    assert!(
        peak_delta < BUDGET_BYTES,
        "peak allocation {peak_delta} B exceeds the {BUDGET_BYTES} B budget — \
         the summarize path is buffering per-record state again"
    );
}
