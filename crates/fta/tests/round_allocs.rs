//! Allocation pin for the aggregation functions.
//!
//! One FTA round sorts a handful of per-domain offsets (the paper runs
//! `M = 4` domains). Up to 16 of them are sorted on the stack, so
//! `fault_tolerant_average`, `fault_tolerant_midpoint` and `median`
//! allocate nothing; longer inputs fall back to the heap and still
//! give the right answer.
//!
//! The file holds exactly one test so no concurrent test pollutes the
//! allocator counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tsn_fta::{fault_tolerant_average, fault_tolerant_midpoint, median};
use tsn_time::Nanos;

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
fn a_round_of_up_to_16_offsets_allocates_nothing() {
    // Descending, so the functions have to sort: n, n-1, …, 1 ns.
    let descending = |n: i64| -> Vec<Nanos> { (0..n).map(|i| Nanos::from_nanos(n - i)).collect() };
    let ns = |v: i64| Some(Nanos::from_nanos(v));

    for n in [3, 4, 15, 16] {
        let offsets = descending(n);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let fta = fault_tolerant_average(std::hint::black_box(&offsets), 1);
        let ftm = fault_tolerant_midpoint(std::hint::black_box(&offsets), 1);
        let med = median(std::hint::black_box(&offsets));
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(allocations, 0, "{n} offsets: the round went to the heap");
        // 1..=n trimmed by one per side is symmetric about (n + 1) / 2;
        // the average rounds half away from zero, the others truncate.
        assert_eq!(fta, ns((n + 2) / 2), "average of {n}");
        assert_eq!(ftm, ns((n + 1) / 2), "midpoint of {n}");
        assert_eq!(med, ns((n + 1) / 2), "median of {n}");
    }

    // Past the stack capacity the same functions still work.
    for n in [17, 40] {
        let offsets = descending(n);
        assert_eq!(fault_tolerant_average(&offsets, 1), ns((n + 2) / 2));
        assert_eq!(fault_tolerant_midpoint(&offsets, 1), ns((n + 1) / 2));
        assert_eq!(median(&offsets), ns((n + 1) / 2));
    }
}
