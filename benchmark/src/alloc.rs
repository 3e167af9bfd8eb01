//! Allocation proxies: a counting global allocator, armed only around
//! the traced execution. Allocation counts and bytes repeat exactly for
//! a seed where wall time cannot, so they are the deterministic
//! stand-ins for host cost. Disarmed, every allocation pays one relaxed
//! load — the same on every commit measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// The counters publish no other data: Relaxed throughout.
fn on_alloc(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn on_dealloc(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        // Blocks allocated before arming may be freed while armed.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size as u64))
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the bookkeeping touches
// only atomics and never the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// What was allocated while the counter was armed.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocReport {
    pub count: u64,
    pub bytes: u64,
    /// Peak of live bytes allocated since arming.
    pub peak_bytes: u64,
}

/// Zeroes the counters and starts counting.
pub fn arm() {
    for c in [&COUNT, &BYTES, &LIVE, &PEAK] {
        c.store(0, Ordering::Relaxed);
    }
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the totals since [`arm`].
pub fn disarm() -> AllocReport {
    ARMED.store(false, Ordering::Relaxed);
    AllocReport {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    }
}
