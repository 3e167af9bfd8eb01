//! The `FTSHMEM` shared-memory region (paper §II-B).
//!
//! "We introduce a user-space shared memory region FTSHMEM between the M
//! ptp4l instances. [It] holds the latest M GM offsets, an array of M
//! booleans indicating whether the corresponding GM clock's offset from
//! the remaining GM clocks is within a configurable threshold, a
//! timestamp `adjust_last` providing when we have last adjusted the NIC's
//! clock frequency, and the state variables of a proportional integral
//! (PI) controller."
//!
//! In the simulation the region is a plain struct owned by the VM's
//! aggregator — the `M` instances run inside one single-threaded event
//! loop, so the process-shared futex has nothing to model; the field
//! layout follows the paper exactly.

use tsn_time::{ClockTime, Nanos, PiServo};

/// One domain's latest master-offset entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetSlot {
    /// Offset of the local clock from this domain's GM.
    pub offset: Nanos,
    /// Local hardware timestamp of the Sync that produced the offset.
    pub sync_rx_local: ClockTime,
    /// Cumulative GM-to-local rate ratio reported for this domain.
    pub rate_ratio: f64,
    /// Local time at which the slot was written (freshness reference).
    pub stored_at: ClockTime,
}

/// The shared region between the `M` per-domain instances of one
/// clock-synchronization VM.
#[derive(Debug)]
pub struct FtShmem {
    /// `master offset[0..M-1]` — the latest per-domain offsets.
    pub slots: Vec<Option<OffsetSlot>>,
    /// The M validity booleans.
    pub valid: Vec<bool>,
    /// When the NIC clock frequency was last adjusted (local clock).
    pub adjust_last: ClockTime,
    /// The shared PI controller.
    pub servo: PiServo,
    /// Number of aggregations performed (diagnostic).
    pub aggregations: u64,
    /// Sum of aggregated offsets in ns (diagnostic: a nonzero mean
    /// reveals systematic measurement bias, which a mutually-tracking GM
    /// ensemble integrates into common-mode frequency drift).
    pub offset_sum_ns: i128,
    /// Number of intervals skipped for lack of a quorum (diagnostic).
    pub no_quorum: u64,
}

impl FtShmem {
    /// Creates a region for `domains` gPTP domains with the given servo.
    pub fn new(domains: usize, servo: PiServo) -> Self {
        FtShmem {
            slots: vec![None; domains],
            valid: vec![false; domains],
            // Negative sentinel: the first submission always aggregates.
            adjust_last: ClockTime::from_nanos(i64::MIN / 2),
            servo,
            aggregations: 0,
            offset_sum_ns: 0,
            no_quorum: 0,
        }
    }

    /// The latest offsets as an `Option` per domain (no freshness check).
    pub fn offsets(&self) -> Vec<Option<Nanos>> {
        self.slots.iter().map(|s| s.map(|s| s.offset)).collect()
    }

    /// Clears all slots (used on VM restart).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        for v in &mut self.valid {
            *v = false;
        }
    }
}

tsn_snapshot::snap_struct!(OffsetSlot {
    offset,
    sync_rx_local,
    rate_ratio,
    stored_at,
});

tsn_snapshot::snap_state!(FtShmem {
    slots,
    valid,
    adjust_last,
    servo: state,
    aggregations,
    offset_sum_ns,
    no_quorum,
});

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_time::ServoConfig;

    fn servo() -> PiServo {
        PiServo::new(ServoConfig::default(), Nanos::from_millis(125))
    }

    #[test]
    fn fresh_region_is_empty() {
        let shm = FtShmem::new(4, servo());
        assert_eq!(shm.slots.len(), 4);
        assert!(shm.offsets().iter().all(Option::is_none));
        assert_eq!(shm.valid, vec![false; 4]);
    }

    #[test]
    fn sentinel_adjust_last_triggers_first_aggregation() {
        let shm = FtShmem::new(4, servo());
        let s = Nanos::from_millis(125);
        assert!(shm.adjust_last + s <= ClockTime::ZERO);
    }

    #[test]
    fn clear_resets_slots() {
        let mut shm = FtShmem::new(2, servo());
        shm.slots[0] = Some(OffsetSlot {
            offset: Nanos::from_nanos(5),
            sync_rx_local: ClockTime::ZERO,
            rate_ratio: 1.0,
            stored_at: ClockTime::ZERO,
        });
        shm.valid[0] = true;
        shm.clear();
        assert!(shm.slots[0].is_none());
        assert!(!shm.valid[0]);
    }
}
