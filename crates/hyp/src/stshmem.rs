//! The `STSHMEM` synchronized-time shared memory (paper §II-A and [14]).
//!
//! The hypervisor exposes a shared-memory page to all co-located VMs via a
//! virtual PCI device. The active clock-synchronization VM's `phc2sys`
//! writes *clock parameters* — an affine mapping from the host's free
//! running clock to the synchronized time — and every guest derives the
//! POSIX clock `CLOCK_SYNCTIME` from them. Readers use a sequence lock so
//! a torn read is impossible (ACRN uses the MMU to give all VMs the same
//! view; the paper relies on this for fail-consistency).

use tsn_time::{round_to_i64, ClockTime, Nanos};

/// Identifies a VM on one ECD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub usize);

/// Affine clock parameters mapping the host clock to synchronized time:
/// `synctime(h) = base_sync + (h − base_host) · rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockParams {
    /// Host clock reading at the sample point.
    pub base_host: ClockTime,
    /// Synchronized time at the sample point.
    pub base_sync: ClockTime,
    /// Synchronized nanoseconds per host nanosecond.
    pub rate: f64,
}

impl ClockParams {
    /// Identity parameters (synctime ≡ host clock).
    pub fn identity() -> Self {
        ClockParams {
            base_host: ClockTime::ZERO,
            base_sync: ClockTime::ZERO,
            rate: 1.0,
        }
    }

    /// Evaluates `CLOCK_SYNCTIME` at host clock reading `host_now`.
    pub fn synctime(&self, host_now: ClockTime) -> ClockTime {
        let dt = (host_now - self.base_host).as_nanos() as f64;
        self.base_sync + Nanos::from_nanos(round_to_i64(dt * self.rate))
    }
}

/// The shared page: current parameters plus writer bookkeeping the
/// hypervisor monitor uses for fail-silence detection.
#[derive(Debug, Clone)]
pub struct StShmem {
    params: ClockParams,
    seq: u64,
    writer: Option<VmId>,
    last_update_host: ClockTime,
}

impl Default for StShmem {
    fn default() -> Self {
        Self::new()
    }
}

impl StShmem {
    /// Creates a page with identity parameters and no writer.
    pub fn new() -> Self {
        StShmem {
            params: ClockParams::identity(),
            seq: 0,
            writer: None,
            last_update_host: ClockTime::from_nanos(i64::MIN / 2),
        }
    }

    /// Publishes new parameters from `writer` at host time `host_now`.
    pub fn write(&mut self, writer: VmId, params: ClockParams, host_now: ClockTime) {
        self.seq += 1; // odd: write in progress (modeled atomically)
        self.params = params;
        self.writer = Some(writer);
        self.last_update_host = host_now;
        self.seq += 1; // even: stable
    }

    /// The current parameters (a consistent snapshot).
    pub fn params(&self) -> ClockParams {
        self.params
    }

    /// Sequence counter (increments by 2 per write).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The VM that last wrote, if any.
    pub fn writer(&self) -> Option<VmId> {
        self.writer
    }

    /// Host time of the last update (the monitor's freshness reference).
    pub fn last_update_host(&self) -> ClockTime {
        self.last_update_host
    }

    /// Reads `CLOCK_SYNCTIME` at host reading `host_now` — what a guest's
    /// driver computes from the mapped page.
    pub fn synctime(&self, host_now: ClockTime) -> ClockTime {
        self.params.synctime(host_now)
    }

    /// Age of the parameters at `host_now`.
    pub fn age(&self, host_now: ClockTime) -> Nanos {
        host_now - self.last_update_host
    }
}

tsn_snapshot::snap_struct!(VmId { 0 });
tsn_snapshot::snap_struct!(ClockParams {
    base_host,
    base_sync,
    rate,
});

tsn_snapshot::snap_state!(StShmem {
    params,
    seq,
    writer,
    last_update_host,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_params_track_host() {
        let shm = StShmem::new();
        let h = ClockTime::from_nanos(123_456);
        assert_eq!(shm.synctime(h), h);
    }

    #[test]
    fn affine_mapping_applied() {
        let params = ClockParams {
            base_host: ClockTime::from_nanos(1_000),
            base_sync: ClockTime::from_nanos(5_000),
            rate: 1.0 + 10e-6, // +10 ppm
        };
        // 1 ms after the base point.
        let sync = params.synctime(ClockTime::from_nanos(1_001_000));
        assert_eq!(sync.as_nanos(), 5_000 + 1_000_000 + 10);
    }

    #[test]
    fn write_updates_seq_and_writer() {
        let mut shm = StShmem::new();
        let params = ClockParams::identity();
        shm.write(VmId(1), params, ClockTime::from_nanos(10));
        assert_eq!(shm.seq(), 2);
        assert_eq!(shm.writer(), Some(VmId(1)));
        assert_eq!(shm.last_update_host(), ClockTime::from_nanos(10));
        shm.write(VmId(2), params, ClockTime::from_nanos(20));
        assert_eq!(shm.seq(), 4);
        assert_eq!(shm.writer(), Some(VmId(2)));
    }

    #[test]
    fn age_measures_staleness() {
        let mut shm = StShmem::new();
        shm.write(VmId(0), ClockParams::identity(), ClockTime::from_nanos(100));
        assert_eq!(shm.age(ClockTime::from_nanos(350)), Nanos::from_nanos(250));
    }

    #[test]
    fn negative_rate_direction_handled() {
        // A slightly slow mapping still evaluates correctly backwards in
        // host time (reads before base are legal during takeover).
        let params = ClockParams {
            base_host: ClockTime::from_nanos(1_000_000),
            base_sync: ClockTime::from_nanos(1_000_000),
            rate: 0.999_999,
        };
        let sync = params.synctime(ClockTime::from_nanos(0));
        assert_eq!(sync.as_nanos(), 1); // rounding of -999999.0 + 1e6
    }
}
