//! The hypervisor-native monitor and the dependent-clock device.
//!
//! Paper §II-A: "we extend the dependent clock by introducing a
//! periodically executing monitor in ACRN implementing a voting algorithm
//! to detect clock synchronization VMs providing faulty clock parameters.
//! If the monitor detects a faulty clock synchronization VM, the STSHMEM
//! virtual PCI device injects an interrupt into the redundant clock
//! synchronization VM that is about to take over maintaining the
//! synchronized time."
//!
//! Because the paper's hardware offers only two passthrough NICs per ECD,
//! the experiments assume *fail-silent* clock-sync VMs (`f + 1 = 2`
//! redundancy); with three or more VMs the *fail-consistent* voting
//! monitor (`2f + 1` redundancy) applies. Both are implemented here:
//! [`DependentClockDevice`] performs fail-silent freshness detection and
//! takeover; [`VotingMonitor`] implements the majority-vote detector.

use crate::stshmem::{ClockParams, StShmem, VmId};
use tsn_time::{ClockTime, Nanos};

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Monitor task period (125 ms in the paper).
    pub period: Nanos,
    /// STSHMEM updates older than this mark the active VM fail-silent.
    pub freshness_timeout: Nanos,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            period: Nanos::from_millis(125),
            freshness_timeout: Nanos::from_millis(500),
        }
    }
}

/// A takeover decision: inject an interrupt into `to`, which becomes the
/// active maintainer of `CLOCK_SYNCTIME`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Takeover {
    /// The VM that failed (or was voted faulty).
    pub from: VmId,
    /// The standby VM taking over.
    pub to: VmId,
}

/// The per-ECD dependent-clock device: STSHMEM plus active/standby
/// bookkeeping and the fail-silent monitor.
#[derive(Debug, Clone)]
pub struct DependentClockDevice {
    stshmem: StShmem,
    active: VmId,
    standbys: Vec<VmId>,
    config: MonitorConfig,
    /// Completed takeovers (diagnostic).
    pub takeovers: u64,
    /// Monitor ticks that found the active VM failed with no standby
    /// available (the node free-runs on stale parameters).
    pub uncovered_failures: u64,
}

impl DependentClockDevice {
    /// Creates a device with the given active VM and standby order.
    pub fn new(active: VmId, standbys: Vec<VmId>, config: MonitorConfig) -> Self {
        DependentClockDevice {
            stshmem: StShmem::new(),
            active,
            standbys,
            config,
            takeovers: 0,
            uncovered_failures: 0,
        }
    }

    /// The currently active clock-synchronization VM.
    pub fn active(&self) -> VmId {
        self.active
    }

    /// The standby VMs, in promotion order.
    pub fn standbys(&self) -> &[VmId] {
        &self.standbys
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Read access to the shared page (guests' `CLOCK_SYNCTIME`).
    pub fn stshmem(&self) -> &StShmem {
        &self.stshmem
    }

    /// A clock-sync VM publishes parameters. Only the active VM's writes
    /// reach the page (the virtual PCI device gates the mapping); returns
    /// whether the write was accepted.
    pub fn publish(&mut self, vm: VmId, params: ClockParams, host_now: ClockTime) -> bool {
        if vm != self.active {
            return false;
        }
        self.stshmem.write(vm, params, host_now);
        true
    }

    /// One monitor tick at host time `host_now`. `is_running` reports VM
    /// health as the hypervisor sees it (a fail-silent VM is simply
    /// down or has stopped updating).
    pub fn monitor_tick(
        &mut self,
        host_now: ClockTime,
        mut is_running: impl FnMut(VmId) -> bool,
    ) -> Option<Takeover> {
        // Freshness only applies once the active VM has published at
        // least once (otherwise a monitor tick during boot would trigger
        // a spurious takeover).
        let stale = self.stshmem.writer().is_some()
            && self.stshmem.age(host_now) > self.config.freshness_timeout;
        let active_dead = !is_running(self.active) || stale;
        if !active_dead {
            return None;
        }
        // Promote the first running standby.
        let Some(pos) = self.standbys.iter().position(|&vm| is_running(vm)) else {
            self.uncovered_failures += 1;
            return None;
        };
        Some(self.promote(pos))
    }

    /// Makes standby `pos` the active maintainer.
    fn promote(&mut self, pos: usize) -> Takeover {
        let to = self.standbys.remove(pos);
        let from = std::mem::replace(&mut self.active, to);
        // The failed VM rejoins as the last standby once it reboots; we
        // keep it in the list so promotion order is deterministic.
        self.standbys.push(from);
        self.takeovers += 1;
        Takeover { from, to }
    }

    /// Reads `CLOCK_SYNCTIME` at host reading `host_now`.
    pub fn synctime(&self, host_now: ClockTime) -> ClockTime {
        self.stshmem.synctime(host_now)
    }

    /// Forces a takeover away from the active VM (used by the voting
    /// monitor when the active maintainer is voted faulty rather than
    /// silent). Promotes the first standby for which `is_ok` holds.
    pub fn force_takeover(&mut self, mut is_ok: impl FnMut(VmId) -> bool) -> Option<Takeover> {
        let pos = self.standbys.iter().position(|&vm| is_ok(vm))?;
        Some(self.promote(pos))
    }
}

/// Most clock-sync VMs one [`VotingMonitor`] can vote on.
const MAX_VMS: usize = 64;

/// The fail-consistent voting monitor (requires `2f + 1` clock-sync VMs).
///
/// Every clock-sync VM publishes *candidate* parameters into a private
/// hypervisor slot; the monitor evaluates each candidate's synchronized
/// time at the current instant and votes: VMs whose candidate deviates
/// from the median by more than `threshold` (or whose slot is stale) are
/// faulty.
#[derive(Debug, Clone)]
pub struct VotingMonitor {
    threshold: Nanos,
    freshness_timeout: Nanos,
    slots: Vec<Option<(ClockParams, ClockTime)>>,
}

impl VotingMonitor {
    /// Creates a monitor for `vms` clock-sync VMs.
    ///
    /// # Panics
    ///
    /// Panics if `vms` exceeds the 64 a vote's bit mask can name.
    pub fn new(vms: usize, threshold: Nanos, freshness_timeout: Nanos) -> Self {
        assert!(vms <= MAX_VMS, "at most {MAX_VMS} clock-sync VMs per ECD");
        VotingMonitor {
            threshold,
            freshness_timeout,
            slots: vec![None; vms],
        }
    }

    /// VM `vm` publishes its candidate parameters.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn publish_candidate(&mut self, vm: VmId, params: ClockParams, host_now: ClockTime) {
        self.slots[vm.0] = Some((params, host_now));
    }

    /// Votes at host time `host_now`: bit `i` of the result is set when
    /// VM `i` is faulty. With fewer than 3 live candidates no vote is
    /// possible and all live VMs are presumed correct. Runs on every
    /// monitor tick, so it works on the stack.
    pub fn vote(&self, host_now: ClockTime) -> u64 {
        let reading = |slot: &Option<(ClockParams, ClockTime)>| {
            let (params, updated) = (*slot)?;
            let fresh = host_now - updated <= self.freshness_timeout;
            fresh.then(|| params.synctime(host_now).as_nanos())
        };
        let mut live = [0i64; MAX_VMS];
        let mut n_live = 0;
        for v in self.slots.iter().filter_map(reading) {
            live[n_live] = v;
            n_live += 1;
        }
        // A median needs a majority to exist.
        let median = (n_live >= 3).then(|| {
            live[..n_live].sort_unstable();
            live[n_live / 2]
        });
        let mut faulty = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            let bad = match (reading(slot), median) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(v), Some(m)) => (v - m).abs() > self.threshold.as_nanos(),
            };
            faulty |= u64::from(bad) << i;
        }
        faulty
    }
}

#[cfg(test)]
mod force_tests {
    use super::*;

    #[test]
    fn force_takeover_picks_first_acceptable_standby() {
        let mut dev =
            DependentClockDevice::new(VmId(0), vec![VmId(1), VmId(2)], MonitorConfig::default());
        // VM 1 is also faulty: promotion must skip it.
        let t = dev.force_takeover(|vm| vm == VmId(2)).unwrap();
        assert_eq!(
            t,
            Takeover {
                from: VmId(0),
                to: VmId(2)
            }
        );
        assert_eq!(dev.active(), VmId(2));
        assert_eq!(dev.standbys(), &[VmId(1), VmId(0)]);
    }

    #[test]
    fn force_takeover_without_candidates_is_none() {
        let mut dev = DependentClockDevice::new(VmId(0), vec![VmId(1)], MonitorConfig::default());
        assert!(dev.force_takeover(|_| false).is_none());
        assert_eq!(dev.active(), VmId(0));
    }
}

use tsn_snapshot::{Reader, Snap, SnapError, SnapState, Writer};

impl SnapState for DependentClockDevice {
    // Hand-written: the ids index the embedding's per-VM tables, so load
    // accepts only a re-arrangement of the constructed ones. `config` is
    // static; active/standbys evolve through takeovers.
    fn save_state(&self, w: &mut Writer) {
        self.stshmem.save_state(w);
        self.active.put(w);
        self.standbys.put(w);
        self.takeovers.put(w);
        self.uncovered_failures.put(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.stshmem.load_state(r)?;
        let active: VmId = Snap::get(r)?;
        let standbys: Vec<VmId> = Snap::get(r)?;
        let sorted_ids = |active: VmId, standbys: &[VmId]| {
            let mut ids: Vec<VmId> = standbys.iter().copied().chain([active]).collect();
            ids.sort_unstable();
            ids
        };
        if sorted_ids(active, &standbys) != sorted_ids(self.active, &self.standbys) {
            return Err(SnapError::Malformed("dependent clock VM ids"));
        }
        self.active = active;
        self.standbys = standbys;
        self.takeovers = Snap::get(r)?;
        self.uncovered_failures = Snap::get(r)?;
        Ok(())
    }
}

impl SnapState for VotingMonitor {
    // Hand-written: the slot count is configuration and is checked.
    fn save_state(&self, w: &mut Writer) {
        self.slots.put(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let slots: Vec<Option<(ClockParams, ClockTime)>> = Snap::get(r)?;
        if slots.len() != self.slots.len() {
            return Err(SnapError::Malformed("voting monitor slot count"));
        }
        self.slots = slots;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MonitorConfig {
        MonitorConfig::default()
    }

    fn params_at(offset_ns: i64) -> ClockParams {
        ClockParams {
            base_host: ClockTime::ZERO,
            base_sync: ClockTime::from_nanos(offset_ns),
            rate: 1.0,
        }
    }

    #[test]
    fn healthy_active_vm_keeps_role() {
        let mut dev = DependentClockDevice::new(VmId(1), vec![VmId(2)], config());
        dev.publish(VmId(1), params_at(0), ClockTime::from_nanos(0));
        let t = ClockTime::from_nanos(125_000_000);
        assert_eq!(dev.monitor_tick(t, |_| true), None);
        assert_eq!(dev.active(), VmId(1));
    }

    #[test]
    fn dead_active_vm_triggers_takeover() {
        let mut dev = DependentClockDevice::new(VmId(1), vec![VmId(2)], config());
        dev.publish(VmId(1), params_at(0), ClockTime::ZERO);
        let t = ClockTime::from_nanos(125_000_000);
        let takeover = dev.monitor_tick(t, |vm| vm != VmId(1)).unwrap();
        assert_eq!(
            takeover,
            Takeover {
                from: VmId(1),
                to: VmId(2)
            }
        );
        assert_eq!(dev.active(), VmId(2));
        assert_eq!(dev.takeovers, 1);
    }

    #[test]
    fn stale_params_count_as_fail_silent() {
        let mut dev = DependentClockDevice::new(VmId(1), vec![VmId(2)], config());
        dev.publish(VmId(1), params_at(0), ClockTime::ZERO);
        // The VM reports "running" but stopped updating (hung ptp4l).
        let t = ClockTime::from_nanos(600_000_000);
        let takeover = dev.monitor_tick(t, |_| true).unwrap();
        assert_eq!(takeover.to, VmId(2));
    }

    #[test]
    fn no_standby_counts_uncovered_failure() {
        let mut dev = DependentClockDevice::new(VmId(1), vec![VmId(2)], config());
        dev.publish(VmId(1), params_at(0), ClockTime::ZERO);
        let t = ClockTime::from_nanos(600_000_000);
        assert_eq!(dev.monitor_tick(t, |_| false), None);
        assert_eq!(dev.uncovered_failures, 1);
        assert_eq!(dev.active(), VmId(1), "role unchanged without standby");
    }

    #[test]
    fn failed_vm_rejoins_as_standby() {
        let mut dev = DependentClockDevice::new(VmId(1), vec![VmId(2)], config());
        dev.publish(VmId(1), params_at(0), ClockTime::ZERO);
        let t = ClockTime::from_nanos(600_000_000);
        dev.monitor_tick(t, |vm| vm != VmId(1)).unwrap();
        assert_eq!(dev.standbys(), &[VmId(1)]);
        // Later VM 2 dies and a rebooted VM 1 takes back over.
        dev.publish(VmId(2), params_at(0), t);
        let t2 = ClockTime::from_nanos(1_300_000_000);
        let takeover = dev.monitor_tick(t2, |vm| vm != VmId(2)).unwrap();
        assert_eq!(
            takeover,
            Takeover {
                from: VmId(2),
                to: VmId(1)
            }
        );
    }

    #[test]
    fn only_active_vm_writes_reach_the_page() {
        let mut dev = DependentClockDevice::new(VmId(1), vec![VmId(2)], config());
        assert!(dev.publish(VmId(1), params_at(100), ClockTime::ZERO));
        assert!(!dev.publish(VmId(2), params_at(999_999), ClockTime::ZERO));
        assert_eq!(dev.synctime(ClockTime::ZERO), ClockTime::from_nanos(100));
    }

    #[test]
    fn synctime_continuous_across_takeover() {
        let mut dev = DependentClockDevice::new(VmId(1), vec![VmId(2)], config());
        dev.publish(VmId(1), params_at(1_000), ClockTime::ZERO);
        let before = dev.synctime(ClockTime::from_nanos(600_000_000));
        dev.monitor_tick(ClockTime::from_nanos(600_000_000), |vm| vm != VmId(1))
            .unwrap();
        // Standby publishes nearly identical parameters (its PHC is
        // synchronized to the same fault-tolerant global time).
        dev.publish(
            VmId(2),
            ClockParams {
                base_host: ClockTime::from_nanos(600_000_000),
                base_sync: ClockTime::from_nanos(600_001_050),
                rate: 1.0,
            },
            ClockTime::from_nanos(600_000_000),
        );
        let after = dev.synctime(ClockTime::from_nanos(600_000_000));
        assert!((after - before).abs() <= Nanos::from_nanos(50));
    }

    #[test]
    fn voting_detects_byzantine_candidate() {
        let mut vm = VotingMonitor::new(3, Nanos::from_micros(10), Nanos::from_millis(500));
        let t = ClockTime::from_nanos(1_000_000);
        vm.publish_candidate(VmId(0), params_at(100), t);
        vm.publish_candidate(VmId(1), params_at(-24_000), t); // faulty
        vm.publish_candidate(VmId(2), params_at(200), t);
        assert_eq!(vm.vote(t), 0b010);
    }

    #[test]
    fn voting_flags_stale_candidates() {
        let mut vm = VotingMonitor::new(3, Nanos::from_micros(10), Nanos::from_millis(500));
        vm.publish_candidate(VmId(0), params_at(0), ClockTime::ZERO);
        vm.publish_candidate(VmId(1), params_at(0), ClockTime::ZERO);
        vm.publish_candidate(VmId(2), params_at(0), ClockTime::ZERO);
        let late = ClockTime::from_nanos(10_000_000_000);
        assert_eq!(vm.vote(late), 0b111);
    }

    #[test]
    fn voting_needs_three_live_candidates() {
        let mut vm = VotingMonitor::new(3, Nanos::from_micros(10), Nanos::from_millis(500));
        let t = ClockTime::from_nanos(1_000);
        vm.publish_candidate(VmId(0), params_at(0), t);
        vm.publish_candidate(VmId(1), params_at(50_000), t);
        // Two live candidates disagree: no majority exists; both presumed
        // correct (this is exactly why fail-silent needs only f+1 but
        // fail-consistent needs 2f+1).
        assert_eq!(vm.vote(t), 0b100);
    }
}
