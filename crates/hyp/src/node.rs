//! The hypervisor side of one ECD, as one engine.
//!
//! [`HypNode`] owns what the hypervisor and the clock-sync VMs' `phc2sys`
//! keep per ECD — the dependent-clock device with its `STSHMEM` page, the
//! optional voting monitor, each VM's parameter-derivation engine and
//! feedback servo — and the policy that ties them together: who may
//! publish, who is demoted and when, whose servo starts fresh. Sans-IO
//! like the gPTP engines: the embedding reads the clocks, knows which VMs
//! run, and calls in on its two timers.

use crate::monitor::{DependentClockDevice, MonitorConfig, Takeover, VotingMonitor};
use crate::phc2sys::{Phc2Sys, SyncClockDiscipline, SyncTimeServo};
use crate::stshmem::VmId;
use tsn_snapshot::SnapState;
use tsn_time::{ClockTime, Nanos, ServoConfig};

/// Candidates further than this from the median are voted faulty.
const VOTE_THRESHOLD: Nanos = Nanos::from_micros(10);

/// The `phc2sys` of one clock-sync VM: both disciplines' state.
#[derive(Debug, Clone)]
struct VmPhc2Sys {
    phc2sys: Phc2Sys,
    sync_servo: SyncTimeServo,
}

tsn_snapshot::snap_state!(VmPhc2Sys {
    phc2sys: state,
    sync_servo: state,
});

/// Dependent clock, monitor and per-VM `phc2sys` of one ECD.
#[derive(Debug, Clone)]
pub struct HypNode {
    device: DependentClockDevice,
    /// Present in fail-consistent (voting) monitor mode.
    voting: Option<VotingMonitor>,
    discipline: SyncClockDiscipline,
    vms: Vec<VmPhc2Sys>,
}

impl HypNode {
    /// An ECD with `vms` clock-sync VMs: VM 0 maintains `CLOCK_SYNCTIME`,
    /// the others stand by in slot order. `voting` selects the
    /// fail-consistent monitor (needs `2f + 1 ≥ 3` VMs) on top of the
    /// fail-silent freshness check.
    pub fn new(
        vms: usize,
        monitor: MonitorConfig,
        voting: bool,
        discipline: SyncClockDiscipline,
        phc2sys_interval: Nanos,
    ) -> Self {
        let vm = VmPhc2Sys {
            phc2sys: Phc2Sys::new(),
            sync_servo: SyncTimeServo::new(ServoConfig::default(), phc2sys_interval),
        };
        HypNode {
            device: DependentClockDevice::new(VmId(0), (1..vms).map(VmId).collect(), monitor),
            voting: voting
                .then(|| VotingMonitor::new(vms, VOTE_THRESHOLD, monitor.freshness_timeout)),
            discipline,
            vms: vec![vm; vms],
        }
    }

    /// The dependent-clock device: `CLOCK_SYNCTIME`, the active VM, the
    /// monitor period, takeover counters.
    pub fn device(&self) -> &DependentClockDevice {
        &self.device
    }

    /// The `phc2sys` of the running VM in `slot` fires, having read the
    /// host clock as `host_now` and its NIC's PHC as `phc_now`. In voting
    /// mode every VM publishes a candidate into its private slot; only
    /// the active maintainer's parameters reach the page, and only it
    /// runs the feedback loop (a standby's servo starts fresh on
    /// takeover). A Byzantine writer shifts everything it publishes,
    /// candidate and page alike, by `corruption` (zero for an honest VM)
    /// — a non-silent fault only the voting monitor can detect.
    pub fn on_phc2sys_tick(
        &mut self,
        slot: usize,
        host_now: ClockTime,
        phc_now: ClockTime,
        corruption: Nanos,
    ) {
        let vm = &mut self.vms[slot];
        if let Some(v) = &mut self.voting {
            let mut candidate = vm.phc2sys.sample(host_now, phc_now);
            candidate.base_sync = candidate.base_sync + corruption;
            v.publish_candidate(VmId(slot), candidate, host_now);
        }
        let mut params = match self.discipline {
            SyncClockDiscipline::FeedForward => vm.phc2sys.sample(host_now, phc_now),
            SyncClockDiscipline::Feedback => {
                if self.device.active() != VmId(slot) {
                    return;
                }
                let current = self.device.stshmem().params();
                vm.sync_servo.sample(&current, host_now, phc_now)
            }
        };
        params.base_sync = params.base_sync + corruption;
        self.device.publish(VmId(slot), params, host_now);
    }

    /// One monitor tick at host time `host_now`; `running` is VM health
    /// as the hypervisor sees it. Fail-consistent detection comes first
    /// — an active VM voted faulty is demoted although it keeps
    /// publishing — then the fail-silent freshness check. Returns the
    /// takeover of each, in that order; a promoted VM's servo starts
    /// fresh.
    pub fn on_monitor_tick(
        &mut self,
        host_now: ClockTime,
        running: impl Fn(VmId) -> bool,
    ) -> [Option<Takeover>; 2] {
        let faulty = self.voting.as_ref().map_or(0, |v| v.vote(host_now));
        let is_faulty = |vm: VmId| (faulty >> vm.0) & 1 == 1;
        let voted = if is_faulty(self.device.active()) {
            self.device
                .force_takeover(|vm| running(vm) && !is_faulty(vm))
        } else {
            None
        };
        let silent = self.device.monitor_tick(host_now, &running);
        for takeover in [voted, silent].into_iter().flatten() {
            self.vms[takeover.to.0].sync_servo.reset();
        }
        [voted, silent]
    }

    /// The VM in `slot` rebooted: its `phc2sys` starts from scratch.
    pub fn on_vm_reboot(&mut self, slot: usize) {
        self.vms[slot].phc2sys.reset();
        self.vms[slot].sync_servo.reset();
    }

    /// The `phc2sys` state of the VM in `slot`, for an embedding that
    /// snapshots it next to the VM's own; [`HypNode`]'s [`SnapState`]
    /// covers the device and the monitor.
    pub fn vm_state(&self, slot: usize) -> &impl SnapState {
        &self.vms[slot]
    }

    /// Mutable counterpart of [`HypNode::vm_state`].
    pub fn vm_state_mut(&mut self, slot: usize) -> &mut impl SnapState {
        &mut self.vms[slot]
    }
}

tsn_snapshot::snap_state!(HypNode {
    device: state,
    voting: each,
});

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_snapshot::{Reader, Writer};

    const PERIOD: i64 = 125_000_000;
    const LIE: Nanos = Nanos::from_micros(24);

    fn node(vms: usize, voting: bool, discipline: SyncClockDiscipline) -> HypNode {
        HypNode::new(
            vms,
            MonitorConfig::default(),
            voting,
            discipline,
            Nanos::from_nanos(PERIOD),
        )
    }

    /// Tick `k` of all `vms` VMs: host and PHC read the same instant,
    /// so an honest `CLOCK_SYNCTIME` tracks the host clock.
    fn tick(hyp: &mut HypNode, k: i64, vms: usize) -> ClockTime {
        let now = ClockTime::from_nanos(k * PERIOD);
        for slot in 0..vms {
            // From tick 4 on VM 0 of a three-VM node lies by 24 µs.
            let corruption = if (vms, slot) == (3, 0) && k >= 4 {
                LIE
            } else {
                Nanos::ZERO
            };
            hyp.on_phc2sys_tick(slot, now, now, corruption);
        }
        now
    }

    fn servo_state(hyp: &HypNode, slot: usize) -> Vec<u8> {
        let mut w = Writer::new();
        hyp.vms[slot].sync_servo.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn stale_page_promotes_the_standby_and_resets_only_its_servo() {
        let mut hyp = node(2, false, SyncClockDiscipline::Feedback);
        let fresh = servo_state(&hyp, 1);
        for k in 0..8 {
            let now = tick(&mut hyp, k, 2);
            assert_eq!(hyp.on_monitor_tick(now, |_| true), [None, None]);
        }
        // Only the active maintainer ran the feedback loop.
        assert_ne!(servo_state(&hyp, 0), fresh);
        assert_eq!(servo_state(&hyp, 1), fresh);
        let active_servo = servo_state(&hyp, 0);
        // VM 0 hangs: "running", but the page goes stale.
        let late = ClockTime::from_nanos(8 * PERIOD + 600_000_000);
        let takeover = Takeover {
            from: VmId(0),
            to: VmId(1),
        };
        assert_eq!(hyp.on_monitor_tick(late, |_| true), [None, Some(takeover)]);
        assert_eq!(hyp.device().active(), VmId(1));
        assert_eq!(hyp.device().takeovers, 1);
        assert_eq!(servo_state(&hyp, 1), fresh, "promoted servo starts fresh");
        assert_eq!(servo_state(&hyp, 0), active_servo, "demoted servo kept");
        // The promoted VM now publishes; the demoted one no longer can.
        let seq = hyp.device().stshmem().seq();
        hyp.on_phc2sys_tick(0, late, late, Nanos::ZERO);
        assert_eq!(hyp.device().stshmem().seq(), seq);
        hyp.on_phc2sys_tick(1, late, late, Nanos::ZERO);
        assert_eq!(hyp.device().stshmem().writer(), Some(VmId(1)));
    }

    #[test]
    fn a_dead_active_vm_is_replaced_by_the_first_running_standby() {
        let mut hyp = node(3, false, SyncClockDiscipline::FeedForward);
        let now = tick(&mut hyp, 0, 3);
        let [voted, silent] = hyp.on_monitor_tick(now, |vm| vm == VmId(2));
        assert_eq!(voted, None);
        assert_eq!(silent.map(|t| t.to), Some(VmId(2)));
        // Nobody left to promote: the failure is counted, not covered.
        assert_eq!(hyp.on_monitor_tick(now, |_| false), [None, None]);
        assert_eq!(hyp.device().uncovered_failures, 1);
    }

    #[test]
    fn a_voted_faulty_active_vm_is_demoted_although_it_keeps_publishing() {
        let mut hyp = node(3, true, SyncClockDiscipline::FeedForward);
        for k in 0..4 {
            let now = tick(&mut hyp, k, 3);
            assert_eq!(hyp.on_monitor_tick(now, |_| true), [None, None]);
            assert_eq!(hyp.device().synctime(now), now);
        }
        // The lie is on the page and in VM 0's slot.
        let now = tick(&mut hyp, 4, 3);
        assert_eq!(hyp.device().synctime(now), now + LIE);
        // VM 1 is down, so the vote promotes VM 2 — the page is fresh
        // and VM 0 runs, the liveness check alone would keep it.
        let [voted, silent] = hyp.on_monitor_tick(now, |vm| vm != VmId(1));
        let takeover = Takeover {
            from: VmId(0),
            to: VmId(2),
        };
        assert_eq!((voted, silent), (Some(takeover), None));
        // The honest maintainer's next tick repairs CLOCK_SYNCTIME.
        let now = tick(&mut hyp, 5, 3);
        assert_eq!(hyp.device().synctime(now), now);
        assert_eq!(hyp.on_monitor_tick(now, |_| true), [None, None]);
    }

    #[test]
    fn reboot_forgets_the_rate_history() {
        let mut hyp = node(2, false, SyncClockDiscipline::FeedForward);
        let fresh = {
            let mut w = Writer::new();
            hyp.vm_state(0).save_state(&mut w);
            w.into_bytes()
        };
        tick(&mut hyp, 0, 2);
        tick(&mut hyp, 1, 2);
        hyp.on_vm_reboot(0);
        let mut w = Writer::new();
        hyp.vm_state(0).save_state(&mut w);
        assert_eq!(w.into_bytes(), fresh);
    }

    #[test]
    fn state_round_trips_in_two_parts() {
        let mut hyp = node(3, true, SyncClockDiscipline::Feedback);
        for k in 0..5 {
            let now = tick(&mut hyp, k, 3);
            hyp.on_monitor_tick(now, |vm| vm != VmId(0));
        }
        let mut w = Writer::new();
        for slot in 0..3 {
            hyp.vm_state(slot).save_state(&mut w);
        }
        hyp.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = node(3, true, SyncClockDiscipline::Feedback);
        let mut r = Reader::new(&bytes);
        for slot in 0..3 {
            restored.vm_state_mut(slot).load_state(&mut r).expect("vm");
        }
        restored.load_state(&mut r).expect("device");
        r.finish().expect("all consumed");
        assert_eq!(restored.device().active(), hyp.device().active());
        assert_eq!(format!("{restored:?}"), format!("{hyp:?}"));
    }
}
