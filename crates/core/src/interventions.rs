//! Interventions: what the experiment does *to* the testbed, as opposed
//! to what the testbed does by itself — scheduled VM shutdowns and
//! reboots (the fault injector), attacker strikes, the permanent
//! grandmaster kill of the election failover scenario, and the corrupt
//! `STSHMEM` publisher. Each acts strictly after the warm-up; all but the
//! last fire from a control event armed at construction.

use crate::probe::observe;
use crate::world::{Ev, World};
use tsn_faults::{AttackPlan, ByzantineStrategy, StrikeOutcome, VmSlot};
use tsn_metrics::ExperimentEvent;
use tsn_oracle::Observation;
use tsn_time::{Nanos, SimTime};

impl World {
    /// The scheduled grandmaster kill: permanently shuts down the
    /// configured node's GM VM (no reboot — the failover must come from
    /// re-election, not recovery).
    pub(crate) fn on_gm_kill(&mut self, t: SimTime) {
        let Some(el) = self.cfg.election else {
            return;
        };
        let node = el.gm_failure_node;
        if self.shut_down_vm(t, node, 0, true) {
            self.gm_kill = Some((t, node as u8));
        }
    }

    pub(crate) fn on_fault(&mut self, t: SimTime, i: usize) {
        let f = self.tb.schedule[i];
        // Already down should not happen per the schedule's constraints.
        if self.shut_down_vm(t, f.node, slot_index(f.slot), false) {
            self.queue
                .schedule_at(f.reboot_at + self.cfg.warmup, Ev::RebootAt(i));
        }
    }

    /// Fail-silent shutdown of a running VM (`false` if already down).
    /// `killed`: the domains it acted for lost their master for good.
    fn shut_down_vm(&mut self, t: SimTime, node: usize, slot: usize, killed: bool) -> bool {
        let vm = &mut self.tb.nodes[node].vms[slot];
        if !vm.running {
            return false;
        }
        vm.running = false;
        vm.ptp.shut_down();
        let was_acting = vm.ptp.acting_domains();
        let grandmaster = slot == 0;
        self.counters.vm_failures += 1;
        self.counters.gm_failures += u64::from(grandmaster);
        for d in was_acting {
            let (at, domain) = (t, d as usize);
            observe(&mut self.observers, || Observation::ElectionActing {
                at,
                domain,
                node,
                acting: false,
            });
            if killed {
                observe(&mut self.observers, || Observation::GmKilled { at, domain });
            }
        }
        self.log(t, ExperimentEvent::VmFailure { node, grandmaster });
        true
    }

    pub(crate) fn on_reboot(&mut self, t: SimTime, i: usize) {
        let f = self.tb.schedule[i];
        let (node, slot) = (f.node, slot_index(f.slot));
        let vm = &mut self.tb.nodes[node].vms[slot];
        vm.running = true;
        vm.compromised = false;
        vm.strike_idx = None;
        vm.ptp.reboot();
        self.tb.nodes[node].hyp.on_vm_reboot(slot);
        let grandmaster = slot == 0;
        self.log(t, ExperimentEvent::VmReboot { node, grandmaster });
    }

    /// What VM `(node, slot)` adds to everything it publishes at `t`:
    /// the corrupt publisher's shift from its onset on, else zero.
    pub(crate) fn publisher_corruption(&self, t: SimTime, node: usize, slot: usize) -> Nanos {
        match self.cfg.corrupt_publisher {
            Some(cp)
                if cp.node == node
                    && cp.slot == slot
                    && t >= SimTime::ZERO + self.cfg.warmup + cp.at =>
            {
                cp.offset
            }
            _ => Nanos::ZERO,
        }
    }

    pub(crate) fn on_strike(&mut self, t: SimTime, i: usize) {
        let strike = self.cfg.attack.strikes()[i];
        let kernel = self.cfg.kernels.kernel(strike.target_node);
        let outcome = AttackPlan::attempt(&strike, kernel);
        let succeeded = outcome == StrikeOutcome::RootObtained;
        if succeeded {
            self.counters.strikes_succeeded += 1;
            let vm = &mut self.tb.nodes[strike.target_node].vms[0];
            vm.compromised = true;
            vm.strike_idx = Some(i);
            vm.ptp
                .compromise(strike.offset_at(Nanos::ZERO, self.cfg.aggregation.validity_threshold));
            // A rogue master additionally forges a best-possible BMCA
            // claim on its cyclic predecessor's domain, capturing it
            // through the election (no effect without election mode).
            if matches!(strike.strategy, Some(ByzantineStrategy::RogueMaster { .. })) {
                let n = self.cfg.nodes;
                let domain = ((strike.target_node + n - 1) % n) as u8;
                if vm.ptp.capture(domain) {
                    self.on_acting_change(t, strike.target_node, domain, true);
                }
            }
        } else {
            self.counters.strikes_failed += 1;
        }
        self.log(
            t,
            ExperimentEvent::Strike {
                node: strike.target_node,
                succeeded,
            },
        );
    }
}

/// The clock-sync VM slot a fault targets.
fn slot_index(slot: VmSlot) -> usize {
    match slot {
        VmSlot::Grandmaster => 0,
        VmSlot::Redundant => 1,
    }
}
