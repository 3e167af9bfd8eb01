//! Best master clock algorithm (IEEE 802.1AS clause 10.3).
//!
//! The paper's experiments run with *external port configuration* — static
//! port roles, no BMCA — because the four grandmasters are fixed by
//! design ("there is no best master clock algorithm (BMCA) picking GM
//! clocks"). The algorithm is still part of IEEE 802.1AS, so this module
//! implements it as an optional mode: priority-vector comparison,
//! Announce qualification and receipt timeout, and per-port role
//! decision. Integration tests use it to check that a BMCA-managed domain
//! elects the configured-best GM and fails over when it goes silent.

use crate::msg::{AnnounceBody, Message};
use crate::types::{PortIdentity, SystemIdentity};
use std::collections::BTreeMap;
use tsn_time::{ClockTime, Nanos};

/// The role of a gPTP port within one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortRole {
    /// Sends Sync/Announce downstream.
    Master,
    /// Receives time from the elected GM.
    Slave,
    /// Blocked to keep the active topology loop-free.
    Passive,
    /// Not participating.
    Disabled,
}

/// An 802.1AS priority vector (clause 10.3.5), ordered so that *smaller is
/// better*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityVector {
    /// Root system identity.
    pub system: SystemIdentity,
    /// Steps removed from the root.
    pub steps_removed: u16,
    /// Identity of the transmitting port.
    pub source_port: PortIdentity,
    /// Number of the receiving port (tie-break).
    pub receiving_port: u16,
}

/// Comparison key of a [`PriorityVector`] (system key, steps removed,
/// source port, receiving port).
type VectorKey = (
    (u8, u8, u8, u16, u8, crate::types::ClockIdentity),
    u16,
    PortIdentity,
    u16,
);

impl PriorityVector {
    fn key(&self) -> VectorKey {
        (
            self.system.key(),
            self.steps_removed,
            self.source_port,
            self.receiving_port,
        )
    }
}

impl PartialOrd for PriorityVector {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PriorityVector {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The outcome of a BMCA decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmcaDecision {
    /// The elected grandmaster's system identity.
    pub grandmaster: SystemIdentity,
    /// `true` if the local system is the grandmaster.
    pub is_grandmaster: bool,
    /// Role per port.
    pub roles: BTreeMap<u16, PortRole>,
    /// The slave port (if not grandmaster).
    pub slave_port: Option<u16>,
}

#[derive(Debug, Clone)]
struct ErBest {
    vector: PriorityVector,
    last_announce: ClockTime,
}

/// Per-domain BMCA state of one time-aware system.
#[derive(Debug, Clone)]
pub struct Bmca {
    own: SystemIdentity,
    ports: Vec<u16>,
    er_best: BTreeMap<u16, ErBest>,
    announce_receipt_timeout: Nanos,
}

impl Bmca {
    /// Creates BMCA state for a system with the given ports.
    ///
    /// `announce_receipt_timeout` is the silence interval after which a
    /// port's best master information expires (802.1AS default: 3 Announce
    /// intervals).
    pub fn new(own: SystemIdentity, ports: Vec<u16>, announce_receipt_timeout: Nanos) -> Self {
        Bmca {
            own,
            ports,
            er_best: BTreeMap::new(),
            announce_receipt_timeout,
        }
    }

    /// Overrides the local `priority1`, e.g. when a rogue master forges
    /// a best-possible vector after compromise. Does not touch the
    /// per-port best-master records; the next [`Bmca::decide`] compares
    /// against the forged value.
    pub fn set_priority1(&mut self, priority1: u8) {
        self.own.priority1 = priority1;
    }

    /// Feeds a received Announce. `now` is the local clock used only for
    /// receipt-timeout bookkeeping.
    pub fn consider_announce(&mut self, port: u16, msg: &Message, now: ClockTime) {
        let Message::Announce {
            header,
            body,
            path_trace,
        } = msg
        else {
            return;
        };
        // Qualification (clause 10.3.10): not from ourselves, sane steps,
        // and no loop — an Announce whose path trace already contains our
        // clock identity has circled back (clause 10.3.8.23).
        if body.gm_identity == self.own.identity
            || body.steps_removed >= 255
            || path_trace.contains(&self.own.identity)
        {
            return;
        }
        let vector = Self::vector_from(body, header.source_port, port);
        let replace = match self.er_best.get(&port) {
            // Same source always refreshes; a better vector replaces.
            Some(cur) => vector <= cur.vector || cur.vector.source_port == header.source_port,
            None => true,
        };
        if replace {
            self.er_best.insert(
                port,
                ErBest {
                    vector,
                    last_announce: now,
                },
            );
        }
    }

    fn vector_from(body: &AnnounceBody, source_port: PortIdentity, port: u16) -> PriorityVector {
        PriorityVector {
            system: SystemIdentity {
                priority1: body.priority1,
                quality: body.quality,
                priority2: body.priority2,
                identity: body.gm_identity,
            },
            // One more step for the hop to us.
            steps_removed: body.steps_removed + 1,
            source_port,
            receiving_port: port,
        }
    }

    /// Expires ports whose Announce information is stale at `now`.
    pub fn expire(&mut self, now: ClockTime) {
        let timeout = self.announce_receipt_timeout;
        self.er_best.retain(|_, e| now - e.last_announce <= timeout);
    }

    /// Runs the state decision, returning the elected GM and port roles.
    pub fn decide(&self) -> BmcaDecision {
        let best_port = self
            .er_best
            .iter()
            .min_by(|a, b| a.1.vector.cmp(&b.1.vector))
            .map(|(p, e)| (*p, e.vector));
        let is_grandmaster = match best_port {
            Some((_, v)) => !v.system.better_than(&self.own),
            None => true,
        };
        let mut roles = BTreeMap::new();
        let mut slave_port = None;
        if is_grandmaster {
            for &p in &self.ports {
                roles.insert(p, PortRole::Master);
            }
            BmcaDecision {
                grandmaster: self.own,
                is_grandmaster: true,
                roles,
                slave_port: None,
            }
        } else {
            // Unreachable: `is_grandmaster` is `true` whenever `best_port` is `None`.
            let (bp, bv) = best_port.expect("not GM implies some better vector");
            for &p in &self.ports {
                let role = if p == bp {
                    slave_port = Some(p);
                    PortRole::Slave
                } else {
                    match self.er_best.get(&p) {
                        // Another port also hears the (same or better)
                        // root: block it to avoid a loop.
                        Some(e) if e.vector.system.better_than(&self.own) => PortRole::Passive,
                        _ => PortRole::Master,
                    }
                };
                roles.insert(p, role);
            }
            BmcaDecision {
                grandmaster: bv.system,
                is_grandmaster: false,
                roles,
                slave_port,
            }
        }
    }
}

use tsn_snapshot::{snap_state, snap_struct};

snap_struct!(PriorityVector {
    system,
    steps_removed,
    source_port,
    receiving_port,
});
snap_struct!(ErBest {
    vector,
    last_announce
});

// The port list and receipt timeout are construction-time
// configuration; `priority1` is mutable (rogue-master forging) and
// travels with the per-port best-master records.
snap_state!(Bmca { own.priority1, er_best });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Header, MessageType};
    use crate::types::{ClockIdentity, ClockQuality};

    fn sys(priority1: u8, idx: u32) -> SystemIdentity {
        SystemIdentity {
            priority1,
            quality: ClockQuality::default(),
            priority2: 248,
            identity: ClockIdentity::for_index(idx),
        }
    }

    fn announce(from: &SystemIdentity, steps: u16, src_idx: u32) -> Message {
        Message::Announce {
            header: Header::new(
                MessageType::Announce,
                0,
                PortIdentity::new(ClockIdentity::for_index(src_idx), 1),
                0,
                0,
            ),
            path_trace: vec![from.identity],
            body: AnnounceBody {
                current_utc_offset: 37,
                priority1: from.priority1,
                quality: from.quality,
                priority2: from.priority2,
                gm_identity: from.identity,
                steps_removed: steps,
                time_source: 0xA0,
            },
        }
    }

    const TIMEOUT: Nanos = Nanos::from_secs(3);

    #[test]
    fn alone_we_are_grandmaster() {
        let bmca = Bmca::new(sys(246, 1), vec![1, 2], TIMEOUT);
        let d = bmca.decide();
        assert!(d.is_grandmaster);
        assert_eq!(d.roles[&1], PortRole::Master);
        assert_eq!(d.roles[&2], PortRole::Master);
    }

    #[test]
    fn better_announce_wins_and_sets_slave_port() {
        let mut bmca = Bmca::new(sys(246, 5), vec![1, 2], TIMEOUT);
        let better = sys(100, 2);
        bmca.consider_announce(1, &announce(&better, 0, 2), ClockTime::ZERO);
        let d = bmca.decide();
        assert!(!d.is_grandmaster);
        assert_eq!(d.grandmaster.identity, better.identity);
        assert_eq!(d.slave_port, Some(1));
        assert_eq!(d.roles[&1], PortRole::Slave);
        assert_eq!(d.roles[&2], PortRole::Master);
    }

    #[test]
    fn worse_announce_ignored() {
        let mut bmca = Bmca::new(sys(100, 1), vec![1], TIMEOUT);
        bmca.consider_announce(1, &announce(&sys(200, 2), 0, 2), ClockTime::ZERO);
        assert!(bmca.decide().is_grandmaster);
    }

    #[test]
    fn second_port_hearing_root_goes_passive() {
        let mut bmca = Bmca::new(sys(246, 5), vec![1, 2], TIMEOUT);
        let better = sys(100, 2);
        // Port 1 hears the root directly; port 2 via a longer path.
        bmca.consider_announce(1, &announce(&better, 0, 2), ClockTime::ZERO);
        bmca.consider_announce(2, &announce(&better, 2, 7), ClockTime::ZERO);
        let d = bmca.decide();
        assert_eq!(d.roles[&1], PortRole::Slave);
        assert_eq!(d.roles[&2], PortRole::Passive);
    }

    #[test]
    fn steps_removed_breaks_ties() {
        let mut bmca = Bmca::new(sys(246, 5), vec![1, 2], TIMEOUT);
        let root = sys(100, 2);
        bmca.consider_announce(1, &announce(&root, 3, 8), ClockTime::ZERO);
        bmca.consider_announce(2, &announce(&root, 1, 9), ClockTime::ZERO);
        let d = bmca.decide();
        assert_eq!(d.slave_port, Some(2), "shorter path wins");
    }

    #[test]
    fn announce_timeout_fails_over_to_self() {
        let mut bmca = Bmca::new(sys(246, 5), vec![1], TIMEOUT);
        bmca.consider_announce(1, &announce(&sys(100, 2), 0, 2), ClockTime::ZERO);
        assert!(!bmca.decide().is_grandmaster);
        // GM goes silent: expire 4 s later.
        bmca.expire(ClockTime::from_nanos(4_000_000_000));
        assert!(bmca.decide().is_grandmaster);
    }

    #[test]
    fn own_announce_disqualified() {
        let own = sys(100, 1);
        let mut bmca = Bmca::new(own, vec![1], TIMEOUT);
        // An echo of our own GM identity must not be considered.
        bmca.consider_announce(1, &announce(&own, 1, 3), ClockTime::ZERO);
        let d = bmca.decide();
        assert!(d.is_grandmaster);
    }

    #[test]
    fn looping_announce_discarded_via_path_trace() {
        let own = sys(246, 5);
        let mut bmca = Bmca::new(own, vec![1], TIMEOUT);
        let better = sys(100, 2);
        // The Announce already traversed us: it must be ignored.
        let mut msg = announce(&better, 2, 7);
        if let Message::Announce { path_trace, .. } = &mut msg {
            path_trace.push(own.identity);
        }
        bmca.consider_announce(1, &msg, ClockTime::ZERO);
        assert!(bmca.decide().is_grandmaster, "looping announce accepted");
        // The same Announce without our identity is accepted.
        bmca.consider_announce(1, &announce(&better, 2, 7), ClockTime::ZERO);
        assert!(!bmca.decide().is_grandmaster);
    }

    #[test]
    fn fresh_announce_from_same_source_refreshes_timeout() {
        let mut bmca = Bmca::new(sys(246, 5), vec![1], TIMEOUT);
        let gm = sys(100, 2);
        bmca.consider_announce(1, &announce(&gm, 0, 2), ClockTime::ZERO);
        bmca.consider_announce(
            1,
            &announce(&gm, 0, 2),
            ClockTime::from_nanos(2_500_000_000),
        );
        bmca.expire(ClockTime::from_nanos(4_000_000_000));
        assert!(!bmca.decide().is_grandmaster, "refresh kept the GM alive");
    }

    #[test]
    fn steps_removed_qualification_boundary() {
        // Clause 10.3.10: stepsRemoved >= 255 disqualifies an Announce.
        // 254 is the last qualifying value (the vector stores 255 after
        // the +1 hop to us).
        let mut bmca = Bmca::new(sys(246, 5), vec![1], TIMEOUT);
        bmca.consider_announce(1, &announce(&sys(100, 2), 255, 2), ClockTime::ZERO);
        assert!(bmca.decide().is_grandmaster, "steps_removed=255 accepted");
        bmca.consider_announce(1, &announce(&sys(100, 2), 254, 2), ClockTime::ZERO);
        let d = bmca.decide();
        assert!(!d.is_grandmaster, "steps_removed=254 rejected");
        let er = bmca.er_best.get(&1).expect("recorded");
        assert_eq!(er.vector.steps_removed, 255, "hop increment applied");
    }

    #[test]
    fn same_source_refresh_accepts_worse_vector() {
        // A degraded Announce from the *recorded* source must replace the
        // stale record (the source's state changed); the same degraded
        // vector from a different source must not displace the better one.
        let mut bmca = Bmca::new(sys(246, 5), vec![1], TIMEOUT);
        let good = sys(100, 2);
        bmca.consider_announce(1, &announce(&good, 0, 2), ClockTime::ZERO);
        assert_eq!(bmca.decide().grandmaster.identity, good.identity);

        // Same source (src_idx 2), now advertising a worse GM.
        let degraded = sys(150, 9);
        let mut msg = announce(&degraded, 0, 2);
        if let Message::Announce { header, .. } = &mut msg {
            header.source_port = PortIdentity::new(ClockIdentity::for_index(2), 1);
        }
        bmca.consider_announce(1, &msg, ClockTime::from_nanos(1));
        assert_eq!(
            bmca.decide().grandmaster.identity,
            degraded.identity,
            "same-source refresh must overwrite, not keep the stale best"
        );

        // Reinstate the good record, then offer the worse vector from a
        // *different* source: it must be ignored.
        bmca.consider_announce(1, &announce(&good, 0, 2), ClockTime::from_nanos(2));
        bmca.consider_announce(1, &announce(&degraded, 0, 7), ClockTime::from_nanos(3));
        assert_eq!(
            bmca.decide().grandmaster.identity,
            good.identity,
            "worse vector from a new source displaced the best"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::types::{ClockIdentity, ClockQuality};
    use proptest::prelude::*;

    fn arb_vector() -> impl Strategy<Value = PriorityVector> {
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
            any::<u8>(),
            0u32..8,
            any::<u16>(),
            0u32..8,
            any::<u16>(),
            any::<u16>(),
        )
            .prop_map(
                |(p1, class, acc, var, p2, id, steps, src_id, src_port, rx)| PriorityVector {
                    system: SystemIdentity {
                        priority1: p1,
                        quality: ClockQuality {
                            class,
                            accuracy: acc,
                            variance: var,
                        },
                        priority2: p2,
                        identity: ClockIdentity::for_index(id),
                    },
                    steps_removed: steps,
                    source_port: PortIdentity::new(ClockIdentity::for_index(src_id), src_port),
                    receiving_port: rx,
                },
            )
    }

    proptest! {
        /// The dataset comparison (clause 10.3.5) is a total order:
        /// antisymmetric, transitive, and total, with equality agreeing
        /// with structural equality — `min_by` in `decide` relies on it.
        #[test]
        fn priority_vector_ordering_is_a_total_order(
            a in arb_vector(), b in arb_vector(), c in arb_vector()
        ) {
            use std::cmp::Ordering;
            // Consistency: Ord, PartialOrd, and Eq agree.
            prop_assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
            prop_assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
            // Antisymmetry.
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
            // Transitivity over every ordering of the triple.
            let mut sorted = [a, b, c];
            sorted.sort();
            prop_assert!(sorted[0] <= sorted[1] && sorted[1] <= sorted[2]);
            prop_assert!(sorted[0] <= sorted[2]);
            // Reflexivity / totality.
            prop_assert_eq!(a.cmp(&a), Ordering::Equal);
        }

        /// A strictly better system identity always wins the comparison
        /// regardless of steps/ports (lexicographic dominance).
        #[test]
        fn system_identity_dominates_tiebreaks(
            a in arb_vector(), b in arb_vector()
        ) {
            prop_assume!(a.system.better_than(&b.system));
            prop_assert!(a < b);
        }
    }
}
