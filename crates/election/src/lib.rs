//! # tsn-election
//!
//! Dynamic BMCA grandmaster election for the `clocksync` testbed.
//!
//! The paper runs with *external port configuration*: four statically
//! assigned grandmasters, no BMCA. This crate turns the offline
//! [`Bmca`] (IEEE 802.1AS clause 10.3) into a live, event-loop-driven
//! election subsystem. Per node it owns one [`NodeElection`] covering
//! every gPTP domain: an Announce transmission schedule (acting masters
//! emit at `announce_interval` with their identity in the path trace),
//! receipt-timeout expiry, and a decision step that drives
//! acting-master transitions and GM handoff in the host simulation.
//!
//! The election is initialized to the paper's static assignment (node
//! `d` is the acting master of domain `d`) and self-promotion is gated
//! behind a startup grace of one announce receipt timeout, so a run
//! with election enabled starts from exactly the static topology and
//! only diverges once Announce silence or a better claimant is actually
//! observed. All state implements [`SnapState`] so checkpoint/fork
//! campaigns stay byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tsn_gptp::msg::{AnnounceBody, Header, Message, MessageType};
use tsn_gptp::{log2_interval, Bmca, ClockIdentity, ClockQuality, PortIdentity, SystemIdentity};
use tsn_snapshot::snap_state;
use tsn_time::{ClockTime, Nanos};

/// Configuration of the dynamic election mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionConfig {
    /// Announce transmission interval of acting masters
    /// (802.1AS default: 1 s; the testbed defaults to 250 ms so
    /// failover fits in short runs).
    pub announce_interval: Nanos,
    /// Announce receipt timeout, in intervals (802.1AS default: 3,
    /// range 2–255). Bridges relay one copy of an Announce to each
    /// station (`tsn_gptp::Bridge::receive`), so this is the number of
    /// consecutive losses a claim survives; `tests/bmca_flap.rs` derives
    /// what a lossy network needs.
    pub timeout_intervals: u32,
    /// Scheduled grandmaster kill switch: measured-axis time (after
    /// warm-up) at which [`ElectionConfig::gm_failure_node`]'s GM VM is
    /// permanently shut down, forcing a re-election.
    pub gm_failure_at: Option<Nanos>,
    /// Node whose GM VM the kill switch targets.
    pub gm_failure_node: usize,
}

impl Default for ElectionConfig {
    fn default() -> Self {
        ElectionConfig {
            announce_interval: Nanos::from_millis(250),
            timeout_intervals: 3,
            gm_failure_at: None,
            gm_failure_node: 0,
        }
    }
}

impl ElectionConfig {
    /// The announce receipt timeout (silence after which a master's
    /// claim expires).
    pub fn receipt_timeout(&self) -> Nanos {
        Nanos::from_nanos(self.announce_interval.as_nanos() * i64::from(self.timeout_intervals))
    }

    /// The bound within which a domain must re-elect and resume after
    /// its acting master fails: detection (receipt timeout) plus a few
    /// announce rounds of settling. The convergence oracle enforces it.
    pub fn convergence_bound(&self) -> Nanos {
        self.receipt_timeout() + Nanos::from_nanos(self.announce_interval.as_nanos() * 4)
    }

    /// Panics if the configuration is internally inconsistent.
    pub fn validate(&self, nodes: usize) {
        assert!(
            self.announce_interval > Nanos::ZERO,
            "announce_interval must be positive"
        );
        assert!(
            self.timeout_intervals >= 2,
            "timeout_intervals must be at least 2 (single-loss tolerance)"
        );
        assert!(
            self.gm_failure_node < nodes,
            "gm_failure_node {} out of range for {} nodes",
            self.gm_failure_node,
            nodes
        );
    }
}

/// The deterministic `priority1` of `node` for `domain` among `nodes`
/// systems: the home node (`node == domain`) advertises the best value
/// (100) and each subsequent node in cyclic order is 10 worse, so the
/// configured second-best master of domain `d` is node `(d + 1) % N`.
pub fn priority_for(node: usize, domain: usize, nodes: usize) -> u8 {
    debug_assert!(nodes > 0 && node < nodes && domain < nodes);
    let rank = (node + nodes - domain) % nodes;
    100 + 10 * (rank.min(15) as u8)
}

/// One observable election transition, for tracing and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectionEvent {
    /// This node became the acting master of `domain`.
    Promoted {
        /// Affected domain.
        domain: u8,
    },
    /// This node stopped acting as master of `domain`.
    Demoted {
        /// Affected domain.
        domain: u8,
    },
    /// This node's view of the elected GM of `domain` changed.
    Elected {
        /// Affected domain.
        domain: u8,
        /// Newly elected node.
        node: usize,
        /// Previously elected node.
        prev: usize,
    },
}

/// Per-domain election state of one node.
struct DomainElection {
    domain: u8,
    bmca: Bmca,
    /// `true` while this node is the acting master of the domain.
    acting: bool,
    /// Node currently believed elected (initialized to the static
    /// assignment: domain `d` → node `d`).
    elected: usize,
    /// Rogue-master forged `priority1`, if this domain was captured.
    forged: Option<u8>,
    /// Announce sequence counter.
    announce_seq: u16,
}

snap_state!(DomainElection {
    bmca: state,
    acting,
    elected,
    forged,
    announce_seq,
});

/// The complete election state of one node: a BMCA instance per domain,
/// announce scheduling, and acting-master bookkeeping.
pub struct NodeElection {
    node: usize,
    /// Slot-0 (GM VM) clock identity of every node, indexed by node.
    identities: Vec<ClockIdentity>,
    announce_interval: Nanos,
    receipt_timeout: Nanos,
    domains: Vec<DomainElection>,
    /// Local clock time of the first decision step; self-promotion is
    /// suppressed for one receipt timeout after it so the static prior
    /// holds until real Announce silence is observable.
    armed_at: Option<ClockTime>,
}

impl NodeElection {
    /// Builds the election state of `node`. `identities[n]` must be the
    /// clock identity node `n`'s GM VM announces with.
    pub fn new(node: usize, identities: Vec<ClockIdentity>, cfg: &ElectionConfig) -> Self {
        let n = identities.len();
        assert!(node < n, "node index out of range");
        let domains = (0..n)
            .map(|d| {
                let own = SystemIdentity {
                    priority1: priority_for(node, d, n),
                    quality: ClockQuality::default(),
                    priority2: 248,
                    identity: identities[node],
                };
                DomainElection {
                    domain: d as u8,
                    // Single logical port 1: the VM NIC. Bridges relay an
                    // Announce down its sender's tree to every station,
                    // so one port sees every claimant.
                    bmca: Bmca::new(own, vec![1], cfg.receipt_timeout()),
                    // Static prior: node d acts for domain d.
                    acting: node == d,
                    elected: d,
                    forged: None,
                    announce_seq: 0,
                }
            })
            .collect();
        NodeElection {
            node,
            identities,
            announce_interval: cfg.announce_interval,
            receipt_timeout: cfg.receipt_timeout(),
            domains,
            armed_at: None,
        }
    }

    /// The announce interval this node schedules its election tick at.
    pub fn announce_interval(&self) -> Nanos {
        self.announce_interval
    }

    /// Feeds a received Announce for `domain`. `now` is the local clock
    /// used for receipt-timeout bookkeeping.
    pub fn on_announce(&mut self, domain: u8, msg: &Message, now: ClockTime) {
        if let Some(d) = self.domains.get_mut(domain as usize) {
            d.bmca.consider_announce(1, msg, now);
        }
    }

    /// One election round at local time `now`: expire stale claims, run
    /// the BMCA decision per domain, and apply acting/elected
    /// transitions. Returns the transitions in domain order.
    pub fn step(&mut self, now: ClockTime) -> Vec<ElectionEvent> {
        let grace_over = match self.armed_at {
            Some(t0) => now - t0 >= self.receipt_timeout,
            None => {
                self.armed_at = Some(now);
                false
            }
        };
        let mut events = Vec::new();
        for d in &mut self.domains {
            if grace_over {
                d.bmca.expire(now);
            }
            let decision = d.bmca.decide();
            // Until the grace elapses a decision in our own favour is
            // indistinguishable from "no Announce heard yet": hold the
            // static prior instead of promoting (a genuinely better
            // claimant still demotes us immediately).
            if decision.is_grandmaster && !grace_over && !d.acting {
                continue;
            }
            let winner = if decision.is_grandmaster {
                self.node
            } else {
                self.identities
                    .iter()
                    .position(|id| *id == decision.grandmaster.identity)
                    .unwrap_or(d.elected)
            };
            if decision.is_grandmaster != d.acting {
                d.acting = decision.is_grandmaster;
                events.push(if d.acting {
                    ElectionEvent::Promoted { domain: d.domain }
                } else {
                    ElectionEvent::Demoted { domain: d.domain }
                });
            }
            if winner != d.elected {
                let prev = d.elected;
                d.elected = winner;
                events.push(ElectionEvent::Elected {
                    domain: d.domain,
                    node: winner,
                    prev,
                });
            }
        }
        events
    }

    /// `true` while this node is the acting master of `domain`.
    pub fn acting(&self, domain: u8) -> bool {
        self.domains
            .get(domain as usize)
            .map(|d| d.acting)
            .unwrap_or(false)
    }

    /// Domains this node is currently the acting master of.
    pub fn acting_domains(&self) -> Vec<u8> {
        self.domains
            .iter()
            .filter(|d| d.acting)
            .map(|d| d.domain)
            .collect()
    }

    /// The node this node currently believes is the elected GM of
    /// `domain`.
    pub fn elected_node(&self, domain: u8) -> usize {
        self.domains
            .get(domain as usize)
            .map(|d| d.elected)
            .unwrap_or(domain as usize)
    }

    /// Rogue-master capture: this node starts advertising the forged
    /// `priority1` for `domain` and acts as its master unconditionally.
    pub fn capture(&mut self, domain: u8, forged_priority1: u8) {
        if let Some(d) = self.domains.get_mut(domain as usize) {
            d.forged = Some(forged_priority1);
            d.bmca.set_priority1(forged_priority1);
            d.acting = true;
            d.elected = self.node;
        }
    }

    /// Builds the next Announce this node originates for `domain`
    /// (acting masters only; the caller schedules transmission).
    pub fn make_announce(&mut self, domain: u8) -> Message {
        let identity = self.identities[self.node];
        let n = self.identities.len();
        let d = &mut self.domains[domain as usize];
        let seq = d.announce_seq;
        d.announce_seq = d.announce_seq.wrapping_add(1);
        let priority1 = d
            .forged
            .unwrap_or_else(|| priority_for(self.node, domain as usize, n));
        Message::Announce {
            header: Header::new(
                MessageType::Announce,
                domain,
                PortIdentity::new(identity, 1),
                seq,
                log2_interval(self.announce_interval),
            ),
            path_trace: vec![identity],
            body: AnnounceBody {
                current_utc_offset: 37,
                priority1,
                quality: ClockQuality::default(),
                priority2: 248,
                gm_identity: identity,
                steps_removed: 0,
                time_source: 0xA0,
            },
        }
    }
}

snap_state!(NodeElection {
    armed_at,
    domains: each
});

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_snapshot::{Reader, SnapState, Writer};

    fn identities(n: usize) -> Vec<ClockIdentity> {
        (0..n).map(|i| ClockIdentity::for_index(i as u32)).collect()
    }

    fn cfg() -> ElectionConfig {
        ElectionConfig::default()
    }

    fn ms(v: i64) -> ClockTime {
        ClockTime::from_nanos(v * 1_000_000)
    }

    /// Drives `rx`'s election with announces from `from` for `domain`
    /// at time `now`.
    fn hear(rx: &mut NodeElection, from: &mut NodeElection, domain: u8, now: ClockTime) {
        let msg = from.make_announce(domain);
        rx.on_announce(domain, &msg, now);
    }

    #[test]
    fn priorities_make_home_best_and_successor_second() {
        let n = 4;
        for d in 0..n {
            let mut ranked: Vec<(u8, usize)> = (0..n)
                .map(|node| (priority_for(node, d, n), node))
                .collect();
            ranked.sort();
            assert_eq!(ranked[0], (100, d), "home node is best for its domain");
            assert_eq!(
                ranked[1],
                (110, (d + 1) % n),
                "cyclic successor is second-best"
            );
        }
    }

    #[test]
    fn static_prior_holds_without_traffic_during_grace() {
        let mut e = NodeElection::new(1, identities(4), &cfg());
        assert!(e.acting(1));
        assert!(!e.acting(0));
        // First step arms the grace; no promotion to foreign domains.
        let ev = e.step(ms(0));
        assert!(ev.is_empty());
        let ev = e.step(ms(250));
        assert!(ev.is_empty());
        assert_eq!(e.acting_domains(), vec![1]);
    }

    #[test]
    fn silence_past_grace_promotes_and_better_claimant_demotes() {
        let ids = identities(4);
        let mut e1 = NodeElection::new(1, ids.clone(), &cfg());
        // Domain 0's home GM is silent: after the grace e1 (second-best
        // for domain 0) promotes itself.
        let mut promoted = false;
        for k in 0..8 {
            let ev = e1.step(ms(k * 250));
            promoted |= ev.contains(&ElectionEvent::Promoted { domain: 0 });
        }
        assert!(promoted, "second-best promotes after announce timeout");
        assert!(e1.acting(0));
        assert_eq!(e1.elected_node(0), 1);
        // The home GM comes back: its better vector demotes e1.
        let mut e0 = NodeElection::new(0, ids, &cfg());
        let now = ms(8 * 250);
        hear(&mut e1, &mut e0, 0, now);
        let ev = e1.step(now);
        assert!(ev.contains(&ElectionEvent::Demoted { domain: 0 }));
        assert!(ev.contains(&ElectionEvent::Elected {
            domain: 0,
            node: 0,
            prev: 1
        }));
    }

    #[test]
    fn steady_announces_keep_the_home_master_elected() {
        let ids = identities(2);
        let mut e0 = NodeElection::new(0, ids.clone(), &cfg());
        let mut e1 = NodeElection::new(1, ids, &cfg());
        for k in 0..12 {
            let now = ms(k * 250);
            hear(&mut e1, &mut e0, 0, now);
            hear(&mut e0, &mut e1, 1, now);
            assert!(e0.step(now).is_empty(), "round {k} perturbed node 0");
            assert!(e1.step(now).is_empty(), "round {k} perturbed node 1");
        }
        assert!(e0.acting(0) && !e0.acting(1));
        assert!(e1.acting(1) && !e1.acting(0));
    }

    #[test]
    fn rogue_capture_forges_best_priority_and_wins() {
        let ids = identities(4);
        let mut rogue = NodeElection::new(3, ids.clone(), &cfg());
        rogue.capture(2, 0);
        assert!(rogue.acting(2));
        let msg = rogue.make_announce(2);
        // A victim that currently follows the legitimate home master
        // switches to the rogue: priority1 0 beats 100.
        let mut victim = NodeElection::new(2, ids, &cfg());
        victim.on_announce(2, &msg, ms(0));
        let ev = victim.step(ms(0));
        assert!(ev.contains(&ElectionEvent::Demoted { domain: 2 }));
        assert_eq!(victim.elected_node(2), 3);
    }

    #[test]
    fn snapshot_roundtrip_preserves_election_state() {
        let ids = identities(4);
        let mut e = NodeElection::new(1, ids.clone(), &cfg());
        for k in 0..8 {
            let _ = e.step(ms(k * 250));
        }
        e.capture(3, 0);
        let mut w = Writer::new();
        e.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = NodeElection::new(1, ids, &cfg());
        let mut r = Reader::new(&bytes);
        restored.load_state(&mut r).expect("loads");
        r.finish().expect("consumed");
        let mut w2 = Writer::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "state re-encodes identically");
        assert_eq!(restored.acting_domains(), e.acting_domains());
        assert_eq!(restored.elected_node(0), e.elected_node(0));
    }

    #[test]
    #[should_panic(expected = "gm_failure_node")]
    fn validate_rejects_out_of_range_failure_node() {
        let cfg = ElectionConfig {
            gm_failure_node: 9,
            ..ElectionConfig::default()
        };
        cfg.validate(4);
    }
}
