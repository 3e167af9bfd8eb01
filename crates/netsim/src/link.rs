//! Link crossing: what becomes of a frame between leaving one port and
//! reaching the port at the far end of the cable.
//!
//! [`LinkLayer`] is sans-IO in the style of [`EgressPort`](crate::EgressPort):
//! handed a departure instant, the sending port and the embedding's frame
//! RNG, it answers *arrives at `(to, at)`* or *lost, and why*. It owns the
//! per-port link table, the [`LinkFaults`] state with its RNG stream, the
//! down windows, and the rule that faults act — and draw — only from the
//! end of the warm-up on, so a warm prefix shared by forks never sees them.

use crate::linkfault::{LinkDownWindow, LinkFaultPlan, LinkFaults};
use crate::topology::{DelayModel, LinkId, PortAddr, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use tsn_time::SimTime;

/// Why a frame did not reach the far end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Nothing is plugged into the sending port.
    Unwired,
    /// A link-down window covers the link.
    LinkDown,
    /// A loss model (i.i.d. or burst) drew a drop.
    Dropped,
}

/// The outcome of one [`LinkLayer::cross`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossing {
    /// The frame reaches port `to` at true time `at`.
    Arrives {
        /// The receiving port.
        to: PortAddr,
        /// Arrival instant.
        at: SimTime,
    },
    /// The frame is gone.
    Lost(Loss),
}

/// One direction of a wired port, resolved at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Wire {
    link: LinkId,
    to: PortAddr,
    /// Transmission runs from the link's `a` endpoint to its `b`.
    toward_b: bool,
    delay: DelayModel,
}

/// Every link of a topology, with its fault surface.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLayer {
    /// Indexed `device * stride + port`; `None` for unwired ports.
    wires: Vec<Option<Wire>>,
    /// One past the highest wired port number.
    stride: usize,
    faults: LinkFaults,
    /// Drawn only by the loss models, only from `faults_from` on.
    fault_rng: StdRng,
    /// The plan's down windows plus the embedding's own (a partition).
    windows: Vec<LinkDownWindow>,
    faults_from: SimTime,
}

impl LinkLayer {
    /// Resolves the links of `topo` under `plan`, plus down windows the
    /// embedding derived itself. `fault_rng` feeds the loss models; all
    /// faults are inert before `faults_from` (window times count from it).
    pub fn new(
        topo: &Topology,
        plan: LinkFaultPlan,
        extra_windows: Vec<LinkDownWindow>,
        fault_rng: StdRng,
        faults_from: SimTime,
    ) -> Self {
        let wired = || topo.devices().flat_map(|d| topo.wired_ports(d));
        let devices = topo.devices().count();
        let stride = wired().map(|p| p.port.0 as usize + 1).max().unwrap_or(1);
        let mut wires = vec![None; devices * stride];
        for p in wired() {
            let (link, l) = topo.link_of(p).expect("wired port has a link");
            wires[p.device.0 * stride + p.port.0 as usize] = Some(Wire {
                link,
                to: l.peer_of(p),
                toward_b: p == l.a,
                delay: *l.delay_from(p),
            });
        }
        let mut windows = plan.down.clone();
        windows.extend(extra_windows);
        LinkLayer {
            wires,
            stride,
            faults: LinkFaults::new(plan, topo.links().len()),
            fault_rng,
            windows,
            faults_from,
        }
    }

    /// `(devices, ports per device)` of the flat port index space, for
    /// tables the embedding keeps alongside (egress queues).
    pub fn port_space(&self) -> (usize, usize) {
        (self.wires.len() / self.stride, self.stride)
    }

    /// Every down window, in the order [`LinkLayer::set_window`] indexes.
    pub fn windows(&self) -> &[LinkDownWindow] {
        &self.windows
    }

    /// Opens (`down = true`) or closes down window `i`.
    pub fn set_window(&mut self, i: usize, down: bool) {
        self.faults.set_down(LinkId(self.windows[i].link), down);
    }

    /// Carries a frame that leaves `from` at `t` to the far end of its
    /// link. The propagation delay is one draw from `rng`, made whether
    /// or not a loss model then drops the frame; a link that is down
    /// draws nothing. Serialization time does not enter: hardware
    /// timestamps reference the start-of-frame delimiter on both ends
    /// (IEEE 1588 clause 7.3.4), so it is part of the base latency.
    #[inline]
    pub fn cross<R: Rng + ?Sized>(&mut self, t: SimTime, from: PortAddr, rng: &mut R) -> Crossing {
        let i = from.device.0 * self.stride + from.port.0 as usize;
        let Some(wire) = self.wires.get(i).copied().flatten() else {
            return Crossing::Lost(Loss::Unwired);
        };
        let faults_active = t >= self.faults_from;
        if faults_active && self.faults.is_down(wire.link) {
            return Crossing::Lost(Loss::LinkDown);
        }
        let mut delay = wire.delay.sample(rng);
        if faults_active {
            if self.faults.drops(wire.link, &mut self.fault_rng) {
                return Crossing::Lost(Loss::Dropped);
            }
            delay += self.faults.extra_delay(wire.link, wire.toward_b);
        }
        Crossing::Arrives {
            to: wire.to,
            at: t + delay,
        }
    }
}

tsn_snapshot::snap_state!(LinkLayer {
    faults: state,
    fault_rng,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkfault::AsymmetricDelay;
    use rand::SeedableRng;
    use tsn_time::Nanos;

    const WARMUP: SimTime = SimTime::from_secs(5);

    /// `a —— sw —— b`, 2 µs + up to 100 ns each way.
    fn layer(plan: LinkFaultPlan, extra: Vec<LinkDownWindow>) -> (LinkLayer, PortAddr, PortAddr) {
        let mut topo = Topology::new();
        let a = topo.add_station("a");
        let b = topo.add_station("b");
        let sw = topo.add_bridge("sw");
        let d = DelayModel {
            base: Nanos::from_micros(2),
            jitter_max: Nanos::from_nanos(100),
        };
        topo.connect(topo.port(a, 0), topo.port(sw, 0), d, d);
        topo.connect(topo.port(b, 0), topo.port(sw, 3), d, d);
        let links = LinkLayer::new(&topo, plan, extra, StdRng::seed_from_u64(9), WARMUP);
        (links, topo.port(a, 0), topo.port(sw, 0))
    }

    fn frames() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn a_frame_arrives_at_the_peer_after_the_sampled_delay() {
        let (mut links, a0, sw0) = layer(LinkFaultPlan::none(), Vec::new());
        assert_eq!(links.port_space(), (3, 4));
        let (mut rng, mut twin) = (frames(), frames());
        let t = SimTime::from_secs(1);
        let expected = t + Nanos::from_micros(2) + Nanos::from_nanos(twin.gen_range(0..100i64));
        let to = sw0;
        assert_eq!(
            links.cross(t, a0, &mut rng),
            Crossing::Arrives { to, at: expected }
        );
        // And back the other way, one more draw.
        match links.cross(t, sw0, &mut rng) {
            Crossing::Arrives { to, .. } => assert_eq!(to, a0),
            lost => panic!("{lost:?}"),
        }
        twin.gen_range(0..100i64);
        assert_eq!(rng, twin, "exactly one frame-RNG draw per crossing");
    }

    #[test]
    fn an_unwired_port_loses_the_frame_without_a_draw() {
        let (mut links, _, sw0) = layer(LinkFaultPlan::none(), Vec::new());
        let mut rng = frames();
        let unplugged = PortAddr::new(sw0.device, 1);
        let lost = links.cross(SimTime::from_secs(1), unplugged, &mut rng);
        assert_eq!(lost, Crossing::Lost(Loss::Unwired));
        assert_eq!(rng, frames());
    }

    #[test]
    fn a_down_window_loses_frames_only_after_the_warm_up() {
        let window = LinkDownWindow {
            link: 0,
            from: Nanos::ZERO,
            until: Nanos::from_secs(1),
        };
        // One window from the plan, one from the embedding, same link.
        let plan = LinkFaultPlan {
            down: vec![window],
            ..LinkFaultPlan::none()
        };
        let (mut links, a0, _) = layer(plan, vec![window]);
        assert_eq!(links.windows(), &[window, window]);
        let mut rng = frames();
        let arrives = |c: Crossing| matches!(c, Crossing::Arrives { .. });
        links.set_window(0, true);
        links.set_window(1, true);
        let before = WARMUP - Nanos::from_nanos(1);
        assert!(arrives(links.cross(before, a0, &mut rng)), "gate shut");
        let down = Crossing::Lost(Loss::LinkDown);
        let drawn = rng.clone();
        assert_eq!(links.cross(WARMUP, a0, &mut rng), down);
        // Overlapping windows: down until the last one closes.
        links.set_window(0, false);
        assert_eq!(links.cross(WARMUP, a0, &mut rng), down);
        assert_eq!(rng, drawn, "a dead link samples no delay");
        links.set_window(1, false);
        assert!(arrives(links.cross(WARMUP, a0, &mut rng)));
    }

    #[test]
    fn loss_draws_from_its_own_stream_and_never_before_the_warm_up() {
        let (mut links, a0, _) = layer(LinkFaultPlan::with_loss(0.5), Vec::new());
        let untouched = links.fault_rng.clone();
        let mut rng = frames();
        for k in 0..200 {
            let t = SimTime::ZERO + Nanos::from_millis(k);
            assert!(matches!(
                links.cross(t, a0, &mut rng),
                Crossing::Arrives { .. }
            ));
        }
        assert_eq!(links.fault_rng, untouched, "no draw during the warm-up");
        let mut lost = 0;
        for _ in 0..200 {
            match links.cross(WARMUP, a0, &mut rng) {
                Crossing::Arrives { .. } => {}
                Crossing::Lost(why) => {
                    assert_eq!(why, Loss::Dropped);
                    lost += 1;
                }
            }
        }
        assert!((60..140).contains(&lost), "{lost} of 200 lost at p = 0.5");
        // The delay is sampled before the loss decision: the frame
        // stream advanced once per crossing, lost or not.
        let mut twin = frames();
        for _ in 0..400 {
            twin.gen_range(0..100i64);
        }
        assert_eq!(rng, twin);
    }

    #[test]
    fn asymmetry_is_added_per_direction_after_the_warm_up() {
        let plan = LinkFaultPlan {
            asymmetry: vec![AsymmetricDelay {
                link: 0,
                extra_ab: Nanos::from_micros(7),
                extra_ba: Nanos::ZERO,
            }],
            ..LinkFaultPlan::none()
        };
        let (mut links, a0, sw0) = layer(plan, Vec::new());
        let at = |c: Crossing| match c {
            Crossing::Arrives { at, .. } => at,
            lost => panic!("{lost:?}"),
        };
        let base = |links: &mut LinkLayer, t, from| at(links.cross(t, from, &mut frames())) - t;
        let early = SimTime::from_secs(1);
        assert_eq!(base(&mut links, early, a0), base(&mut links, early, sw0));
        let forward = base(&mut links, WARMUP, a0);
        let reverse = base(&mut links, WARMUP, sw0);
        assert_eq!(forward - reverse, Nanos::from_micros(7));
    }
}
