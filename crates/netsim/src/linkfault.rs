//! Link fault models: loss, burst loss, asymmetry, and down windows.
//!
//! PTP simulation studies (Wallner, *Simulation of the IEEE 1588 PTP in
//! OMNeT++*, arXiv:1609.06771) stress that link asymmetry and frame
//! loss — not oscillator noise — dominate real-world degradation of
//! time transfer. This module adds that fault surface to the otherwise
//! ideal links of [`Topology`](crate::Topology):
//!
//! * per-link i.i.d. frame loss, optionally layered with a two-state
//!   Gilbert–Elliott burst-loss process;
//! * asymmetric extra one-way delay (breaks the symmetric-path
//!   assumption behind the peer-delay mechanism);
//! * timed link-down windows, the building block for network
//!   partitions.
//!
//! The plan ([`LinkFaultPlan`]) is pure configuration; the runtime
//! state ([`LinkFaults`]) is owned by the [`LinkLayer`](crate::LinkLayer),
//! which draws from a dedicated RNG stream **only while a fault model is
//! active** and never before the warm-up ends, so that enabling the plan
//! cannot perturb the warm prefix shared with fault-free runs
//! (fork-based campaign execution stays byte-identical).

use crate::topology::LinkId;
use rand::Rng;
use tsn_snapshot::{Reader, Snap, SnapError, SnapState, Writer};
use tsn_time::Nanos;

/// Two-state Gilbert–Elliott burst-loss process layered on top of the
/// i.i.d. loss floor: each frame crossing advances the chain, and while
/// the chain is in its burst state frames are lost with `p_loss`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Per-crossing probability of entering the burst state.
    pub p_enter: f64,
    /// Per-crossing probability of leaving the burst state.
    pub p_exit: f64,
    /// Loss probability while in the burst state.
    pub p_loss: f64,
}

/// A timed window during which one link drops every frame.
///
/// Times are relative to the end of the warm-up (the convention of
/// `FaultSchedule`), so fault-free warm prefixes stay shareable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDownWindow {
    /// Index of the affected link ([`LinkId`]).
    pub link: usize,
    /// Window start, relative to warm-up end.
    pub from: Nanos,
    /// Window end (exclusive), relative to warm-up end.
    pub until: Nanos,
}

/// Constant extra one-way delay on one link, making its forward and
/// reverse paths asymmetric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymmetricDelay {
    /// Index of the affected link ([`LinkId`]).
    pub link: usize,
    /// Extra delay in the `a → b` direction.
    pub extra_ab: Nanos,
    /// Extra delay in the `b → a` direction.
    pub extra_ba: Nanos,
}

/// The complete link-fault configuration of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultPlan {
    /// i.i.d. per-crossing loss probability applied to every link.
    pub loss: f64,
    /// Optional burst-loss process applied to every link.
    pub burst: Option<BurstLoss>,
    /// Per-link asymmetric delay injections.
    pub asymmetry: Vec<AsymmetricDelay>,
    /// Timed link-down windows.
    pub down: Vec<LinkDownWindow>,
}

impl LinkFaultPlan {
    /// No link faults.
    pub fn none() -> Self {
        LinkFaultPlan {
            loss: 0.0,
            burst: None,
            asymmetry: Vec::new(),
            down: Vec::new(),
        }
    }

    /// A plan with only i.i.d. loss.
    pub fn with_loss(loss: f64) -> Self {
        LinkFaultPlan {
            loss,
            ..LinkFaultPlan::none()
        }
    }

    /// `true` when any probabilistic model (i.i.d. or burst loss) is
    /// configured — i.e. whether frame crossings consume randomness.
    pub fn draws_randomness(&self) -> bool {
        self.loss > 0.0 || self.burst.is_some()
    }

    /// Validates probabilities and windows.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, p: f64| -> Result<(), String> {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{name} probability {p} outside [0, 1]"))
            }
        };
        if !(0.0..1.0).contains(&self.loss) {
            return Err(format!(
                "loss probability {} outside [0, 1) (a loss of 1.0 would sever every link)",
                self.loss
            ));
        }
        if let Some(b) = &self.burst {
            prob("burst enter", b.p_enter)?;
            prob("burst exit", b.p_exit)?;
            prob("burst loss", b.p_loss)?;
        }
        for w in &self.down {
            if w.until <= w.from {
                return Err(format!(
                    "down window on link {} is empty ({:?} >= {:?})",
                    w.link, w.from, w.until
                ));
            }
        }
        for a in &self.asymmetry {
            if a.extra_ab < Nanos::ZERO || a.extra_ba < Nanos::ZERO {
                return Err(format!("negative extra delay on link {}", a.link));
            }
        }
        Ok(())
    }
}

/// Runtime link-fault state, owned by the [`LinkLayer`](crate::LinkLayer).
///
/// The embedding toggles down windows (the experiment world schedules
/// them as control events so forked continuations re-arm them); the
/// layer passes its dedicated link-fault RNG stream into
/// [`LinkFaults::drops`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    plan: LinkFaultPlan,
    /// Per-link down counters (windows may overlap; a link is down
    /// while its counter is positive).
    down: Vec<u32>,
    /// Per-link Gilbert–Elliott state: `true` while in the burst state.
    in_burst: Vec<bool>,
}

impl LinkFaults {
    /// Creates runtime state for `links` links under `plan`.
    pub fn new(plan: LinkFaultPlan, links: usize) -> Self {
        LinkFaults {
            plan,
            down: vec![0; links],
            in_burst: vec![false; links],
        }
    }

    /// Applies one endpoint of a down window.
    pub fn set_down(&mut self, link: LinkId, down: bool) {
        let c = &mut self.down[link.0];
        if down {
            *c += 1;
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// `true` while at least one down window covers the link.
    pub fn is_down(&self, link: LinkId) -> bool {
        self.down[link.0] > 0
    }

    /// Decides whether a frame crossing `link` is lost, advancing the
    /// burst chain. Draws from `rng` only when a probabilistic loss
    /// model is configured.
    pub fn drops<R: Rng + ?Sized>(&mut self, link: LinkId, rng: &mut R) -> bool {
        if !self.plan.draws_randomness() {
            return false;
        }
        let mut p = self.plan.loss;
        if let Some(b) = self.plan.burst {
            let in_burst = self.in_burst[link.0];
            let flips = if in_burst {
                rng.gen::<f64>() < b.p_exit
            } else {
                rng.gen::<f64>() < b.p_enter
            };
            let now_burst = in_burst != flips;
            self.in_burst[link.0] = now_burst;
            if now_burst {
                p = p.max(b.p_loss);
            }
        }
        p > 0.0 && rng.gen::<f64>() < p
    }

    /// Extra one-way delay for traffic leaving the link's `a` endpoint
    /// (`toward_b = true`) or its `b` endpoint.
    pub fn extra_delay(&self, link: LinkId, toward_b: bool) -> Nanos {
        let mut extra = Nanos::ZERO;
        for a in &self.plan.asymmetry {
            if a.link == link.0 {
                extra += if toward_b { a.extra_ab } else { a.extra_ba };
            }
        }
        extra
    }
}

// Hand-written: the per-link vector lengths are configuration and checked.
impl SnapState for LinkFaults {
    fn save_state(&self, w: &mut Writer) {
        self.down.put(w);
        self.in_burst.put(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let down: Vec<u32> = Snap::get(r)?;
        let in_burst: Vec<bool> = Snap::get(r)?;
        if down.len() != self.down.len() || in_burst.len() != self.in_burst.len() {
            return Err(SnapError::Malformed("link fault vector length"));
        }
        self.down = down;
        self.in_burst = in_burst;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noop_plan_never_draws_or_drops() {
        let mut faults = LinkFaults::new(LinkFaultPlan::none(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut witness = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!faults.drops(LinkId(0), &mut rng));
        }
        // The stream was never advanced.
        assert_eq!(rng.gen::<u64>(), witness.gen::<u64>());
    }

    #[test]
    fn iid_loss_rate_is_respected() {
        let mut faults = LinkFaults::new(LinkFaultPlan::with_loss(0.25), 1);
        let mut rng = StdRng::seed_from_u64(7);
        let lost = (0..10_000)
            .filter(|_| faults.drops(LinkId(0), &mut rng))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn burst_loss_clusters() {
        let plan = LinkFaultPlan {
            loss: 0.0,
            burst: Some(BurstLoss {
                p_enter: 0.02,
                p_exit: 0.2,
                p_loss: 0.9,
            }),
            asymmetry: Vec::new(),
            down: Vec::new(),
        };
        let mut faults = LinkFaults::new(plan, 1);
        let mut rng = StdRng::seed_from_u64(11);
        let outcomes: Vec<bool> = (0..20_000)
            .map(|_| faults.drops(LinkId(0), &mut rng))
            .collect();
        let lost = outcomes.iter().filter(|&&l| l).count();
        assert!(lost > 0, "burst model never lost a frame");
        // Burstiness: the probability a loss is followed by another loss
        // far exceeds the marginal loss rate.
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let repeats = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let conditional = repeats as f64 / pairs as f64;
        let marginal = lost as f64 / outcomes.len() as f64;
        assert!(
            conditional > 2.0 * marginal,
            "losses not clustered: P(loss|loss)={conditional:.3} vs P(loss)={marginal:.3}"
        );
    }

    #[test]
    fn down_windows_nest() {
        let mut faults = LinkFaults::new(LinkFaultPlan::none(), 2);
        assert!(!faults.is_down(LinkId(0)));
        faults.set_down(LinkId(0), true);
        faults.set_down(LinkId(0), true); // overlapping second window
        assert!(faults.is_down(LinkId(0)));
        faults.set_down(LinkId(0), false);
        assert!(faults.is_down(LinkId(0)), "outer window still open");
        faults.set_down(LinkId(0), false);
        assert!(!faults.is_down(LinkId(0)));
        assert!(!faults.is_down(LinkId(1)));
    }

    #[test]
    fn asymmetric_delay_is_directional() {
        let plan = LinkFaultPlan {
            loss: 0.0,
            burst: None,
            asymmetry: vec![AsymmetricDelay {
                link: 1,
                extra_ab: Nanos::from_micros(50),
                extra_ba: Nanos::ZERO,
            }],
            down: Vec::new(),
        };
        let faults = LinkFaults::new(plan, 3);
        assert_eq!(faults.extra_delay(LinkId(1), true), Nanos::from_micros(50));
        assert_eq!(faults.extra_delay(LinkId(1), false), Nanos::ZERO);
        assert_eq!(faults.extra_delay(LinkId(0), true), Nanos::ZERO);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(LinkFaultPlan::with_loss(0.1).validate().is_ok());
        assert!(LinkFaultPlan::with_loss(-0.1).validate().is_err());
        assert!(LinkFaultPlan::with_loss(1.0).validate().is_err());
        let empty_window = LinkFaultPlan {
            down: vec![LinkDownWindow {
                link: 0,
                from: Nanos::from_secs(2),
                until: Nanos::from_secs(2),
            }],
            ..LinkFaultPlan::none()
        };
        assert!(empty_window.validate().is_err());
        let negative_asym = LinkFaultPlan {
            asymmetry: vec![AsymmetricDelay {
                link: 0,
                extra_ab: Nanos::from_nanos(-5),
                extra_ba: Nanos::ZERO,
            }],
            ..LinkFaultPlan::none()
        };
        assert!(negative_asym.validate().is_err());
    }

    #[test]
    fn snap_state_roundtrip() {
        let mut faults = LinkFaults::new(LinkFaultPlan::with_loss(0.5), 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..17 {
            faults.drops(LinkId(1), &mut rng);
        }
        faults.set_down(LinkId(0), true);
        let mut w = Writer::new();
        faults.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = LinkFaults::new(LinkFaultPlan::with_loss(0.5), 2);
        restored.load_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored, faults);

        // Length mismatch is rejected.
        let mut wrong = LinkFaults::new(LinkFaultPlan::none(), 5);
        assert!(wrong.load_state(&mut Reader::new(&bytes)).is_err());
    }
}
