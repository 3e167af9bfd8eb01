//! Strategic Byzantine grandmaster behaviours.
//!
//! The paper's attacker applies one fixed −24 µs
//! `preciseOriginTimestamp` shift. Jiang et al. (*Resilience Bounds of
//! Network Clock Synchronization with Fault Correction*,
//! arXiv:2006.15832) show that the worst adversary against a
//! fault-corrected sync algorithm is *strategic*: it drifts, duty
//! cycles, hugs the correction boundary, or colludes — a constant shift
//! is the easiest case to mask. This module generalizes the attack into
//! a [`ByzantineStrategy`] the compromised GM evaluates at every Sync
//! transmission from `StrikeOutcome::RootObtained` onward.
//!
//! All waveforms are computed in pure integer arithmetic from the time
//! elapsed since the strike landed, so runs are bit-reproducible across
//! platforms and across cold/forked execution.

use tsn_time::Nanos;

use crate::attacker::PAPER_POT_OFFSET;

/// A time-varying `preciseOriginTimestamp` manipulation policy.
///
/// [`ByzantineStrategy::offset_at`] maps time-since-compromise to the
/// POT shift the malicious `ptp4l` applies. The FTA validity threshold
/// is passed in so boundary-hugging strategies can position themselves
/// relative to the aggregator's drop boundary (paper §II trim).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzantineStrategy {
    /// The paper's fixed shift (−24 µs as the canonical point).
    ConstantOffset {
        /// The applied POT shift.
        offset: Nanos,
    },
    /// A slow drift: `slope_per_s` of additional shift per elapsed
    /// second, emulating a masquerading oscillator-drift fault.
    LinearRamp {
        /// Shift accumulated per second of compromise.
        slope_per_s: Nanos,
    },
    /// A triangle wave of the given amplitude and period, probing the
    /// servo's transient response rather than its steady state.
    Oscillating {
        /// Peak shift (the wave spans `[-amplitude, +amplitude]`).
        amplitude: Nanos,
        /// Full wave period.
        period: Nanos,
    },
    /// Duty-cycled: `offset` for `on`, benign for `off`, repeating —
    /// defeats detectors that require persistent misbehaviour.
    Intermittent {
        /// Shift applied during the active phase.
        offset: Nanos,
        /// Active-phase duration.
        on: Nanos,
        /// Benign-phase duration.
        off: Nanos,
    },
    /// Hug the FTA drop boundary from inside: shift by
    /// `validity_threshold − margin` so the offset stays *valid* (never
    /// trimmed as an outlier by the median-distance check) while pulling
    /// the average as hard as possible.
    TrimEdge {
        /// Safety margin kept below the validity threshold.
        margin: Nanos,
    },
    /// Colluding pair member: steer toward a shared target offset so
    /// multiple compromised GMs present a consistent false timescale.
    Colluding {
        /// The target offset shared by all colluders.
        target: Nanos,
    },
    /// Rogue master (election mode only): the compromised node forges a
    /// best-possible BMCA priority vector on a *foreign* domain, wins
    /// its election, and serves time shifted by `offset` — the classic
    /// Announce-spoofing attack that external port configuration is
    /// immune to and that FTA must contain once election is dynamic.
    RogueMaster {
        /// POT shift served on the captured domain.
        offset: Nanos,
    },
}

impl ByzantineStrategy {
    /// The paper's attack expressed as a strategy.
    pub fn paper_constant() -> Self {
        ByzantineStrategy::ConstantOffset {
            offset: PAPER_POT_OFFSET,
        }
    }

    /// Stable kebab-case name used for campaign axes and labels.
    pub fn name(&self) -> &'static str {
        match self {
            ByzantineStrategy::ConstantOffset { .. } => "constant",
            ByzantineStrategy::LinearRamp { .. } => "ramp",
            ByzantineStrategy::Oscillating { .. } => "oscillating",
            ByzantineStrategy::Intermittent { .. } => "intermittent",
            ByzantineStrategy::TrimEdge { .. } => "trim-edge",
            ByzantineStrategy::Colluding { .. } => "colluding",
            ByzantineStrategy::RogueMaster { .. } => "rogue-master",
        }
    }

    /// The canonical preset behind a campaign-axis name, or `None` for
    /// an unknown name. Parameters are chosen so every preset is a
    /// serious adversary at the paper's operating point (15 µs validity
    /// threshold, 125 ms sync interval).
    pub fn named(name: &str) -> Option<Self> {
        Some(match name {
            "constant" => ByzantineStrategy::paper_constant(),
            "ramp" => ByzantineStrategy::LinearRamp {
                slope_per_s: Nanos::from_micros(2),
            },
            "oscillating" => ByzantineStrategy::Oscillating {
                amplitude: Nanos::from_micros(24),
                period: Nanos::from_secs(10),
            },
            "intermittent" => ByzantineStrategy::Intermittent {
                offset: PAPER_POT_OFFSET,
                on: Nanos::from_secs(5),
                off: Nanos::from_secs(5),
            },
            "trim-edge" => ByzantineStrategy::TrimEdge {
                margin: Nanos::from_micros(1),
            },
            "colluding" => ByzantineStrategy::Colluding {
                target: Nanos::from_micros(14),
            },
            "rogue-master" => ByzantineStrategy::RogueMaster {
                offset: PAPER_POT_OFFSET,
            },
            _ => return None,
        })
    }

    /// The named preset with its dominant magnitude parameter replaced:
    /// the peak POT shift the adversary commands, as a positive
    /// distance-from-truth. This is the knob the resilience-frontier
    /// search bisects — each strategy maps the magnitude onto its own
    /// waveform parameter, keeping the preset's shape (period, duty
    /// cycle, sign convention) fixed:
    ///
    /// * `constant` / `intermittent` / `rogue-master` — `offset = −m`
    ///   (the paper's shift is negative);
    /// * `ramp` — `slope_per_s = m` (shift after 1 s of compromise);
    /// * `oscillating` — `amplitude = m` (preset 10 s period);
    /// * `colluding` — `target = m` (the colluders' shared timescale);
    /// * `trim-edge` — `margin = m` (distance kept *below* the validity
    ///   threshold, so larger magnitudes are *weaker* attacks — the only
    ///   inverted axis, noted because a frontier search must still
    ///   bracket it deterministically).
    ///
    /// Returns `None` for an unknown name, mirroring
    /// [`ByzantineStrategy::named`].
    pub fn with_magnitude(name: &str, magnitude: Nanos) -> Option<Self> {
        Some(match name {
            "constant" => ByzantineStrategy::ConstantOffset { offset: -magnitude },
            "ramp" => ByzantineStrategy::LinearRamp {
                slope_per_s: magnitude,
            },
            "oscillating" => ByzantineStrategy::Oscillating {
                amplitude: magnitude,
                period: Nanos::from_secs(10),
            },
            "intermittent" => ByzantineStrategy::Intermittent {
                offset: -magnitude,
                on: Nanos::from_secs(5),
                off: Nanos::from_secs(5),
            },
            "trim-edge" => ByzantineStrategy::TrimEdge { margin: magnitude },
            "colluding" => ByzantineStrategy::Colluding { target: magnitude },
            "rogue-master" => ByzantineStrategy::RogueMaster { offset: -magnitude },
            _ => return None,
        })
    }

    /// Names accepted by [`ByzantineStrategy::named`], in a stable order.
    pub const NAMES: [&'static str; 7] = [
        "constant",
        "ramp",
        "oscillating",
        "intermittent",
        "trim-edge",
        "colluding",
        "rogue-master",
    ];

    /// The POT shift `elapsed` after the strike landed.
    ///
    /// `validity_threshold` is the aggregator's median-distance drop
    /// boundary (paper: 15 µs); only [`ByzantineStrategy::TrimEdge`]
    /// consults it.
    pub fn offset_at(&self, elapsed: Nanos, validity_threshold: Nanos) -> Nanos {
        match *self {
            ByzantineStrategy::ConstantOffset { offset } => offset,
            ByzantineStrategy::LinearRamp { slope_per_s } => {
                let ns = i128::from(slope_per_s.as_nanos()) * i128::from(elapsed.as_nanos())
                    / 1_000_000_000;
                Nanos::from_nanos(clamp_i128(ns))
            }
            ByzantineStrategy::Oscillating { amplitude, period } => {
                triangle(elapsed, amplitude, period)
            }
            ByzantineStrategy::Intermittent { offset, on, off } => {
                let cycle = (on + off).as_nanos().max(1);
                let phase = elapsed.as_nanos().rem_euclid(cycle);
                if phase < on.as_nanos() {
                    offset
                } else {
                    Nanos::ZERO
                }
            }
            ByzantineStrategy::TrimEdge { margin } => validity_threshold - margin,
            ByzantineStrategy::Colluding { target } => target,
            ByzantineStrategy::RogueMaster { offset } => offset,
        }
    }
}

fn clamp_i128(v: i128) -> i64 {
    v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

/// Triangle wave through 0, peaking at `+amplitude` a quarter period in
/// and `−amplitude` three quarters in. Integer math throughout.
fn triangle(elapsed: Nanos, amplitude: Nanos, period: Nanos) -> Nanos {
    let a = i128::from(amplitude.as_nanos());
    let q = i128::from(period.as_nanos()) / 4;
    if q == 0 {
        return amplitude;
    }
    let x = i128::from(elapsed.as_nanos()).rem_euclid(4 * q);
    let y = if x < q {
        a * x / q
    } else if x < 3 * q {
        a - a * (x - q) / q
    } else {
        -a + a * (x - 3 * q) / q
    };
    Nanos::from_nanos(clamp_i128(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALIDITY: Nanos = Nanos::from_micros(15);

    #[test]
    fn constant_matches_paper_attack() {
        let s = ByzantineStrategy::paper_constant();
        for secs in [0i64, 1, 100, 3600] {
            assert_eq!(
                s.offset_at(Nanos::from_secs(secs), VALIDITY),
                PAPER_POT_OFFSET
            );
        }
    }

    #[test]
    fn ramp_is_linear_in_elapsed_time() {
        let s = ByzantineStrategy::LinearRamp {
            slope_per_s: Nanos::from_micros(2),
        };
        assert_eq!(s.offset_at(Nanos::ZERO, VALIDITY), Nanos::ZERO);
        assert_eq!(
            s.offset_at(Nanos::from_secs(5), VALIDITY),
            Nanos::from_micros(10)
        );
        assert_eq!(
            s.offset_at(Nanos::from_secs(10), VALIDITY),
            Nanos::from_micros(20)
        );
    }

    #[test]
    fn oscillation_is_bounded_and_periodic() {
        let amp = Nanos::from_micros(24);
        let period = Nanos::from_secs(10);
        let s = ByzantineStrategy::Oscillating {
            amplitude: amp,
            period,
        };
        for ms in (0..40_000i64).step_by(53) {
            let v = s.offset_at(Nanos::from_millis(ms), VALIDITY);
            assert!(v.abs() <= amp, "{v:?} exceeds amplitude at {ms} ms");
            let w = s.offset_at(Nanos::from_millis(ms) + period, VALIDITY);
            assert_eq!(v, w, "not periodic at {ms} ms");
        }
        // Quarter-period peaks.
        assert_eq!(s.offset_at(Nanos::from_millis(2_500), VALIDITY), amp);
        assert_eq!(s.offset_at(Nanos::from_millis(7_500), VALIDITY), -amp);
        assert_eq!(s.offset_at(Nanos::ZERO, VALIDITY), Nanos::ZERO);
    }

    #[test]
    fn intermittent_duty_cycles() {
        let s = ByzantineStrategy::Intermittent {
            offset: PAPER_POT_OFFSET,
            on: Nanos::from_secs(5),
            off: Nanos::from_secs(5),
        };
        assert_eq!(s.offset_at(Nanos::from_secs(1), VALIDITY), PAPER_POT_OFFSET);
        assert_eq!(s.offset_at(Nanos::from_secs(6), VALIDITY), Nanos::ZERO);
        assert_eq!(
            s.offset_at(Nanos::from_secs(11), VALIDITY),
            PAPER_POT_OFFSET
        );
    }

    #[test]
    fn trim_edge_stays_inside_validity_window() {
        let s = ByzantineStrategy::TrimEdge {
            margin: Nanos::from_micros(1),
        };
        let v = s.offset_at(Nanos::from_secs(7), VALIDITY);
        assert_eq!(v, Nanos::from_micros(14));
        assert!(v < VALIDITY);
    }

    #[test]
    fn named_presets_cover_all_variants() {
        let mut seen = Vec::new();
        for n in ByzantineStrategy::NAMES {
            let s = ByzantineStrategy::named(n).expect("preset exists");
            assert_eq!(s.name(), n);
            seen.push(std::mem::discriminant(&s));
        }
        seen.dedup();
        assert_eq!(seen.len(), 7, "each name maps to a distinct variant");
        assert_eq!(ByzantineStrategy::named("nope"), None);
    }

    #[test]
    fn with_magnitude_covers_all_variants_and_scales_the_shift() {
        let m = Nanos::from_micros(30);
        for n in ByzantineStrategy::NAMES {
            let s = ByzantineStrategy::with_magnitude(n, m).expect("known name");
            assert_eq!(s.name(), n, "magnitude override changed the variant");
        }
        assert_eq!(ByzantineStrategy::with_magnitude("nope", m), None);

        // The commanded peak shift equals the magnitude for the
        // offset-like strategies (sign per preset convention).
        let c = ByzantineStrategy::with_magnitude("constant", m).unwrap();
        assert_eq!(c.offset_at(Nanos::from_secs(3), VALIDITY), -m);
        let col = ByzantineStrategy::with_magnitude("colluding", m).unwrap();
        assert_eq!(col.offset_at(Nanos::from_secs(3), VALIDITY), m);
        let r = ByzantineStrategy::with_magnitude("ramp", m).unwrap();
        assert_eq!(r.offset_at(Nanos::from_secs(1), VALIDITY), m);
        let o = ByzantineStrategy::with_magnitude("oscillating", m).unwrap();
        assert_eq!(o.offset_at(Nanos::from_millis(2_500), VALIDITY), m);
        // trim-edge is the inverted axis: magnitude is the safety margin.
        let t = ByzantineStrategy::with_magnitude("trim-edge", Nanos::from_micros(2)).unwrap();
        assert_eq!(
            t.offset_at(Nanos::from_secs(3), VALIDITY),
            Nanos::from_micros(13)
        );
    }
}
