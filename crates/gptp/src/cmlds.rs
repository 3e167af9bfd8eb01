//! Common Mean Link Delay Service (IEEE 802.1AS-2020 clause 16.6).
//!
//! When multiple gPTP domains share a port, running one peer-delay
//! exchange per domain would waste bandwidth and measure the same wire
//! repeatedly. CMLDS runs the peer-delay mechanism *once* per link —
//! using `majorSdoId = 2` and the CMLDS link-port identity — and every
//! domain's port reads the shared `meanLinkDelay` and
//! `neighborRateRatio` from it.
//!
//! This is exactly what the paper's multi-domain setup needs: its `M`
//! `ptp4l` instances on one NIC share the link measurement. The
//! experiment world wires one [`LinkDelayService`] per port and hands
//! out read-only views to the per-domain machinery.

use crate::msg::Message;
use crate::pdelay::{LinkDelaySample, PdelayInitiator, PdelayResponder, RespContext};
use crate::types::PortIdentity;
use tsn_time::{ClockTime, Nanos};

/// The shared per-link delay measurement service.
///
/// Wraps one peer-delay initiator/responder pair and exposes the
/// measured link state to any number of domain instances.
#[derive(Debug, Clone)]
pub struct LinkDelayService {
    initiator: PdelayInitiator,
    responder: PdelayResponder,
    /// Completed measurement rounds.
    pub rounds: u64,
}

/// A read-only snapshot of the link state CMLDS publishes to the
/// per-domain ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkState {
    /// Filtered mean link delay (`None` until the first round completes).
    pub mean_link_delay: Option<Nanos>,
    /// Neighbor rate ratio estimate.
    pub neighbor_rate_ratio: f64,
}

/// Link delay assumed before the first peer-delay exchange completes.
const DEFAULT_LINK_DELAY: Nanos = Nanos::from_nanos(2_000);

impl LinkState {
    /// The mean link delay to correct with: the measured value, or a
    /// 2 µs assumption until the first measurement round completes.
    pub fn delay(&self) -> Nanos {
        self.mean_link_delay.unwrap_or(DEFAULT_LINK_DELAY)
    }
}

impl LinkDelayService {
    /// Creates the service for the given CMLDS link-port identity.
    pub fn new(port: PortIdentity) -> Self {
        LinkDelayService {
            initiator: PdelayInitiator::new(port),
            responder: PdelayResponder::new(port),
            rounds: 0,
        }
    }

    /// Current link state, shared by all domains on this port.
    pub fn link_state(&self) -> LinkState {
        LinkState {
            mean_link_delay: self.initiator.mean_link_delay(),
            neighbor_rate_ratio: self.initiator.neighbor_rate_ratio(),
        }
    }

    /// Starts a measurement round; transmit the bytes as an event
    /// message and report its egress timestamp via
    /// [`LinkDelayService::request_sent`].
    pub fn make_request(&mut self) -> (Box<[u8]>, u16) {
        self.initiator.make_request()
    }

    /// Reports the egress timestamp of request `seq`.
    pub fn request_sent(&mut self, seq: u16, t1: ClockTime) {
        self.initiator.request_sent(seq, t1);
    }

    /// Handles any received pdelay message (`Pdelay_Req` from the peer,
    /// or responses to our own requests). Returns a response context to
    /// transmit (for requests) — its egress timestamp goes to
    /// [`LinkDelayService::make_resp_follow_up`].
    pub fn handle(&mut self, msg: &Message, rx_ts: ClockTime) -> Option<RespContext> {
        match msg {
            Message::PdelayReq { .. } => self.responder.handle_request(msg, rx_ts),
            Message::PdelayResp { .. } => {
                self.initiator.handle_resp(msg, rx_ts);
                None
            }
            Message::PdelayRespFollowUp { .. } => {
                if self.complete(msg).is_some() {
                    self.rounds += 1;
                }
                None
            }
            _ => None,
        }
    }

    fn complete(&mut self, msg: &Message) -> Option<LinkDelaySample> {
        self.initiator.handle_resp_follow_up(msg)
    }

    /// Builds the `Pdelay_Resp_Follow_Up` once the responder's egress
    /// timestamp `t3` is known.
    pub fn make_resp_follow_up(
        &self,
        seq: u16,
        requesting_port: PortIdentity,
        t3: ClockTime,
    ) -> Box<[u8]> {
        self.responder.make_resp_follow_up(seq, requesting_port, t3)
    }
}

tsn_snapshot::snap_state!(LinkDelayService {
    initiator: state,
    rounds,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClockIdentity;

    fn pid(i: u32) -> PortIdentity {
        PortIdentity::new(ClockIdentity::for_index(i), 1)
    }

    /// Two services on opposite ends of a 2.5 µs link; both ends run
    /// measurement rounds and multiple "domains" read the same state.
    #[test]
    fn shared_measurement_across_domains() {
        let mut a = LinkDelayService::new(pid(1));
        let mut b = LinkDelayService::new(pid(2));
        let delay = 2_500i64;
        let mut now = 1_000_000_000i64;
        for _ in 0..5 {
            // A measures toward B.
            let (req, seq) = a.make_request();
            a.request_sent(seq, ClockTime::from_nanos(now));
            let req = Message::decode(&req).unwrap();
            let t2 = ClockTime::from_nanos(now + delay);
            let ctx = b.handle(&req, t2).expect("responder replies");
            let t3 = t2 + Nanos::from_micros(80);
            let t4 = ClockTime::from_nanos(now + delay + 80_000 + delay);
            let resp = Message::decode(&ctx.resp).unwrap();
            assert!(a.handle(&resp, t4).is_none());
            let fu = b.make_resp_follow_up(ctx.seq, ctx.requesting_port, t3);
            let fu = Message::decode(&fu).unwrap();
            a.handle(&fu, t4);
            now += 1_000_000_000;
        }
        assert_eq!(a.rounds, 5);
        // Every domain instance sees the same link state.
        let d1 = a.link_state();
        let d2 = a.link_state();
        assert_eq!(d1, d2);
        let mld = d1.mean_link_delay.expect("measured").as_nanos();
        assert!((mld - delay).abs() <= 1, "link delay {mld}");
    }

    #[test]
    fn unmeasured_link_has_no_delay() {
        let s = LinkDelayService::new(pid(9));
        let state = s.link_state();
        assert_eq!(state.mean_link_delay, None);
        assert_eq!(state.neighbor_rate_ratio, 1.0);
    }

    #[test]
    fn non_pdelay_messages_ignored() {
        let mut s = LinkDelayService::new(pid(1));
        let sync = Message::Sync {
            header: crate::msg::Header::new(crate::msg::MessageType::Sync, 0, pid(3), 0, -3),
            origin: crate::types::PtpTimestamp::default(),
        };
        assert!(s.handle(&sync, ClockTime::ZERO).is_none());
        assert_eq!(s.rounds, 0);
    }
}
