//! Peer-to-peer delay mechanism (IEEE 802.1AS clause 11.2.19).
//!
//! Each full-duplex link runs an independent delay measurement: the
//! initiator sends `Pdelay_Req` (t1), the responder timestamps its
//! reception (t2) and reply transmission (t3), and the initiator
//! timestamps the reply's arrival (t4). The mean link delay is
//!
//! ```text
//! D = (r · (t4 − t1) − (t3 − t2)) / 2
//! ```
//!
//! with `r` the *neighbor rate ratio* estimated from consecutive
//! (t3, t4) pairs. The measurement is shared by all gPTP domains on the
//! link, like 802.1AS-2020's Common Mean Link Delay Service (CMLDS) —
//! which is how multi-domain operation avoids M parallel pdelay streams.

use crate::msg::{Header, Message, MessageType};
use crate::types::{PortIdentity, PtpTimestamp};
use tsn_time::{round_to_i64, ClockTime, Nanos};

/// Default EMA weight for the mean link delay filter.
const DELAY_FILTER_WEIGHT: f64 = 0.25;
/// Default EMA weight for the neighbor rate ratio filter.
const NRR_FILTER_WEIGHT: f64 = 0.1;
/// Neighbor rate ratio sanity clamp (±200 ppm), per 802.1AS conformance.
const NRR_CLAMP: f64 = 200e-6;

/// A completed link-delay measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDelaySample {
    /// Filtered mean link delay.
    pub mean_link_delay: Nanos,
    /// Raw (unfiltered) delay of this exchange.
    pub raw_delay: Nanos,
    /// Filtered neighbor rate ratio.
    pub neighbor_rate_ratio: f64,
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    seq: u16,
    t1: ClockTime,
}

#[derive(Debug, Clone, Copy)]
struct AwaitingFollowUp {
    seq: u16,
    t1: ClockTime,
    t2: ClockTime,
    t4: ClockTime,
}

/// Initiator half of the peer-delay exchange (one per port).
#[derive(Debug, Clone)]
pub struct PdelayInitiator {
    port: PortIdentity,
    next_seq: u16,
    inflight: Option<Inflight>,
    awaiting_fu: Option<AwaitingFollowUp>,
    prev_t3_t4: Option<(ClockTime, ClockTime)>,
    nrr: f64,
    filtered_delay: Option<f64>,
    /// Exchanges that never completed (lost or late responses).
    pub lost_responses: u64,
}

impl PdelayInitiator {
    /// Creates an initiator for the given port identity.
    pub fn new(port: PortIdentity) -> Self {
        PdelayInitiator {
            port,
            next_seq: 0,
            inflight: None,
            awaiting_fu: None,
            prev_t3_t4: None,
            nrr: 1.0,
            filtered_delay: None,
            lost_responses: 0,
        }
    }

    /// Current filtered mean link delay, if at least one exchange
    /// completed.
    pub fn mean_link_delay(&self) -> Option<Nanos> {
        self.filtered_delay
            .map(|d| Nanos::from_nanos(round_to_i64(d)))
    }

    /// Current neighbor rate ratio estimate.
    pub fn neighbor_rate_ratio(&self) -> f64 {
        self.nrr
    }

    /// Builds the next `Pdelay_Req`; `t1` is the (hardware) transmit
    /// timestamp prediction — the caller replaces it with the real egress
    /// timestamp via [`PdelayInitiator::request_sent`].
    pub fn make_request(&mut self) -> (Box<[u8]>, u16) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        if self.inflight.take().is_some() || self.awaiting_fu.take().is_some() {
            self.lost_responses += 1;
        }
        let msg = Message::PdelayReq {
            header: Header::new(MessageType::PdelayReq, 0, self.port, seq, 0),
        };
        (msg.encode(), seq)
    }

    /// Records the hardware egress timestamp of request `seq`.
    pub fn request_sent(&mut self, seq: u16, t1: ClockTime) {
        self.inflight = Some(Inflight { seq, t1 });
    }

    /// Handles a `Pdelay_Resp` received at local hardware timestamp `t4`.
    pub fn handle_resp(&mut self, msg: &Message, t4: ClockTime) {
        let Message::PdelayResp {
            header,
            request_receipt,
            requesting_port,
        } = msg
        else {
            return;
        };
        if *requesting_port != self.port {
            return;
        }
        let Some(inflight) = self.inflight else {
            return;
        };
        if header.sequence_id != inflight.seq {
            return;
        }
        self.inflight = None;
        self.awaiting_fu = Some(AwaitingFollowUp {
            seq: inflight.seq,
            t1: inflight.t1,
            t2: request_receipt.to_clock_time(),
            t4,
        });
    }

    /// Handles a `Pdelay_Resp_Follow_Up`, completing the exchange.
    pub fn handle_resp_follow_up(&mut self, msg: &Message) -> Option<LinkDelaySample> {
        let Message::PdelayRespFollowUp {
            header,
            response_origin,
            requesting_port,
        } = msg
        else {
            return None;
        };
        if *requesting_port != self.port {
            return None;
        }
        let pending = self.awaiting_fu?;
        if header.sequence_id != pending.seq {
            return None;
        }
        self.awaiting_fu = None;
        let t3 = response_origin.to_clock_time();

        // Update the neighbor rate ratio from consecutive (t3, t4) pairs.
        if let Some((pt3, pt4)) = self.prev_t3_t4 {
            let d3 = (t3 - pt3).as_nanos() as f64;
            let d4 = (pending.t4 - pt4).as_nanos() as f64;
            if d4 > 0.0 {
                let raw = (d3 / d4).clamp(1.0 - NRR_CLAMP, 1.0 + NRR_CLAMP);
                self.nrr += NRR_FILTER_WEIGHT * (raw - self.nrr);
            }
        }
        self.prev_t3_t4 = Some((t3, pending.t4));

        let turnaround = (pending.t4 - pending.t1).as_nanos() as f64;
        let remote = (t3 - pending.t2).as_nanos() as f64;
        let raw = (self.nrr * turnaround - remote) / 2.0;
        let raw = raw.max(0.0);
        let filtered = match self.filtered_delay {
            Some(f) => f + DELAY_FILTER_WEIGHT * (raw - f),
            None => raw,
        };
        self.filtered_delay = Some(filtered);
        Some(LinkDelaySample {
            mean_link_delay: Nanos::from_nanos(round_to_i64(filtered)),
            raw_delay: Nanos::from_nanos(round_to_i64(raw)),
            neighbor_rate_ratio: self.nrr,
        })
    }
}

/// Responder half of the peer-delay exchange (one per port).
#[derive(Debug, Clone)]
pub struct PdelayResponder {
    port: PortIdentity,
}

/// The responder's reply to one `Pdelay_Req`: the `Pdelay_Resp` to send
/// now, plus the context the caller needs to emit the follow-up once the
/// hardware transmit timestamp (t3) is known.
#[derive(Debug, Clone)]
pub struct RespContext {
    /// Encoded `Pdelay_Resp` to transmit (an event message — timestamp
    /// its departure and pass it to
    /// [`PdelayResponder::make_resp_follow_up`]).
    pub resp: Box<[u8]>,
    /// Sequence id of the exchange.
    pub seq: u16,
    /// Identity of the requester (destination of the follow-up).
    pub requesting_port: PortIdentity,
}

impl PdelayResponder {
    /// Creates a responder for the given port identity.
    pub fn new(port: PortIdentity) -> Self {
        PdelayResponder { port }
    }

    /// Handles a `Pdelay_Req` received at hardware timestamp `t2`.
    pub fn handle_request(&self, msg: &Message, t2: ClockTime) -> Option<RespContext> {
        let Message::PdelayReq { header } = msg else {
            return None;
        };
        let resp = Message::PdelayResp {
            header: Header::new(MessageType::PdelayResp, 0, self.port, header.sequence_id, 0),
            request_receipt: PtpTimestamp::from_clock_time(t2),
            requesting_port: header.source_port,
        };
        Some(RespContext {
            resp: resp.encode(),
            seq: header.sequence_id,
            requesting_port: header.source_port,
        })
    }

    /// Builds the `Pdelay_Resp_Follow_Up` once the responder knows the
    /// hardware egress timestamp `t3` of its `Pdelay_Resp`.
    pub fn make_resp_follow_up(
        &self,
        seq: u16,
        requesting_port: PortIdentity,
        t3: ClockTime,
    ) -> Box<[u8]> {
        Message::PdelayRespFollowUp {
            header: Header::new(MessageType::PdelayRespFollowUp, 0, self.port, seq, 0),
            response_origin: PtpTimestamp::from_clock_time(t3),
            requesting_port,
        }
        .encode()
    }
}

use tsn_snapshot::{snap_state, snap_struct};

snap_struct!(Inflight { seq, t1 });
snap_struct!(AwaitingFollowUp { seq, t1, t2, t4 });

snap_state!(PdelayInitiator {
    next_seq,
    inflight,
    awaiting_fu,
    prev_t3_t4,
    nrr,
    filtered_delay,
    lost_responses,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClockIdentity;

    fn pid(i: u32) -> PortIdentity {
        PortIdentity::new(ClockIdentity::for_index(i), 1)
    }

    /// Simulates `n` exchanges over a link with constant `delay` ns and a
    /// responder clock running at `rate` relative to the initiator.
    fn run_exchanges(
        n: usize,
        delay: i64,
        rate: f64,
    ) -> (PdelayInitiator, Option<LinkDelaySample>) {
        let mut init = PdelayInitiator::new(pid(1));
        let resp = PdelayResponder::new(pid(2));
        let mut last = None;
        let mut now = 1_000_000_000i64; // initiator clock
        for _ in 0..n {
            let (req_bytes, seq) = init.make_request();
            let t1 = ClockTime::from_nanos(now);
            init.request_sent(seq, t1);
            // Responder clock: arbitrary epoch shift + rate.
            let to_resp = |t: i64| ClockTime::from_nanos(((t as f64) * rate) as i64 + 777_000);
            let t2 = to_resp(now + delay);
            let req = Message::decode(&req_bytes).unwrap();
            let ctx = resp.handle_request(&req, t2).unwrap();
            // Responder turnaround: 100 µs in responder time.
            let t3 = t2 + Nanos::from_micros(100);
            let turnaround_initiator = (100_000.0 / rate) as i64;
            let t4 = ClockTime::from_nanos(now + delay + turnaround_initiator + delay);
            let resp_msg = Message::decode(&ctx.resp).unwrap();
            init.handle_resp(&resp_msg, t4);
            let fu_bytes = resp.make_resp_follow_up(ctx.seq, ctx.requesting_port, t3);
            let fu = Message::decode(&fu_bytes).unwrap();
            last = init.handle_resp_follow_up(&fu);
            now += 1_000_000_000; // 1 s pdelay interval
        }
        (init, last)
    }

    #[test]
    fn measures_constant_delay_same_rate() {
        let (init, last) = run_exchanges(5, 2_500, 1.0);
        let d = init.mean_link_delay().unwrap().as_nanos();
        assert!((d - 2_500).abs() <= 1, "delay {d}");
        assert!((last.unwrap().neighbor_rate_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rate_ratio_converges_with_drifting_neighbor() {
        // Responder runs +50 ppm fast.
        let (init, _) = run_exchanges(100, 2_500, 1.0 + 50e-6);
        let nrr = init.neighbor_rate_ratio();
        assert!(
            ((nrr - 1.0) * 1e6 - 50.0).abs() < 1.0,
            "nrr off: {} ppm",
            (nrr - 1.0) * 1e6
        );
        // With the converged NRR the delay estimate is accurate.
        let d = init.mean_link_delay().unwrap().as_nanos();
        assert!((d - 2_500).abs() <= 5, "delay {d}");
    }

    #[test]
    fn stale_response_ignored() {
        let mut init = PdelayInitiator::new(pid(1));
        let (_, seq) = init.make_request();
        init.request_sent(seq, ClockTime::from_nanos(100));
        // Response with wrong sequence id.
        let resp = Message::PdelayResp {
            header: Header::new(MessageType::PdelayResp, 0, pid(2), seq.wrapping_add(5), 0),
            request_receipt: PtpTimestamp::default(),
            requesting_port: pid(1),
        };
        init.handle_resp(&resp, ClockTime::from_nanos(200));
        assert!(init.mean_link_delay().is_none());
    }

    #[test]
    fn response_for_other_port_ignored() {
        let mut init = PdelayInitiator::new(pid(1));
        let (_, seq) = init.make_request();
        init.request_sent(seq, ClockTime::from_nanos(100));
        let resp = Message::PdelayResp {
            header: Header::new(MessageType::PdelayResp, 0, pid(2), seq, 0),
            request_receipt: PtpTimestamp::default(),
            requesting_port: pid(9), // someone else's exchange
        };
        init.handle_resp(&resp, ClockTime::from_nanos(200));
        assert!(init.mean_link_delay().is_none());
    }

    #[test]
    fn lost_exchanges_counted() {
        let mut init = PdelayInitiator::new(pid(1));
        let (_, seq) = init.make_request();
        init.request_sent(seq, ClockTime::from_nanos(100));
        // Next request without completing the previous exchange.
        let _ = init.make_request();
        assert_eq!(init.lost_responses, 1);
    }

    #[test]
    fn responder_echoes_requester_identity() {
        let resp = PdelayResponder::new(pid(2));
        let req = Message::PdelayReq {
            header: Header::new(MessageType::PdelayReq, 0, pid(1), 7, 0),
        };
        let ctx = resp
            .handle_request(&req, ClockTime::from_nanos(42))
            .unwrap();
        assert_eq!(ctx.requesting_port, pid(1));
        match Message::decode(&ctx.resp).unwrap() {
            Message::PdelayResp {
                request_receipt,
                requesting_port,
                ..
            } => {
                assert_eq!(request_receipt.to_clock_time(), ClockTime::from_nanos(42));
                assert_eq!(requesting_port, pid(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
