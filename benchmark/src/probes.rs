//! Isolated probes: what one operation of a layer costs *alone*.
//!
//! Each probe is a tight loop over a layer's public functions with a
//! fixed operation count, run in [`BATCHES`] batches; the median batch
//! gives ns/op. A probe says nothing about what the operation costs in
//! situ (cold caches, interleaved layers, the World's own dispatch) —
//! that difference is exactly what `model.share.unattributed` collects.
//! Inputs are fixed, not seeded: probes compare commits, not seeds.

use crate::stats;
use clocksync::election::{ElectionConfig, NodeElection};
use clocksync::fabric::{Fabric, FabricConfig, FrameClass};
use clocksync::faults::{FaultSchedule, InjectorConfig};
use clocksync::fta::{fault_tolerant_average, AggregationConfig, MultiDomainAggregator};
use clocksync::gptp::msg::{AnnounceBody, FollowUpTlv, Header, MessageType};
use clocksync::gptp::{
    Bmca, BridgeRelay, ClockIdentity, ClockQuality, Message, PdelayInitiator, PdelayResponder,
    PortIdentity, PtpTimestamp, SyncMaster, SyncSlave, SystemIdentity,
};
use clocksync::hyp::{DependentClockDevice, MonitorConfig, Phc2Sys, VmId};
use clocksync::metrics::{PrecisionSample, PrecisionSeries, StreamingSummary};
use clocksync::netsim::{
    ethertype, DelayModel, EgressPort, EthernetFrame, MacAddr, PortNo, ReferenceQueue, Switch,
    VlanTag, WheelQueue,
};
use clocksync::time::{
    ClockTime, Nanos, Oscillator, OscillatorConfig, Phc, PiServo, ServoConfig, SimTime,
};
use clocksync::{World, WorldSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tsn_campaign::json::Json;
use tsn_campaign::{matrix, summary, CampaignSpec, RunRecord, StreamSummarizer};

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 5;
/// Operations per batch for sub-microsecond operations.
const CHEAP: u64 = 100_000;
/// Operations per batch for operations of microseconds.
const MID: u64 = 2_000;
/// Operations per batch for operations of a millisecond.
const HEAVY: u64 = 40;

const S: Nanos = Nanos::from_millis(125);

/// Median ns/op of `BATCHES` calls of `batch(ops)`, each of which runs
/// `ops` operations. State a probe captures carries over between
/// batches, so clocks keep advancing.
fn per_op_ns(ops: u64, mut batch: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch(ops);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&samples)
}

fn port(clock: u32, number: u16) -> PortIdentity {
    PortIdentity::new(ClockIdentity::for_index(clock), number)
}

fn sync_msg(domain: u8, seq: u16) -> Message {
    Message::Sync {
        header: Header::new(MessageType::Sync, domain, port(1, 1), seq, -3),
        origin: PtpTimestamp::default(),
    }
}

fn follow_up_msg(domain: u8, seq: u16) -> Message {
    Message::FollowUp {
        header: Header::new(MessageType::FollowUp, domain, port(1, 1), seq, -3),
        precise_origin: PtpTimestamp::from_clock_time(ClockTime::from_nanos(1_234_567_890_123)),
        tlv: FollowUpTlv {
            cumulative_scaled_rate_offset: -12345,
            ..Default::default()
        },
    }
}

fn announce_msg(domain: u8, from: u32, seq: u16) -> Message {
    let identity = ClockIdentity::for_index(from);
    Message::Announce {
        header: Header::new(
            MessageType::Announce,
            domain,
            PortIdentity::new(identity, 1),
            seq,
            0,
        ),
        body: AnnounceBody {
            current_utc_offset: 37,
            priority1: 100 + from as u8,
            quality: ClockQuality::default(),
            priority2: 248,
            gm_identity: identity,
            steps_removed: 0,
            time_source: 0xA0,
        },
        path_trace: vec![identity],
    }
}

/// Steady churn on an event queue: pop one event, schedule the next a
/// few µs to ms ahead, standing population 64 — the simulator's own
/// pattern. A macro because the two queues share no trait.
macro_rules! queue_churn {
    ($Q:ty) => {{
        let mut q: $Q = <$Q>::new();
        for i in 0..64u64 {
            q.schedule_at(SimTime::from_nanos(i * 131_071), i);
        }
        let mut k = 0u64;
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                let (now, e) = q.pop().expect("standing population");
                black_box(e);
                let gap = 1_000 + (k * 48_271) % 3_000_000;
                q.schedule_at(now + Nanos::from_nanos(gap as i64), k);
                k += 1;
            }
        })
    }};
}

fn netsim(out: &mut Vec<(&'static str, f64)>) {
    out.push(("netsim.queue.push_pop_ns", queue_churn!(WheelQueue<u64>)));
    out.push((
        "netsim.queue.reference_push_pop_ns",
        queue_churn!(ReferenceQueue<u64>),
    ));

    let frame = EthernetFrame {
        dst: MacAddr::PTP_MULTICAST,
        src: MacAddr::for_nic(9),
        vlan: Some(VlanTag::new(6, 100)),
        ethertype: ethertype::MEASUREMENT,
        payload: sync_msg(1, 7).encode(),
    };
    out.push((
        "netsim.frame.encode_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                black_box(black_box(&frame).encode());
            }
        }),
    ));
    let wire = frame.encode();
    out.push((
        "netsim.frame.decode_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                black_box(EthernetFrame::decode(black_box(&wire)).expect("valid frame"));
            }
        }),
    ));

    let mut switch = Switch::new("sw", DelayModel::constant(Nanos::from_micros(1)));
    for p in 0..4 {
        switch.fdb.add_vlan_member(100, PortNo(p));
    }
    let mut rng = StdRng::seed_from_u64(1);
    out.push((
        "netsim.switch.forward_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                black_box(switch.forward(PortNo(0), black_box(&frame), &mut rng));
            }
        }),
    ));

    let mut egress: EgressPort<u64> = EgressPort::new();
    for i in 0..4 {
        egress.enqueue(0, i);
    }
    out.push((
        "netsim.qdisc.enqueue_pop_ns",
        per_op_ns(CHEAP, |n| {
            for i in 0..n {
                egress.enqueue((i % 8) as u8, i);
                black_box(egress.pop_ready());
            }
        }),
    ));
}

fn encode_ns(msg: &Message) -> f64 {
    per_op_ns(CHEAP, |n| {
        for _ in 0..n {
            black_box(black_box(msg).encode());
        }
    })
}

fn decode_ns(msg: &Message) -> f64 {
    let bytes = msg.encode();
    per_op_ns(CHEAP, |n| {
        for _ in 0..n {
            black_box(Message::decode(black_box(&bytes)).expect("valid message"));
        }
    })
}

fn roundtrip_ns(msg: &Message) -> f64 {
    per_op_ns(CHEAP, |n| {
        for _ in 0..n {
            let bytes = black_box(msg).encode();
            black_box(Message::decode(&bytes).expect("valid message"));
        }
    })
}

fn gptp(out: &mut Vec<(&'static str, f64)>) {
    let (sync, follow_up) = (sync_msg(1, 42), follow_up_msg(1, 42));
    out.push(("gptp.msg.sync_encode_ns", encode_ns(&sync)));
    out.push(("gptp.msg.sync_decode_ns", decode_ns(&sync)));
    out.push(("gptp.msg.follow_up_encode_ns", encode_ns(&follow_up)));
    out.push(("gptp.msg.follow_up_decode_ns", decode_ns(&follow_up)));
    let pdelay_resp = Message::PdelayResp {
        header: Header::new(MessageType::PdelayResp, 0, port(2, 1), 7, 0),
        request_receipt: PtpTimestamp::from_clock_time(ClockTime::from_nanos(42)),
        requesting_port: port(1, 1),
    };
    out.push(("gptp.msg.pdelay_roundtrip_ns", roundtrip_ns(&pdelay_resp)));
    out.push((
        "gptp.msg.announce_roundtrip_ns",
        roundtrip_ns(&announce_msg(1, 3, 9)),
    ));

    // One relayed Sync/Follow_Up pair through a bridge with three
    // master ports: handle_sync, three departures, handle_follow_up.
    let mut relay = BridgeRelay::new(1, ClockIdentity::for_index(10), 5, vec![1, 2, 3]);
    let mut seq = 0u16;
    out.push((
        "gptp.bridge.relay_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                seq = seq.wrapping_add(1);
                let rx = ClockTime::from_nanos(1_000_000 + i64::from(seq) * 125_000_000);
                black_box(relay.handle_sync(&sync_msg(1, seq), 5, rx));
                for p in 1..=3 {
                    black_box(relay.sync_forwarded(seq, p, rx + Nanos::from_micros(2)));
                }
                black_box(relay.handle_follow_up(
                    &follow_up_msg(1, seq),
                    5,
                    Nanos::from_nanos(2_500),
                    1.0,
                ));
            }
        }),
    ));

    let mut master = SyncMaster::new(1, port(1, 1), -3);
    let mut now = ClockTime::from_nanos(1_000_000);
    out.push((
        "gptp.port.master_sync_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                let (bytes, seq) = master.make_sync();
                black_box(bytes);
                now = now + S;
                black_box(master.sync_sent(seq, now));
            }
        }),
    ));

    // Already-decoded pairs, as the World hands them over.
    let pairs: Vec<(Message, Message)> = (0..256)
        .map(|seq| (sync_msg(1, seq), follow_up_msg(1, seq)))
        .collect();
    let mut slave = SyncSlave::new(1);
    let mut rx = ClockTime::from_nanos(1_234_567_893_000);
    out.push((
        "gptp.port.slave_offset_ns",
        per_op_ns(CHEAP, |n| {
            for i in 0..n {
                let (sync, follow_up) = black_box(&pairs[(i % 256) as usize]);
                rx = rx + S;
                slave.handle_sync(sync, rx);
                let sample = slave.handle_follow_up(follow_up, Nanos::from_nanos(2_500), 1.0);
                black_box(sample.expect("matching pair yields an offset"));
            }
        }),
    ));

    // One complete peer-delay exchange, messages crossing as bytes.
    let mut initiator = PdelayInitiator::new(port(1, 1));
    let responder = PdelayResponder::new(port(2, 1));
    let mut t = 1_000_000_000i64;
    out.push((
        "gptp.pdelay.exchange_ns",
        per_op_ns(CHEAP / 4, |n| {
            for _ in 0..n {
                let (req, seq) = initiator.make_request();
                initiator.request_sent(seq, ClockTime::from_nanos(t));
                let req = Message::decode(&req).expect("valid request");
                let t2 = ClockTime::from_nanos(t + 2_500);
                let ctx = responder
                    .handle_request(&req, t2)
                    .expect("request answered");
                let resp = Message::decode(&ctx.resp).expect("valid response");
                initiator.handle_resp(&resp, ClockTime::from_nanos(t + 105_000));
                let fu = responder.make_resp_follow_up(
                    ctx.seq,
                    ctx.requesting_port,
                    t2 + Nanos::from_micros(100),
                );
                let fu = Message::decode(&fu).expect("valid follow-up");
                black_box(initiator.handle_resp_follow_up(&fu));
                t += 1_000_000_000;
            }
        }),
    ));

    let own = SystemIdentity {
        priority1: 200,
        quality: ClockQuality::default(),
        priority2: 248,
        identity: ClockIdentity::for_index(9),
    };
    let mut bmca = Bmca::new(own, vec![1, 2, 3], Nanos::from_secs(3));
    for p in 1..=3u16 {
        bmca.consider_announce(p, &announce_msg(1, u32::from(p), 1), ClockTime::ZERO);
    }
    out.push((
        "gptp.bmca.decide_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                black_box(black_box(&bmca).decide());
            }
        }),
    ));
}

fn fta_and_time(out: &mut Vec<(&'static str, f64)>) {
    let offsets = [
        Nanos::from_nanos(-120),
        Nanos::from_nanos(35),
        Nanos::from_nanos(410),
        Nanos::from_nanos(-24_000),
    ];
    out.push((
        "fta.average_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                black_box(fault_tolerant_average(black_box(&offsets), 1));
            }
        }),
    ));

    // One aggregation round: four domain submissions, the first past
    // the interval boundary aggregates (shared-memory lock and servo
    // feed included).
    let mut agg =
        MultiDomainAggregator::new(AggregationConfig::paper_default(), ServoConfig::default());
    let mut now = ClockTime::from_nanos(1_000_000);
    out.push((
        "fta.round_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                now = now + S;
                for (d, o) in offsets.iter().enumerate() {
                    black_box(agg.submit(d, *o / 100, now, 1.0, now));
                }
            }
        }),
    ));

    let mut servo = PiServo::new(ServoConfig::default(), S);
    let mut t = ClockTime::ZERO;
    out.push((
        "time.servo.sample_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                t = t + S;
                black_box(servo.sample(black_box(Nanos::from_nanos(137)), t));
            }
        }),
    ));

    let mut phc = Phc::new(ClockTime::ZERO, 1_200.0);
    let mut at = SimTime::ZERO;
    out.push((
        "time.phc.read_adjust_ns",
        per_op_ns(CHEAP, |n| {
            for i in 0..n {
                at += S;
                black_box(phc.now(at));
                black_box(phc.adj_frequency(at, (i % 200) as f64 - 100.0));
            }
        }),
    ));

    let mut osc = Oscillator::with_deviation(OscillatorConfig::default(), 1_200.0);
    let mut rng = StdRng::seed_from_u64(2);
    out.push((
        "time.oscillator.advance_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                black_box(osc.step_wander(&mut rng));
            }
        }),
    ));
}

fn hyp_and_faults(out: &mut Vec<(&'static str, f64)>) {
    let mut device = DependentClockDevice::new(VmId(0), vec![VmId(1)], MonitorConfig::default());
    let mut phc2sys = Phc2Sys::new();
    let mut host = ClockTime::from_nanos(1_000_000);
    out.push((
        "hyp.phc2sys.tick_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                host = host + S;
                let params = phc2sys.sample(host, host + Nanos::from_nanos(350));
                black_box(device.publish(VmId(0), params, host));
            }
        }),
    ));
    // Ticks 1 ns apart keep the last publication fresh, so every tick
    // takes the common no-takeover path.
    out.push((
        "hyp.monitor.tick_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                host = host + Nanos::from_nanos(1);
                black_box(device.monitor_tick(host, |_| true));
            }
        }),
    ));
    out.push((
        "hyp.stshmem.read_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                host = host + Nanos::from_nanos(1);
                black_box(device.synctime(black_box(host)));
            }
        }),
    ));

    let injector = InjectorConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(3);
    out.push((
        "faults.schedule_generate_ns",
        per_op_ns(MID, |n| {
            for _ in 0..n {
                black_box(FaultSchedule::generate(black_box(&injector), &mut rng));
            }
        }),
    ));
}

/// Crossings of a depth-6 line fabric under 30 % cross traffic, to each
/// of the three other edge switches in turn, 125 µs apart.
fn traverse_ns(transparent_clock: bool) -> f64 {
    let cfg = FabricConfig {
        transparent_clock,
        cross_traffic_load: 0.3,
        ..FabricConfig::line(6)
    };
    let mut fabric = Fabric::new(
        cfg,
        4,
        &mut StdRng::seed_from_u64(4),
        StdRng::seed_from_u64(5),
    );
    let mut now = SimTime::ZERO;
    per_op_ns(CHEAP, |n| {
        for i in 0..n {
            now += Nanos::from_micros(125);
            let to = 1 + (i % 3) as usize;
            black_box(fabric.traverse(now, 0, to, 720, FrameClass::Sync));
        }
    })
}

fn election(out: &mut Vec<(&'static str, f64)>) {
    let identities: Vec<ClockIdentity> = (0..4).map(ClockIdentity::for_index).collect();
    let mut node = NodeElection::new(1, identities, &ElectionConfig::default());
    let announces: Vec<Message> = (0..4u8).map(|d| announce_msg(d, u32::from(d), 1)).collect();
    // Nanosecond steps keep every claim inside its receipt timeout.
    let mut now = ClockTime::from_nanos(1_000_000);
    out.push((
        "election.announce_rx_ns",
        per_op_ns(CHEAP, |n| {
            for i in 0..n {
                now = now + Nanos::from_nanos(1);
                let d = (i % 4) as usize;
                node.on_announce(d as u8, black_box(&announces[d]), now);
            }
        }),
    ));
    out.push((
        "election.step_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                now = now + Nanos::from_nanos(1);
                black_box(node.step(now));
            }
        }),
    ));
}

fn metrics(out: &mut Vec<(&'static str, f64)>) {
    let sample = |i: u64| PrecisionSample {
        at: SimTime::from_secs(i),
        value: Nanos::from_nanos(300 + (i * 37 % 400) as i64),
        receivers: 3,
    };
    out.push((
        "metrics.precision.push_ns",
        per_op_ns(CHEAP, |n| {
            let mut series = PrecisionSeries::new();
            for i in 0..n {
                series.push(sample(i));
            }
            black_box(series.len());
        }),
    ));
    // One hour of 1 Hz probes, the series `into_result` hands back.
    let mut hour = PrecisionSeries::new();
    for i in 0..3600 {
        hour.push(sample(i));
    }
    out.push((
        "metrics.precision.stats_ns",
        per_op_ns(MID, |n| {
            for _ in 0..n {
                black_box(black_box(&hour).stats());
            }
        }),
    ));
    // Crosses the exact-mode cap, so most pushes land in the sketch.
    out.push((
        "metrics.sketch.push_ns",
        per_op_ns(CHEAP, |n| {
            let mut sketch = StreamingSummary::new();
            for i in 0..n {
                sketch.push(3_000.0 + (i % 977) as f64);
            }
            black_box(sketch.count());
        }),
    ));
}

/// Snapshot probes on a World at the end of the fork sweep's 600 s
/// warm-up: the state every forked run restores.
fn snapshot(out: &mut Vec<(&'static str, f64)>, fork_spec: &CampaignSpec) {
    let cfg = fork_spec.base.materialize(7);
    let mut world = World::new(cfg.clone());
    world.run_until(SimTime::ZERO + cfg.warmup);
    out.push((
        "snapshot.capture_ns",
        per_op_ns(HEAVY, |n| {
            for _ in 0..n {
                black_box(world.snapshot());
            }
        }),
    ));
    let snap = world.snapshot();
    out.push((
        "snapshot.encode_ns",
        per_op_ns(HEAVY, |n| {
            for _ in 0..n {
                black_box(black_box(&snap).encode());
            }
        }),
    ));
    let bytes = snap.encode();
    out.push(("snapshot.bytes", bytes.len() as f64));
    out.push((
        "snapshot.decode_ns",
        per_op_ns(HEAVY, |n| {
            for _ in 0..n {
                black_box(WorldSnapshot::decode(black_box(&bytes)).expect("valid snapshot"));
            }
        }),
    ));
    out.push((
        "snapshot.restore_ns",
        per_op_ns(HEAVY, |n| {
            for _ in 0..n {
                black_box(World::restore(cfg.clone(), black_box(&snap)).expect("same config"));
            }
        }),
    ));
}

/// Campaign-layer probes. `record` is a real artifact of this build.
fn campaign(out: &mut Vec<(&'static str, f64)>, fork_spec_text: &str, record: &RunRecord) {
    out.push((
        "campaign.spec.parse_ns",
        per_op_ns(MID, |n| {
            for _ in 0..n {
                black_box(CampaignSpec::parse(black_box(fork_spec_text)).expect("valid spec"));
            }
        }),
    ));
    let spec = CampaignSpec::parse(fork_spec_text).expect("valid spec");
    let plans = matrix::expand(&spec).expect("valid spec");
    let expand = per_op_ns(HEAVY, |n| {
        for _ in 0..n {
            black_box(matrix::expand(black_box(&spec)).expect("valid spec"));
        }
    });
    out.push((
        "campaign.matrix.expand_ns_per_plan",
        expand / plans.len() as f64,
    ));
    let plan = &plans[plans.len() / 2];
    out.push((
        "campaign.matrix.materialize_ns",
        per_op_ns(MID, |n| {
            for _ in 0..n {
                black_box(
                    matrix::materialize(&spec.base, black_box(plan.coord), plan.seed)
                        .expect("valid coordinate"),
                );
            }
        }),
    ));

    let mut buffer = Vec::with_capacity(4096);
    out.push((
        "campaign.artifact.encode_ns",
        per_op_ns(MID, |n| {
            for _ in 0..n {
                buffer.clear();
                black_box(record)
                    .encode_to(&mut buffer)
                    .expect("write to memory");
            }
        }),
    ));
    let line = record.encode();
    out.push(("campaign.artifact.bytes", line.len() as f64));
    out.push((
        "campaign.artifact.decode_ns",
        per_op_ns(MID, |n| {
            for _ in 0..n {
                black_box(RunRecord::decode(black_box(&line)).expect("own encoding decodes"));
            }
        }),
    ));
    let parse = per_op_ns(MID, |n| {
        for _ in 0..n {
            black_box(Json::parse(black_box(line.trim_end())).expect("valid JSON"));
        }
    });
    // bytes per ns x 1000 = MB/s.
    out.push((
        "campaign.json.parse_mb_per_s",
        line.len() as f64 / parse * 1e3,
    ));

    let mut summarizer = StreamSummarizer::new();
    out.push((
        "campaign.summary.push_ns",
        per_op_ns(CHEAP, |n| {
            for _ in 0..n {
                summarizer.push(black_box(record));
            }
        }),
    ));
    let groups = summarizer.finish();
    out.push((
        "campaign.summary.render_ns",
        per_op_ns(MID, |n| {
            for _ in 0..n {
                black_box(summary::render(black_box(&groups)));
            }
        }),
    ));
}

/// Runs every probe; the names are those of `metrics::PER_LAYER`.
pub fn run_all(fork_spec_text: &str, record: &RunRecord) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    netsim(&mut out);
    gptp(&mut out);
    fta_and_time(&mut out);
    hyp_and_faults(&mut out);
    out.push(("fabric.traverse_tc_ns", traverse_ns(true)));
    out.push(("fabric.traverse_e2e_ns", traverse_ns(false)));
    election(&mut out);
    metrics(&mut out);
    let fork_spec = CampaignSpec::parse(fork_spec_text).expect("valid spec");
    snapshot(&mut out, &fork_spec);
    campaign(&mut out, fork_spec_text, record);
    out
}
