//! Integration: dynamic BMCA grandmaster election wired into the world.
//!
//! With `TestbedConfig::election` set, acting grandmasters are decided
//! at runtime from Announce traffic instead of the paper's static
//! external port configuration. These tests exercise the three regimes
//! end to end: steady state (every domain elects its home node),
//! failover (a scheduled GM kill re-elects the configured second-best
//! within the convergence bound), and adversarial capture (a rogue
//! master wins a foreign domain yet stays contained by FTA).

use clocksync::election::ElectionConfig;
use clocksync::faults::{AttackPlan, ByzantineStrategy, CveId, Strike, PAPER_POT_OFFSET};
use clocksync::{TestbedConfig, World};
use tsn_time::{Nanos, SimTime};

fn quick_cfg(seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::quick(seed);
    cfg.duration = Nanos::from_secs(14);
    cfg.warmup = Nanos::from_secs(4);
    cfg
}

/// Steady state: with no failures, the election converges on exactly
/// the static assignment — each domain's home node acts as its GM.
#[test]
fn election_converges_to_home_masters() {
    let mut cfg = quick_cfg(21);
    cfg.election = Some(ElectionConfig::default());
    let n = cfg.nodes;
    let mut world = World::new(cfg);
    world.enable_oracle();
    let end = world.end_time();
    world.run_until(end);
    for d in 0..n {
        assert_eq!(
            world.acting_masters(d as u8),
            vec![d],
            "domain {d} should elect its home node"
        );
    }
    let result = world.into_result();
    assert!(result.counters.announce_tx > 0, "masters announce");
    assert!(
        result.violations.is_empty(),
        "oracle flagged a clean election run:\n{:#?}",
        result.violations
    );
}

/// A scheduled kill of the best GM re-elects the configured
/// second-best (`(d + 1) % n`) within the convergence bound, and the
/// run stays free of invariant violations.
#[test]
fn gm_kill_reelects_second_best_within_bound() {
    let mut cfg = quick_cfg(22);
    let el = ElectionConfig {
        gm_failure_at: Some(Nanos::from_secs(3)),
        gm_failure_node: 0,
        ..ElectionConfig::default()
    };
    cfg.election = Some(el);
    let n = cfg.nodes;
    let mut world = World::new(cfg);
    world.enable_oracle();
    let end = world.end_time();
    world.run_until(end);
    assert_eq!(
        world.acting_masters(0),
        vec![1],
        "domain 0 fails over to its configured second-best"
    );
    for d in 1..n {
        assert_eq!(world.acting_masters(d as u8), vec![d]);
    }
    let result = world.into_result();
    assert!(
        result.counters.elected_gm_changes >= 1,
        "the failover is counted as an elected-GM change"
    );
    assert!(result.counters.reconvergence_ns > 0, "failover timed");
    assert!(
        result.counters.reconvergence_ns <= el.convergence_bound().as_nanos() as u64,
        "re-election took {} ns, bound {} ns",
        result.counters.reconvergence_ns,
        el.convergence_bound().as_nanos()
    );
    assert!(
        result.violations.is_empty(),
        "oracle flagged the failover run:\n{:#?}",
        result.violations
    );
}

/// A rogue master captures its foreign target domain (the forged
/// priority vector beats the home node's), yet the single Byzantine
/// domain stays contained: every oracle invariant — including
/// at-most-one-acting-master — remains silent.
#[test]
fn rogue_master_wins_election_but_is_contained() {
    let mut cfg = quick_cfg(23);
    cfg.election = Some(ElectionConfig::default());
    cfg.attack = AttackPlan::new(vec![Strike {
        at: SimTime::from_secs(3),
        target_node: 2,
        cve: CveId::Cve2018_18955,
        pot_offset: PAPER_POT_OFFSET,
        strategy: Some(ByzantineStrategy::RogueMaster {
            offset: PAPER_POT_OFFSET,
        }),
    }]);
    let n = cfg.nodes;
    let mut world = World::new(cfg);
    world.enable_oracle();
    let end = world.end_time();
    world.run_until(end);
    // Node 2 forges the best vector on domain (2 + n - 1) % n = 1.
    let captured = (2 + n - 1) % n;
    assert_eq!(
        world.acting_masters(captured as u8),
        vec![2],
        "the rogue captures its foreign target domain"
    );
    for d in 0..n {
        if d != captured {
            assert_eq!(world.acting_masters(d as u8), vec![d]);
        }
    }
    let result = world.into_result();
    assert!(
        result.violations.is_empty(),
        "a single rogue domain must stay contained:\n{:#?}",
        result.violations
    );
}

/// With the election disabled the acting-master view is the paper's
/// static assignment, unchanged.
#[test]
fn election_off_keeps_static_assignment() {
    let cfg = quick_cfg(24);
    assert!(cfg.election.is_none());
    let n = cfg.nodes;
    let mut world = World::new(cfg);
    let end = world.end_time();
    world.run_until(end);
    for d in 0..n {
        assert_eq!(world.acting_masters(d as u8), vec![d]);
    }
    assert_eq!(world.into_result().counters.announce_tx, 0);
}

/// The relay shape, read off the trace: bridges carry an Announce down
/// the tree rooted at its sender's bridge, so one origination makes
/// `n·vpn + n − 1` departures (the sender's, its bridge's to the other
/// local stations and the `n − 1` mesh ports, every other bridge's to its
/// stations) and every other station hears it exactly once. All nodes
/// tick within microseconds of each other, so the trace's Announce
/// instants are grouped by announce interval and domain and a group with
/// `k` senders must hold `k` times that. The run has the senders that
/// matter: the second-best node after a GM kill and a rogue, both behind
/// a bridge that is not the domain's configured root.
#[test]
fn announce_departs_once_per_tree_edge_and_arrives_once_per_station() {
    use clocksync::trace::{node_pid, ArgValue, TraceEvent, SIM_PID};
    use std::collections::BTreeMap;

    let mut cfg = quick_cfg(25);
    let election = ElectionConfig {
        gm_failure_at: Some(Nanos::from_secs(3)),
        gm_failure_node: 0,
        ..ElectionConfig::default()
    };
    cfg.election = Some(election);
    // Node 2 forges the best vector on domain 1.
    cfg.attack = AttackPlan::new(vec![Strike {
        at: SimTime::from_secs(3),
        target_node: 2,
        cve: CveId::Cve2018_18955,
        pot_offset: PAPER_POT_OFFSET,
        strategy: Some(ByzantineStrategy::RogueMaster {
            offset: PAPER_POT_OFFSET,
        }),
    }]);
    let (n, vpn) = (cfg.nodes, cfg.vms_per_node);
    let mut world = World::new(cfg);
    world.enable_trace();
    let end = world.end_time();
    world.run_until(end);
    let report = world.into_result().trace.expect("trace enabled");
    assert_eq!(report.dropped, 0, "the sink held the whole run");

    let arg = |e: &TraceEvent, key: &str| {
        let found = e.args.iter().find(|(k, _)| *k == key);
        found.map(|(_, v)| v.clone())
    };
    /// One announce interval of one domain: departures anywhere, and
    /// per station lane `(pid, tid)` its departures and arrivals.
    #[derive(Default)]
    struct Round {
        departures: usize,
        sent: BTreeMap<(u32, u32), usize>,
        heard: BTreeMap<(u32, u32), usize>,
    }
    let mut rounds: BTreeMap<(u64, u64), Round> = BTreeMap::new();
    for e in &report.events {
        let tx = match e.name {
            "ptp_tx" => true,
            "ptp_rx" => false,
            _ => continue,
        };
        if arg(e, "type") != Some(ArgValue::Str("announce".into())) {
            continue;
        }
        let Some(ArgValue::U64(domain)) = arg(e, "domain") else {
            panic!("announce instant without a domain: {e:?}");
        };
        let interval = e.ts.as_nanos() / election.announce_interval.as_nanos() as u64;
        let round = rounds.entry((interval, domain)).or_default();
        round.departures += usize::from(tx);
        if e.pid != SIM_PID {
            let lane = if tx {
                &mut round.sent
            } else {
                &mut round.heard
            };
            *lane.entry((e.pid, e.tid)).or_default() += 1;
        }
    }

    let stations =
        || (0..n).flat_map(|node| (0..vpn as u32).map(move |slot| (node_pid(node), slot)));
    let mut lone_senders = Vec::new();
    for ((interval, domain), round) in &rounds {
        let at = format!("interval {interval}, domain {domain}");
        let senders = round.sent.len();
        assert!(senders > 0 && round.sent.values().all(|&c| c == 1), "{at}");
        assert_eq!(round.departures, senders * (n * vpn + n - 1), "{at}");
        for lane in stations() {
            let heard = round.heard.get(&lane).copied().unwrap_or(0);
            let own = usize::from(round.sent.contains_key(&lane));
            assert_eq!(heard, senders - own, "{at}, station {lane:?}");
        }
        if senders == 1 {
            lone_senders.push((*domain, *round.sent.keys().next().unwrap()));
        }
    }
    // Home masters, node 1 for the killed node 0, the rogue on domain 1.
    for sender in [
        (3, (node_pid(3), 0)),
        (0, (node_pid(1), 0)),
        (1, (node_pid(2), 0)),
    ] {
        assert!(
            lone_senders.contains(&sender),
            "{sender:?} never announced alone"
        );
    }
}

/// The behaviour pin: the `quick-election-failover` shape (quick
/// preset, seed 7, 5 s warm-up + 20 s, GM of node 0 killed at 8 s) pops
/// exactly the `events` that the root `BENCH_baseline.json` records. A
/// different count means simulator behaviour changed; if that is
/// deliberate, update the file in the same change — the repo
/// benchmark's start-up guard reads the same field.
#[test]
fn pinned_failover_workload_pops_the_baseline_event_count() {
    let mut cfg = TestbedConfig::quick(7);
    cfg.warmup = Nanos::from_secs(5);
    cfg.duration = Nanos::from_secs(20);
    cfg.election = Some(ElectionConfig {
        gm_failure_at: Some(Nanos::from_secs(8)),
        gm_failure_node: 0,
        ..ElectionConfig::default()
    });
    let mut world = World::new(cfg);
    let end = world.end_time();
    world.run_until(end);

    let baseline = include_str!("../BENCH_baseline.json");
    let (_, tail) = baseline
        .split_once("\"events\":")
        .expect("BENCH_baseline.json has an events field");
    let digits = tail.split(|c: char| !c.is_ascii_digit()).next().unwrap();
    let expected: u64 = digits.parse().expect("events is an unsigned integer");
    assert_eq!(world.events_processed(), expected);
}
