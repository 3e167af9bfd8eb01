//! The clock-synchronization VM's protocol engine — the paper's unit of
//! design, and the one implementation of it in this repository.
//!
//! [`MultiDomainNode`] bundles everything one VM runs on its NIC port:
//! `M` per-domain Sync slaves, the Sync master of its home domain
//! (grandmaster VMs) plus one per foreign domain won by election, the
//! shared peer-delay service, the `FTSHMEM` multi-domain aggregator and
//! the Announce hand-off to the node's BMCA election. It is sans-IO:
//! callers feed it received frames with hardware timestamps, timer ticks
//! and egress timestamps (the `on_*` methods), lend it the local clock,
//! and carry out the [`NodeOutput`]s it appends to their buffer —
//! transmissions, servo commands, and observations worth logging.
//!
//! The testbed ([`crate::World`]) drives one engine per VM through the
//! simulated network and adds only what a simulation owns: timestamp
//! noise, launch timing, faults, the attacker. Other harnesses (or, with
//! a real NIC backend, an actual system) can embed the same engine.
//!
//! # Example
//!
//! A grandmaster's first synchronization interval, by hand:
//!
//! ```
//! use clocksync::node::{MultiDomainNode, NodeConfig};
//! use tsn_time::{ClockTime, Phc, SimTime};
//!
//! let mut gm = MultiDomainNode::new(NodeConfig::single_domain(), 1, Some(0));
//! let mut clock = Phc::new(ClockTime::from_nanos(1_000_000), 0.0);
//! let mut outs = Vec::new();
//! gm.on_sync_tick(None, &mut clock.at(SimTime::from_millis(1)), &mut outs);
//! // The GM stored its self-offset and ran the first aggregation.
//! # assert!(!outs.is_empty());
//! ```

use std::collections::BTreeMap;
use tsn_election::{ElectionEvent, NodeElection};
use tsn_fta::{
    Aggregation, AggregationConfig, AggregationMode, FtShmem, MultiDomainAggregator, SubmitOutcome,
};
use tsn_gptp::msg::{Message, MessageType};
use tsn_gptp::{
    ClockIdentity, LinkDelayService, PortIdentity, SyncMaster, SyncSlave, Transmission, TxTiming,
};
use tsn_snapshot::{Reader, Snap, SnapError, SnapState, Writer};
use tsn_time::{ClockTime, Nanos, PhcAt, ServoConfig, SyncState};

pub use tsn_gptp::TxToken;

/// Configuration of a [`MultiDomainNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Multi-domain aggregation settings (`M`, FTA parameters, startup).
    pub aggregation: AggregationConfig,
    /// PI servo settings.
    pub servo: ServoConfig,
    /// log2 Sync interval advertised by a master.
    pub log_sync_interval: i8,
    /// Grandmaster VMs aggregate like everyone else (the paper's
    /// design). `false` is the prior-work baseline: a grandmaster runs
    /// no slave functions, its clock free-runs and it serves its domain
    /// unconditionally.
    pub gm_mutual_sync: bool,
    /// The deployment runs BMCA: Announce is expected traffic (consumed
    /// by the node's election if it has one, dropped by design
    /// otherwise). `false` is the paper's external port configuration,
    /// where Announce has no role.
    pub election: bool,
}

impl NodeConfig {
    /// The paper's configuration (M = 4 domains, FTA f = 1, S = 125 ms).
    pub fn paper_default() -> Self {
        NodeConfig {
            aggregation: AggregationConfig::paper_default(),
            servo: ServoConfig::default(),
            log_sync_interval: -3,
            gm_mutual_sync: true,
            election: false,
        }
    }

    /// A single-domain configuration (plain gPTP, mean aggregation) for
    /// small setups and tests.
    pub fn single_domain() -> Self {
        NodeConfig {
            aggregation: AggregationConfig {
                domains: 1,
                method: tsn_fta::AggregationMethod::Mean,
                ..AggregationConfig::paper_default()
            },
            ..Self::paper_default()
        }
    }
}

/// Output actions a node emits.
#[derive(Debug, Clone)]
pub enum NodeOutput {
    /// Transmit this message. Event messages carry a [`TxToken`]: report
    /// their hardware egress timestamp back via
    /// [`MultiDomainNode::on_tx_timestamp`].
    Send(Transmission),
    /// An aggregation ran: apply its `servo` command to the local clock.
    Aggregated(Aggregation),
    /// The aggregator's degradation state changed.
    SyncState {
        /// State left.
        from: SyncState,
        /// State entered.
        to: SyncState,
    },
    /// A restarted home grandmaster converged to the ensemble and
    /// resumed serving its domain.
    GmResumed,
    /// The election promoted or demoted this node (its master functions
    /// already follow), or changed its view of a domain's grandmaster.
    Election(ElectionEvent),
    /// A frame the active configuration has no role for (Announce under
    /// external port configuration) or that does not decode.
    Unhandled,
}

/// One clock-synchronization VM's engine set (see module docs).
pub struct MultiDomainNode {
    config: NodeConfig,
    port: PortIdentity,
    /// The domain this VM is the configured grandmaster of.
    home: Option<usize>,
    /// Master function of the home domain.
    master: Option<SyncMaster>,
    /// `true` while the home master function is serving its domain.
    gm_active: bool,
    slaves: Vec<SyncSlave>,
    aggregator: MultiDomainAggregator,
    /// CMLDS: one link-delay service shared by all domains on the port.
    pd: LinkDelayService,
    /// Live BMCA state (grandmaster VMs of BMCA deployments).
    election: Option<NodeElection>,
    /// Master functions of foreign domains won by election.
    acquired: BTreeMap<u8, SyncMaster>,
}

fn send(bytes: bytes::Bytes, token: Option<TxToken>, timing: TxTiming) -> NodeOutput {
    NodeOutput::Send(Transmission::new(0, bytes, token, timing))
}

impl MultiDomainNode {
    /// Creates a node. `clock_index` derives the clock/port identities;
    /// `master_of` makes it the grandmaster of that domain.
    ///
    /// # Panics
    ///
    /// Panics if `master_of` is outside the configured domain count.
    pub fn new(config: NodeConfig, clock_index: u32, master_of: Option<usize>) -> Self {
        let domains = config.aggregation.domains;
        if let Some(d) = master_of {
            assert!(d < domains, "master domain {d} out of range");
        }
        let port = PortIdentity::new(ClockIdentity::for_index(clock_index), 1);
        let mut aggregator = MultiDomainAggregator::new(config.aggregation, config.servo);
        aggregator.set_self_domain(master_of);
        MultiDomainNode {
            slaves: (0..domains as u8).map(SyncSlave::new).collect(),
            master: master_of.map(|d| SyncMaster::new(d as u8, port, config.log_sync_interval)),
            home: master_of,
            gm_active: false,
            aggregator,
            pd: LinkDelayService::new(port),
            election: None,
            acquired: BTreeMap::new(),
            port,
            config,
        }
    }

    /// Attaches the node's BMCA election state.
    pub fn with_election(mut self, election: NodeElection) -> Self {
        self.election = Some(election);
        self
    }

    /// The node's aggregation mode (startup vs fault-tolerant).
    pub fn mode(&self) -> AggregationMode {
        self.aggregator.mode()
    }

    /// The VM's `FTSHMEM` region.
    pub fn shmem(&self) -> &FtShmem {
        self.aggregator.shmem()
    }

    /// The measured mean link delay of the node's port, if available.
    pub fn mean_link_delay(&self) -> Option<Nanos> {
        self.pd.link_state().mean_link_delay
    }

    /// Announce interval of the node's election (`None` without one).
    pub fn announce_interval(&self) -> Option<Nanos> {
        self.election.as_ref().map(NodeElection::announce_interval)
    }

    /// `true` while this node acts as grandmaster of `domain`: by the
    /// election's decision if it runs one, else by serving its home
    /// domain.
    pub fn acting(&self, domain: u8) -> bool {
        match &self.election {
            Some(e) => e.acting(domain),
            None => self.home == Some(usize::from(domain)) && self.gm_active,
        }
    }

    /// Domains the election currently has this node acting for.
    pub fn acting_domains(&self) -> Vec<u8> {
        self.election
            .as_ref()
            .map(NodeElection::acting_domains)
            .unwrap_or_default()
    }

    /// `(transmit-timestamp timeouts, launch deadline misses)` of the
    /// home master function.
    pub fn master_faults(&self) -> (u64, u64) {
        self.master
            .as_ref()
            .map_or((0, 0), |m| (m.tx_timestamp_timeouts, m.tx_deadline_misses))
    }

    /// The VM was shut down: it stops serving its home domain.
    pub fn shut_down(&mut self) {
        self.gm_active = false;
    }

    /// The VM rebooted: slaves, aggregation and link measurement start
    /// over (master sequence state survives, as `ptp4l`'s does not
    /// matter to its peers).
    pub fn reboot(&mut self) {
        for s in &mut self.slaves {
            s.reset();
        }
        self.aggregator.restart();
        self.pd = LinkDelayService::new(self.port);
    }

    /// An attacker took over the VM: the malicious `ptp4l` serves the
    /// home domain unconditionally, shifting every
    /// `preciseOriginTimestamp` by `pot_offset`.
    pub fn compromise(&mut self, pot_offset: Nanos) {
        if let Some(m) = &mut self.master {
            m.pot_offset = pot_offset;
        }
        self.gm_active = true;
    }

    /// Rogue master: forge a best-possible BMCA claim on `domain` and
    /// start serving it. Returns `false` (and does nothing) without an
    /// election.
    pub fn capture(&mut self, domain: u8) -> bool {
        let Some(e) = self.election.as_mut() else {
            return false;
        };
        e.capture(domain, 0);
        self.start_acting(domain);
        true
    }

    /// Home domain: resume the static master function; foreign domain:
    /// instantiate an interim one.
    fn start_acting(&mut self, domain: u8) {
        if self.home == Some(usize::from(domain)) {
            self.gm_active = true;
        } else {
            let (port, log) = (self.port, self.config.log_sync_interval);
            self.acquired
                .entry(domain)
                .or_insert_with(|| SyncMaster::new(domain, port, log));
        }
    }

    fn stop_acting(&mut self, domain: u8) {
        if self.home == Some(usize::from(domain)) {
            self.gm_active = false;
        } else {
            self.acquired.remove(&domain);
        }
    }

    /// The master function that originated the Sync `token` was issued
    /// for, and the Sync's sequence id.
    fn sync_origin(&mut self, token: TxToken) -> Option<(&mut SyncMaster, u16)> {
        let TxToken::Sync { domain, seq } = token else {
            return None;
        };
        let master = if self.home == Some(usize::from(domain)) {
            self.master.as_mut()
        } else {
            self.acquired.get_mut(&domain)
        };
        master.map(|m| (m, seq))
    }

    /// Retrieving the egress timestamp of the Sync `token` was issued
    /// for timed out: no Follow_Up follows it.
    pub fn on_tx_timestamp_timeout(&mut self, token: TxToken) {
        if let Some((m, seq)) = self.sync_origin(token) {
            m.sync_tx_failed(seq);
        }
    }

    /// The launch-timed Sync `token` was issued for missed its deadline
    /// and was never sent.
    pub fn on_deadline_missed(&mut self, token: TxToken) {
        if let Some((m, seq)) = self.sync_origin(token) {
            m.sync_deadline_missed(seq);
        }
    }

    /// Starts a peer-delay measurement round.
    pub fn on_pdelay_tick(&mut self, out: &mut Vec<NodeOutput>) {
        let (bytes, seq) = self.pd.make_request();
        let token = TxToken::PdelayReq { seq };
        out.push(send(bytes, Some(token), TxTiming::Driver));
    }

    /// Reports a submission's outcome and the degradation-state
    /// transitions it caused.
    fn report(&mut self, outcome: SubmitOutcome, out: &mut Vec<NodeOutput>) {
        if let SubmitOutcome::Aggregated(a) = outcome {
            out.push(NodeOutput::Aggregated(a));
        }
        for (_, from, to) in self.aggregator.take_transitions() {
            out.push(NodeOutput::SyncState { from, to });
        }
    }

    /// Start of a synchronization interval: acting masters originate
    /// their Syncs, the home grandmaster stores its self-offset.
    /// `byzantine` is the `preciseOriginTimestamp` shift a compromised
    /// grandmaster serves from this interval on (`None` for a benign VM);
    /// `clock` is the VM's local clock (the NIC PHC), here and below.
    pub fn on_sync_tick(
        &mut self,
        byzantine: Option<Nanos>,
        clock: &mut PhcAt<'_>,
        out: &mut Vec<NodeOutput>,
    ) {
        // Election-acquired foreign domains first. These go out
        // driver-timed, not launch-scheduled: an interim master is a
        // degraded-mode stand-in, not a planned ETF emission.
        for (&domain, m) in &mut self.acquired {
            let (bytes, seq) = m.make_sync();
            out.push(send(
                bytes,
                Some(TxToken::Sync { domain, seq }),
                TxTiming::Driver,
            ));
        }
        let Some(home) = self.home else {
            return;
        };
        // A home GM demoted by the election stops originating its own
        // domain's Syncs (and stops self-submitting) until re-promoted.
        if self
            .election
            .as_ref()
            .is_some_and(|e| !e.acting(home as u8))
        {
            return;
        }
        // The GM's own-domain instance stores its self-offset of zero
        // each interval — this is what keeps the GM inside the
        // distributed FTA ensemble (and what bootstraps the initial
        // domain's GM through the startup protocol). Compromised VMs
        // keep doing this too (stealthy attacker).
        if self.config.gm_mutual_sync {
            let outcome = self.aggregator.submit_self(home, clock.now());
            self.report(outcome, out);
        } else {
            self.gm_active = true;
        }
        // A restarted (or initial) GM only serves its domain once its own
        // clock has converged to the ensemble.
        if !self.gm_active && byzantine.is_none() {
            if self.aggregator.mode() != AggregationMode::FaultTolerant {
                return;
            }
            self.gm_active = true;
            out.push(NodeOutput::GmResumed);
        }
        let master = self.master.as_mut().expect("home domain has a master");
        // A rogue master lies on every domain it serves, including
        // captured foreign ones.
        if let Some(offset) = byzantine {
            master.pot_offset = offset;
            for m in self.acquired.values_mut() {
                m.pot_offset = offset;
            }
        }
        let (bytes, seq) = master.make_sync();
        let domain = home as u8;
        out.push(send(
            bytes,
            Some(TxToken::Sync { domain, seq }),
            TxTiming::Launch,
        ));
    }

    /// The hardware egress timestamp of the event message `token` was
    /// issued for became available.
    pub fn on_tx_timestamp(&mut self, token: TxToken, ts: ClockTime, out: &mut Vec<NodeOutput>) {
        match token {
            TxToken::Sync { .. } => {
                let origin = self.sync_origin(token);
                if let Some(fu) = origin.and_then(|(m, seq)| m.sync_sent(seq, ts)) {
                    out.push(send(fu, None, TxTiming::Driver));
                }
            }
            TxToken::PdelayReq { seq } => self.pd.request_sent(seq, ts),
            TxToken::PdelayResp { seq, requesting } => {
                let fu = self.pd.make_resp_follow_up(seq, requesting, ts);
                out.push(send(fu, None, TxTiming::Driver));
            }
            // End stations relay nothing.
            TxToken::RelayedSync { .. } => {}
        }
    }

    /// One election round: expire stale Announce claims, decide, follow
    /// the transitions, announce every domain this node acts for.
    pub fn on_election_tick(&mut self, clock: &mut PhcAt<'_>, out: &mut Vec<NodeOutput>) {
        let Some(election) = self.election.as_mut() else {
            return;
        };
        for ev in election.step(clock.now()) {
            match ev {
                ElectionEvent::Promoted { domain } => self.start_acting(domain),
                ElectionEvent::Demoted { domain } => self.stop_acting(domain),
                ElectionEvent::Elected { .. } => {}
            }
            out.push(NodeOutput::Election(ev));
        }
        let election = self.election.as_mut().expect("checked above");
        for d in election.acting_domains() {
            let bytes = election.make_announce(d).encode();
            out.push(send(bytes, None, TxTiming::Driver));
        }
    }

    /// A gPTP frame arrived; `rx_ts` is its hardware receive timestamp
    /// (meaningful for event messages only — Sync, Pdelay_Req,
    /// Pdelay_Resp).
    pub fn on_frame(
        &mut self,
        bytes: &[u8],
        rx_ts: ClockTime,
        clock: &mut PhcAt<'_>,
        out: &mut Vec<NodeOutput>,
    ) {
        // A VM with no election has no use for an Announce: settle it
        // from the type nibble, before `Message::decode` allocates its
        // path trace.
        if self.election.is_none() && MessageType::peek(bytes) == Some(MessageType::Announce) {
            if !self.config.election {
                out.push(NodeOutput::Unhandled);
            }
            return;
        }
        let Ok(msg) = Message::decode(bytes) else {
            out.push(NodeOutput::Unhandled);
            return;
        };
        match &msg {
            Message::Sync { header, .. } => {
                if let Some(slave) = self.slaves.get_mut(usize::from(header.domain)) {
                    slave.handle_sync(&msg, rx_ts);
                }
            }
            Message::FollowUp { header, .. } => {
                // Note: a compromised VM keeps aggregating benignly — the
                // paper's attacker is stealthy (its own node stays
                // synchronized; only the distributed
                // preciseOriginTimestamps are malicious), which is what
                // makes the first strike in Fig. 3a invisible to the
                // measured precision.
                let domain = usize::from(header.domain);
                // A domain this VM currently originates Syncs for (its
                // own as acting GM, or one acquired by election) has no
                // slave function; in the prior-work baseline a GM VM has
                // none at all.
                let mastered = (self.home == Some(domain) && self.gm_active)
                    || self.acquired.contains_key(&header.domain);
                if mastered || (self.home.is_some() && !self.config.gm_mutual_sync) {
                    return;
                }
                let Some(slave) = self.slaves.get_mut(domain) else {
                    return;
                };
                let link = self.pd.link_state();
                let sample = slave.handle_follow_up(&msg, link.delay(), link.neighbor_rate_ratio);
                if let Some(sample) = sample {
                    let outcome = self.aggregator.submit(
                        domain,
                        sample.offset,
                        sample.sync_rx_local,
                        sample.rate_ratio,
                        clock.now(),
                    );
                    self.report(outcome, out);
                }
            }
            Message::PdelayReq { .. }
            | Message::PdelayResp { .. }
            | Message::PdelayRespFollowUp { .. } => {
                if let Some(ctx) = self.pd.handle(&msg, rx_ts) {
                    let token = TxToken::PdelayResp {
                        seq: ctx.seq,
                        requesting: ctx.requesting_port,
                    };
                    out.push(send(ctx.resp, Some(token), TxTiming::Turnaround));
                }
            }
            Message::Announce { header, .. } => {
                if !self.config.election {
                    out.push(NodeOutput::Unhandled);
                } else if let Some(e) = self.election.as_mut() {
                    e.on_announce(header.domain, &msg, clock.now());
                }
            }
        }
    }
}

impl SnapState for MultiDomainNode {
    // Hand-written: which optional engines exist is configuration
    // (checked against the stream's presence bytes), and the acquired
    // master functions are created by the load itself.
    fn save_state(&self, w: &mut Writer) {
        self.master.is_some().put(w);
        if let Some(m) = &self.master {
            m.save_state(w);
        }
        self.gm_active.put(w);
        for s in &self.slaves {
            s.save_state(w);
        }
        self.aggregator.save_state(w);
        self.pd.save_state(w);
        self.election.is_some().put(w);
        if let Some(e) = &self.election {
            e.save_state(w);
        }
        // Acquired masters are dynamic: encode domain keys so load can
        // reconstruct each function before overwriting its state.
        self.acquired.len().put(w);
        for (d, m) in &self.acquired {
            d.put(w);
            m.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        if bool::get(r)? != self.master.is_some() {
            return Err(SnapError::Malformed("sync master presence"));
        }
        if let Some(m) = &mut self.master {
            m.load_state(r)?;
        }
        self.gm_active = Snap::get(r)?;
        for s in &mut self.slaves {
            s.load_state(r)?;
        }
        self.aggregator.load_state(r)?;
        self.pd.load_state(r)?;
        if bool::get(r)? != self.election.is_some() {
            return Err(SnapError::Malformed("election presence"));
        }
        if let Some(e) = &mut self.election {
            e.load_state(r)?;
        }
        self.acquired.clear();
        for _ in 0..r.take_count()? {
            let d = u8::get(r)?;
            // The log2 interval is part of the saved state.
            let mut m = SyncMaster::new(d, self.port, self.config.log_sync_interval);
            m.load_state(r)?;
            if self.acquired.insert(d, m).is_some() {
                return Err(SnapError::Malformed("duplicate acquired domain"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_election::ElectionConfig;
    use tsn_time::{Phc, SimTime};

    type Node = MultiDomainNode;

    fn frame(n: &mut Node, c: &mut Phc, t: SimTime, b: &[u8], rx: ClockTime) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        n.on_frame(b, rx, &mut c.at(t), &mut out);
        out
    }

    fn tick(n: &mut Node, c: &mut Phc, t: SimTime) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        n.on_sync_tick(None, &mut c.at(t), &mut out);
        out
    }

    fn tx_timestamp(n: &mut Node, tx: &Transmission, ts: ClockTime) -> Vec<Transmission> {
        let mut out = Vec::new();
        n.on_tx_timestamp(tx.token.expect("an event message"), ts, &mut out);
        sends(out)
    }

    /// The transmissions among `outs`.
    fn sends(outs: Vec<NodeOutput>) -> Vec<Transmission> {
        outs.into_iter()
            .filter_map(|o| match o {
                NodeOutput::Send(tx) => Some(tx),
                _ => None,
            })
            .collect()
    }

    /// Wires two nodes back to back over an ideal 2 µs link and runs
    /// `rounds` synchronization intervals. Returns the client's PHC
    /// offset from the GM's at the end.
    fn run_pair(rounds: usize, client_epoch_ns: i64) -> Nanos {
        let link = Nanos::from_nanos(2_000);
        let cfg = NodeConfig::single_domain();
        let mut gm = MultiDomainNode::new(cfg.clone(), 1, Some(0));
        let mut client = MultiDomainNode::new(cfg, 2, None);
        let gmc = &mut Phc::new(ClockTime::from_nanos(1_000_000_000), 1_000.0);
        let cc = &mut Phc::new(
            ClockTime::from_nanos(1_000_000_000 + client_epoch_ns),
            -2_000.0,
        );
        let s = Nanos::from_millis(125);
        let mut t = SimTime::from_millis(10);

        for round in 0..rounds {
            // Peer delay every 8th round (1 s cadence).
            if round % 8 == 0 {
                let mut out = Vec::new();
                client.on_pdelay_tick(&mut out);
                let req = sends(out).remove(0);
                let t1 = cc.now(t);
                tx_timestamp(&mut client, &req, t1);
                let t_arr = t + link;
                let t2 = gmc.now(t_arr);
                let resp = sends(frame(&mut gm, gmc, t_arr, &req.bytes, t2)).remove(0);
                let t_dep = t_arr + Nanos::from_micros(100);
                let t3 = gmc.now(t_dep);
                let t_back = t_dep + link;
                let t4 = cc.now(t_back);
                frame(&mut client, cc, t_back, &resp.bytes, t4);
                for fu in tx_timestamp(&mut gm, &resp, t3) {
                    frame(&mut client, cc, t_back + link, &fu.bytes, ClockTime::ZERO);
                }
            }

            // Sync interval (the GM serves once its own startup is done).
            for sync in sends(tick(&mut gm, gmc, t)) {
                let tx_t = t + Nanos::from_micros(50);
                let tx_ts = gmc.now(tx_t);
                let rx_ts = cc.now(tx_t + link);
                frame(&mut client, cc, tx_t + link, &sync.bytes, rx_ts);
                for fu in tx_timestamp(&mut gm, &sync, tx_ts) {
                    let t_fu = tx_t + link + Nanos::from_micros(20);
                    for o in frame(&mut client, cc, t_fu, &fu.bytes, ClockTime::ZERO) {
                        if let NodeOutput::Aggregated(a) = o {
                            cc.apply(t_fu + Nanos::from_micros(1), a.servo);
                        }
                    }
                }
            }
            t += s;
        }
        cc.now(t) - gmc.now(t)
    }

    #[test]
    fn back_to_back_pair_converges() {
        // From 40 µs initial offset to sub-µs (the residual few hundred
        // ns stem from the hand-rolled harness's coarse NRR cadence).
        let off = run_pair(200, 40_000);
        assert!(off.abs() < Nanos::from_nanos(500), "offset {off}");
    }

    #[test]
    fn converges_from_negative_epoch_too() {
        let off = run_pair(200, -35_000);
        assert!(off.abs() < Nanos::from_nanos(500), "offset {off}");
    }

    /// A grandmaster past its startup (serving its domain), its clock,
    /// and the instant of its last tick.
    fn serving_gm(cfg: NodeConfig) -> (MultiDomainNode, Phc, SimTime) {
        let mut gm = MultiDomainNode::new(cfg, 1, Some(0));
        let mut clock = Phc::new(ClockTime::from_nanos(1_000_000_000), 0.0);
        let mut t = SimTime::from_millis(10);
        while !gm.acting(0) {
            t += Nanos::from_millis(125);
            tick(&mut gm, &mut clock, t);
        }
        (gm, clock, t)
    }

    /// One Sync + Follow_Up of `domain` from a foreign master, received
    /// by `node` 3 µs after a departure at master time 1 s.
    fn hear_domain(n: &mut Node, c: &mut Phc, t: SimTime, domain: u8) -> Vec<NodeOutput> {
        let port = PortIdentity::new(ClockIdentity::for_index(77), 1);
        let mut master = SyncMaster::new(domain, port, -3);
        let (sync, seq) = master.make_sync();
        let tx = ClockTime::from_nanos(1_000_000_000);
        frame(n, c, t, &sync, tx + Nanos::from_micros(3));
        let fu = master.sync_sent(seq, tx).expect("follow-up");
        frame(n, c, t, &fu, ClockTime::ZERO)
    }

    #[test]
    fn gm_emits_sync_and_follow_up() {
        let (mut gm, mut clock, t) = serving_gm(NodeConfig::single_domain());
        let sync = sends(tick(&mut gm, &mut clock, t)).remove(0);
        assert_eq!(sync.timing, TxTiming::Launch);
        let fu = tx_timestamp(&mut gm, &sync, ClockTime::from_nanos(100));
        assert!(matches!(fu.as_slice(), [Transmission { token: None, .. }]));
    }

    #[test]
    fn tx_timestamp_timeout_suppresses_follow_up() {
        let (mut gm, mut clock, t) = serving_gm(NodeConfig::single_domain());
        let sync = sends(tick(&mut gm, &mut clock, t)).remove(0);
        let before = gm.master_faults().0;
        gm.on_tx_timestamp_timeout(sync.token.expect("token"));
        assert_eq!(gm.master_faults().0, before + 1);
        // A late timestamp after the timeout yields nothing.
        assert!(tx_timestamp(&mut gm, &sync, ClockTime::from_nanos(100)).is_empty());
    }

    #[test]
    fn unmeasured_link_assumes_two_microseconds() {
        let mut client = MultiDomainNode::new(NodeConfig::single_domain(), 2, None);
        let mut clock = Phc::new(ClockTime::from_nanos(1_000_000_000), 0.0);
        assert_eq!(client.mean_link_delay(), None);
        // Received 3 µs after departure: 2 µs assumed link delay leaves a
        // 1 µs offset.
        let outs = hear_domain(&mut client, &mut clock, SimTime::from_millis(1), 0);
        let [NodeOutput::Aggregated(a)] = outs.as_slice() else {
            panic!("expected one aggregation, got {outs:?}");
        };
        assert_eq!(a.offset, Nanos::from_micros(1));
    }

    #[test]
    fn no_slave_function_for_mastered_or_acquired_domains() {
        let cfg = NodeConfig {
            election: true,
            ..NodeConfig::paper_default()
        };
        let ids = (0..4).map(ClockIdentity::for_index).collect();
        let election = NodeElection::new(1, ids, &ElectionConfig::default());
        let mut gm = MultiDomainNode::new(cfg, 1, Some(1)).with_election(election);
        let mut clock = Phc::new(ClockTime::from_nanos(1_000_000_000), 0.0);
        let t = SimTime::from_millis(1);
        gm.compromise(Nanos::ZERO); // serves its home domain from now on
        assert!(gm.capture(0));
        for domain in [0, 1] {
            assert!(hear_domain(&mut gm, &mut clock, t, domain).is_empty());
            assert!(gm.shmem().slots[usize::from(domain)].is_none());
        }
        // Any other domain is slaved to as usual.
        hear_domain(&mut gm, &mut clock, t, 2);
        assert!(gm.shmem().slots[2].is_some());
    }

    #[test]
    fn baseline_gm_without_mutual_sync_never_aggregates() {
        let cfg = NodeConfig {
            gm_mutual_sync: false,
            ..NodeConfig::paper_default()
        };
        let (mut gm, mut clock, t) = serving_gm(cfg);
        let outs = tick(&mut gm, &mut clock, t);
        assert!(matches!(outs.as_slice(), [NodeOutput::Send(_)]), "{outs:?}");
        assert!(hear_domain(&mut gm, &mut clock, t, 2).is_empty());
        assert_eq!(gm.shmem().aggregations, 0);
        assert!(gm.shmem().slots.iter().all(Option::is_none));
    }

    #[test]
    fn client_emits_nothing_on_sync_tick() {
        let mut client = MultiDomainNode::new(NodeConfig::single_domain(), 2, None);
        let mut clock = Phc::new(ClockTime::ZERO, 0.0);
        assert!(tick(&mut client, &mut clock, SimTime::ZERO).is_empty());
    }

    /// A frame that does not decode — garbage, an unknown `messageType`
    /// nibble, a truncated Sync — reaches no engine and is reported, so
    /// the embedding can count it.
    #[test]
    fn garbage_frames_ignored() {
        let mut node = MultiDomainNode::new(NodeConfig::paper_default(), 3, None);
        let mut clock = Phc::new(ClockTime::ZERO, 0.0);
        let port = PortIdentity::new(ClockIdentity::for_index(77), 1);
        let (sync, _) = SyncMaster::new(0, port, -3).make_sync();
        let mut unknown = sync.to_vec();
        unknown[0] = (unknown[0] & 0xF0) | 0x7;
        let truncated = &sync[..sync.len() - 1];
        for bytes in [b"not a ptp frame".as_slice(), &unknown, truncated] {
            let outs = frame(&mut node, &mut clock, SimTime::ZERO, bytes, ClockTime::ZERO);
            assert!(
                matches!(outs.as_slice(), [NodeOutput::Unhandled]),
                "{outs:?}"
            );
        }
        let outs = frame(&mut node, &mut clock, SimTime::ZERO, &sync, ClockTime::ZERO);
        assert!(outs.is_empty(), "{outs:?}");
    }

    #[test]
    fn announce_without_an_election_never_reaches_the_decoder() {
        let ids: Vec<_> = (0..4).map(ClockIdentity::for_index).collect();
        let mut gm = NodeElection::new(1, ids, &ElectionConfig::default());
        let announce = gm.make_announce(1).encode();
        // Cut inside the path trace: the type nibble is all that is read.
        let cut = &announce[..announce.len() - 3];
        let mut clock = Phc::new(ClockTime::ZERO, 0.0);
        let mut hear = |election: bool, bytes: &[u8]| {
            let cfg = NodeConfig {
                election,
                ..NodeConfig::paper_default()
            };
            let mut vm = MultiDomainNode::new(cfg, 3, None);
            frame(&mut vm, &mut clock, SimTime::ZERO, bytes, ClockTime::ZERO)
        };
        // A BMCA deployment's plain VM drops it by design ...
        assert!(hear(true, &announce).is_empty());
        assert!(hear(true, cut).is_empty());
        // ... external port configuration has no role for it.
        for bytes in [&announce[..], cut] {
            let outs = hear(false, bytes);
            assert!(
                matches!(outs.as_slice(), [NodeOutput::Unhandled]),
                "{outs:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn master_domain_validated() {
        MultiDomainNode::new(NodeConfig::single_domain(), 1, Some(5));
    }
}
