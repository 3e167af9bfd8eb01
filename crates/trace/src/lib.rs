//! # tsn-trace
//!
//! Off-by-default structured execution tracing for the `clocksync`
//! simulation of *IEEE 802.1AS Multi-Domain Aggregation for Virtualized
//! Distributed Real-Time Systems* (DSN-S 2023).
//!
//! The paper's evaluation (§IV) reasons about *when* things happen —
//! servo adjustments every sync interval `S`, FTA rounds, holdover
//! entry and exit — but a campaign artifact only carries end-of-run
//! aggregates. This crate records per-run causality instead: a
//! [`TraceSink`] collects typed spans and instants (event-queue pops,
//! gPTP message tx/rx, FTA rounds with per-domain inputs and trim
//! decisions, servo updates, `SyncState` transitions, link-fault
//! windows) stamped with *simulated* time, and [`TraceReport`] exports
//! them as Chrome trace-event JSON that opens directly in
//! `ui.perfetto.dev` or `chrome://tracing`.
//!
//! The sink knows nothing of the simulation. The simulation hands its
//! observers one stream of `tsn_oracle::Observation`s, and its reading
//! of an observation as lanes, names and arguments sits beside that
//! channel (`clocksync`'s `probe.rs`); the oracle reads the same stream.
//! Like the oracle, the sink is strictly passive: it draws no
//! randomness, schedules no events, and holds no simulation state, so
//! enabling it cannot perturb the deterministic run — state hashes,
//! snapshots, and campaign artifacts are byte-identical with tracing on
//! or off (held by the observer-parity cases in `tests/trace.rs` and
//! `tests/oracle.rs`). Host wall-clock time never enters a trace file.
//!
//! ```
//! use tsn_trace::{Subsystem, TraceSink, DEFAULT_MAX_EVENTS, SIM_PID};
//! use tsn_time::SimTime;
//!
//! let mut sink = TraceSink::new(DEFAULT_MAX_EVENTS);
//! sink.pop(SimTime::from_millis(1), "transmit", Subsystem::Netsim);
//! sink.instant(SimTime::from_millis(1), "fta_round", Subsystem::Fta, 100, 0)
//!     .arg_i64("offset_ns", 125)
//!     .arg_str("used", "0:+125,1:-80,2:+10,3:+4");
//! let report = sink.finish(SimTime::from_millis(2));
//! let json = report.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tsn_time::{Nanos, SimTime};

/// The `pid` of global (non-node) trace lanes: the event queue, the
/// network fabric, faults, and measurement probes.
pub const SIM_PID: u32 = 1;

/// The `pid` of one simulated node's trace lanes (its `tid`s are the VM
/// slots).
pub fn node_pid(node: usize) -> u32 {
    100 + node as u32
}

/// The simulation subsystem a trace event belongs to. Doubles as the
/// Chrome trace-event category and as the per-subsystem activity key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// Frame transport: links, egress queues, background traffic,
    /// link-fault windows.
    Netsim,
    /// gPTP protocol activity: Sync/Follow_Up/Pdelay message tx/rx.
    Gptp,
    /// Multi-domain fault-tolerant aggregation rounds.
    Fta,
    /// PHC servo frequency/phase corrections.
    Servo,
    /// Hypervisor layer: monitors, takeovers, `CLOCK_SYNCTIME`.
    Hyp,
    /// Clock plumbing: oscillator wander steps.
    Time,
    /// Fault injection and the attacker.
    Faults,
    /// Precision measurement probes.
    Measure,
    /// BMCA grandmaster election: Announce tx/rx, role transitions,
    /// election rounds, GM handoff.
    Election,
    /// Multi-hop switch fabric: Qbv gate waits, transparent-clock
    /// corrections, cross-traffic blocking, fabric drops.
    Fabric,
}

impl Subsystem {
    /// Every subsystem, in canonical (report) order.
    pub const ALL: [Subsystem; 10] = [
        Subsystem::Netsim,
        Subsystem::Gptp,
        Subsystem::Fta,
        Subsystem::Servo,
        Subsystem::Hyp,
        Subsystem::Time,
        Subsystem::Faults,
        Subsystem::Measure,
        Subsystem::Election,
        Subsystem::Fabric,
    ];

    /// The stable textual name (trace category, activity key).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Netsim => "netsim",
            Subsystem::Gptp => "gptp",
            Subsystem::Fta => "fta",
            Subsystem::Servo => "servo",
            Subsystem::Hyp => "hyp",
            Subsystem::Time => "time",
            Subsystem::Faults => "faults",
            Subsystem::Measure => "measure",
            Subsystem::Election => "election",
            Subsystem::Fabric => "fabric",
        }
    }

    /// The `tid` lane this subsystem occupies under [`SIM_PID`]: its
    /// place in [`Subsystem::ALL`].
    pub fn lane(self) -> u32 {
        self as u32
    }
}

/// One typed argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float (rendered `null` when non-finite; JSON has no NaN).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

/// One recorded trace event (an instant, or a complete span when `dur`
/// is set).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`name` in the Chrome trace-event format).
    pub name: &'static str,
    /// Subsystem (exported as the `cat` field).
    pub cat: Subsystem,
    /// Simulated start time.
    pub ts: SimTime,
    /// Duration for complete (`ph: "X"`) spans; `None` for instants.
    pub dur: Option<Nanos>,
    /// Process lane: [`SIM_PID`] or [`node_pid`].
    pub pid: u32,
    /// Thread lane: the VM slot under a node pid, the subsystem index
    /// under [`SIM_PID`].
    pub tid: u32,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Mutable view of the event just recorded, for fluent argument
/// attachment.
pub struct EventRef<'a>(Option<&'a mut TraceEvent>);

impl EventRef<'_> {
    fn push(&mut self, key: &'static str, value: ArgValue) {
        if let Some(ev) = self.0.as_deref_mut() {
            ev.args.push((key, value));
        }
    }

    /// Attaches a signed-integer argument.
    pub fn arg_i64(mut self, key: &'static str, value: i64) -> Self {
        self.push(key, ArgValue::I64(value));
        self
    }

    /// Attaches an unsigned-integer argument.
    pub fn arg_u64(mut self, key: &'static str, value: u64) -> Self {
        self.push(key, ArgValue::U64(value));
        self
    }

    /// Attaches a float argument.
    pub fn arg_f64(mut self, key: &'static str, value: f64) -> Self {
        self.push(key, ArgValue::F64(value));
        self
    }

    /// Attaches a boolean argument.
    pub fn arg_bool(mut self, key: &'static str, value: bool) -> Self {
        self.push(key, ArgValue::Bool(value));
        self
    }

    /// Attaches a string argument.
    pub fn arg_str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.push(key, ArgValue::Str(value.into()));
        self
    }
}

/// The default cap on recorded events of a [`TraceSink`].
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// A cumulative `events` counter sample is emitted every this many
/// queue pops (a cheap timeline-density view; pops are otherwise
/// counted, not individually recorded).
const COUNTER_STRIDE: u64 = 4096;

/// Collects trace events and per-subsystem counts during a run.
///
/// The sink is bounded (`max_events`) and append-only, and every
/// mutating method is `O(1)` amortized. A run with no observer armed
/// pays one `Option` discriminant check per observation site, shared
/// with the oracle; the sink itself is only reached through the
/// observers a run armed.
#[derive(Debug)]
pub struct TraceSink {
    /// Hard cap on recorded events. Beyond it events are counted as
    /// dropped (reported in the export metadata), never silently lost.
    max_events: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
    /// Queue pops per event kind, insertion-ordered (kinds are a small
    /// closed set of static names, so a Vec beats a map).
    pop_kinds: Vec<(&'static str, u64)>,
    /// Events (pops + recorded instants/spans) per subsystem.
    subsystems: [u64; Subsystem::ALL.len()],
    pops: u64,
    /// Open begin/end spans keyed by caller-chosen ids.
    open: Vec<(u64, TraceEvent)>,
}

impl TraceSink {
    /// A new, empty sink that records at most `max_events` events.
    pub fn new(max_events: usize) -> TraceSink {
        TraceSink {
            max_events,
            events: Vec::new(),
            dropped: 0,
            pop_kinds: Vec::new(),
            subsystems: [0; Subsystem::ALL.len()],
            pops: 0,
            open: Vec::new(),
        }
    }

    fn record(&mut self, ev: TraceEvent) -> EventRef<'_> {
        if self.events.len() >= self.max_events {
            self.dropped += 1;
            return EventRef(None);
        }
        self.events.push(ev);
        EventRef(self.events.last_mut())
    }

    /// Records an event-queue pop: counted per kind and subsystem, and
    /// sampled into a cumulative counter track every 4096 pops.
    pub fn pop(&mut self, at: SimTime, kind: &'static str, sub: Subsystem) {
        self.subsystems[sub as usize] += 1;
        match self.pop_kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.pop_kinds.push((kind, 1)),
        }
        self.pops += 1;
        if self.pops.is_multiple_of(COUNTER_STRIDE) {
            let pops = self.pops;
            self.record(TraceEvent {
                name: "events",
                cat: Subsystem::Netsim,
                ts: at,
                dur: None,
                pid: SIM_PID,
                tid: 0,
                args: vec![("count", ArgValue::U64(pops))],
            });
        }
    }

    /// Records an instant event and returns a handle for attaching
    /// arguments.
    pub fn instant(
        &mut self,
        at: SimTime,
        name: &'static str,
        cat: Subsystem,
        pid: u32,
        tid: u32,
    ) -> EventRef<'_> {
        self.subsystems[cat as usize] += 1;
        self.record(TraceEvent {
            name,
            cat,
            ts: at,
            dur: None,
            pid,
            tid,
            args: Vec::new(),
        })
    }

    /// Opens a span whose end is not yet known; close it with
    /// [`TraceSink::end_span`] under the same `key`. Unclosed spans are
    /// flushed at [`TraceSink::finish`] with the run-end timestamp.
    pub fn begin_span(
        &mut self,
        key: u64,
        from: SimTime,
        name: &'static str,
        cat: Subsystem,
        pid: u32,
        tid: u32,
    ) {
        self.open.push((
            key,
            TraceEvent {
                name,
                cat,
                ts: from,
                dur: None,
                pid,
                tid,
                args: Vec::new(),
            },
        ));
    }

    /// Closes the pending span opened under `key`, recording it as a
    /// complete span. A close without a matching open is ignored (a
    /// forked run may begin mid-window).
    pub fn end_span(&mut self, key: u64, at: SimTime) {
        if let Some(i) = self.open.iter().position(|(k, _)| *k == key) {
            let (_, ev) = self.open.remove(i);
            self.close(ev, at);
        }
    }

    /// Records the opened span `ev` as a complete span ending `at`.
    fn close(&mut self, mut ev: TraceEvent, at: SimTime) {
        ev.dur = Some(at - ev.ts);
        self.subsystems[ev.cat as usize] += 1;
        self.record(ev);
    }

    /// Seals the sink: flushes still-open spans at `end` and produces
    /// the exportable report.
    pub fn finish(mut self, end: SimTime) -> TraceReport {
        for (_, ev) in std::mem::take(&mut self.open) {
            self.close(ev, end);
        }
        TraceReport {
            events: self.events,
            pop_kinds: self.pop_kinds,
            subsystems: Subsystem::ALL.into_iter().zip(self.subsystems).collect(),
            sim_events: self.pops,
            dropped: self.dropped,
        }
    }
}

/// The sealed output of one traced run: the recorded events plus its
/// per-kind pop and per-subsystem activity counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Recorded events in recording (simulated-time) order.
    pub events: Vec<TraceEvent>,
    /// Event-queue pops per event kind.
    pub pop_kinds: Vec<(&'static str, u64)>,
    /// Activity per subsystem (pops + recorded events).
    pub subsystems: Vec<(Subsystem, u64)>,
    /// Total event-queue pops the run dispatched.
    pub sim_events: u64,
    /// Events discarded at the sink's `max_events` cap.
    pub dropped: u64,
}

impl TraceReport {
    /// Renders the report as a Chrome trace-event JSON object
    /// (`{"traceEvents": [...], ...}`) that `ui.perfetto.dev` and
    /// `chrome://tracing` open directly.
    ///
    /// Timestamps are the *simulated* clock in microseconds. Process
    /// lanes follow the workspace convention: pid [`SIM_PID`] is the
    /// global `sim` process with one thread per subsystem, and pid
    /// [`node_pid`]`(i)` is `node i` with one thread per VM slot.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        out.push_str(&format!(
            "\"clock\":\"simulated\",\"sim_events\":{},\"recorded\":{},\"dropped\":{}",
            self.sim_events,
            self.events.len(),
            self.dropped
        ));
        out.push_str("},\"traceEvents\":[");
        let mut first = true;
        let mut emit = |out: &mut String, piece: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(piece);
        };
        // Metadata: name the process/thread lanes that appear.
        let mut pids: Vec<u32> = self.events.iter().map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        for pid in &pids {
            let name = if *pid == SIM_PID {
                "sim".to_string()
            } else {
                format!("node {}", pid.saturating_sub(100))
            };
            emit(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
                    json_str(&name)
                ),
            );
        }
        let mut lanes: Vec<(u32, u32)> = self.events.iter().map(|e| (e.pid, e.tid)).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for (pid, tid) in &lanes {
            let name = if *pid == SIM_PID {
                Subsystem::ALL
                    .get(*tid as usize)
                    .map_or_else(|| format!("lane {tid}"), |s| s.name().to_string())
            } else {
                format!("vm {tid}")
            };
            emit(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                    json_str(&name)
                ),
            );
        }
        for ev in &self.events {
            let ts_us = ev.ts.as_nanos() as f64 / 1_000.0;
            let mut piece = String::with_capacity(96);
            piece.push('{');
            piece.push_str(&format!("\"name\":{},", json_str(ev.name)));
            piece.push_str(&format!("\"cat\":\"{}\",", ev.cat.name()));
            match ev.dur {
                Some(dur) => {
                    let dur_us = dur.as_nanos() as f64 / 1_000.0;
                    piece.push_str(&format!(
                        "\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},"
                    ));
                }
                None if ev.name == "events" => {
                    piece.push_str(&format!("\"ph\":\"C\",\"ts\":{ts_us:.3},"));
                }
                None => {
                    piece.push_str(&format!("\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us:.3},"));
                }
            }
            piece.push_str(&format!(
                "\"pid\":{},\"tid\":{},\"args\":{{",
                ev.pid, ev.tid
            ));
            for (i, (key, value)) in ev.args.iter().enumerate() {
                if i > 0 {
                    piece.push(',');
                }
                piece.push_str(&format!("{}:", json_str(key)));
                match value {
                    ArgValue::I64(v) => piece.push_str(&v.to_string()),
                    ArgValue::U64(v) => piece.push_str(&v.to_string()),
                    ArgValue::F64(v) if v.is_finite() => piece.push_str(&format!("{v:?}")),
                    ArgValue::F64(_) => piece.push_str("null"),
                    ArgValue::Bool(v) => piece.push_str(if *v { "true" } else { "false" }),
                    ArgValue::Str(s) => piece.push_str(&json_str(s)),
                }
            }
            piece.push_str("}}");
            emit(&mut out, &piece);
        }
        out.push_str("]}");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_exports() {
        let mut sink = TraceSink::new(DEFAULT_MAX_EVENTS);
        sink.pop(SimTime::from_millis(1), "transmit", Subsystem::Netsim);
        sink.instant(
            SimTime::from_millis(2),
            "fta_round",
            Subsystem::Fta,
            node_pid(0),
            0,
        )
        .arg_i64("offset_ns", -42)
        .arg_str("mode", "fault_tolerant");
        sink.begin_span(3, SimTime::from_millis(3), "tx", Subsystem::Gptp, 101, 1);
        sink.end_span(3, SimTime::from_millis(4));
        let report = sink.finish(SimTime::from_millis(10));
        assert_eq!(report.sim_events, 1);
        assert_eq!(report.events.len(), 2);
        let json = report.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"fta_round\""));
        assert!(json.contains("\"offset_ns\":-42"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"process_name\""));
    }

    #[test]
    fn pending_spans_flush_at_finish() {
        let mut sink = TraceSink::new(DEFAULT_MAX_EVENTS);
        sink.begin_span(
            7,
            SimTime::from_millis(4),
            "link_down",
            Subsystem::Netsim,
            SIM_PID,
            0,
        );
        sink.end_span(99, SimTime::from_millis(5)); // unmatched: ignored
        let report = sink.finish(SimTime::from_millis(9));
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].dur, Some(Nanos::from_millis(5)));
    }

    #[test]
    fn cap_counts_drops_instead_of_growing() {
        let mut sink = TraceSink::new(2);
        for i in 0..5 {
            sink.instant(SimTime::from_millis(i), "x", Subsystem::Hyp, SIM_PID, 0);
        }
        let report = sink.finish(SimTime::from_millis(5));
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.dropped, 3);
        assert!(report.to_chrome_json().contains("\"dropped\":3"));
    }

    #[test]
    fn pop_counter_track_is_sampled() {
        let mut sink = TraceSink::new(DEFAULT_MAX_EVENTS);
        let pops = 2 * COUNTER_STRIDE;
        for i in 0..pops {
            sink.pop(SimTime::from_nanos(i), "transmit", Subsystem::Netsim);
        }
        let report = sink.finish(SimTime::from_nanos(pops));
        assert_eq!(report.sim_events, pops);
        assert_eq!(report.pop_kinds, vec![("transmit", pops)]);
        // Counter samples at pop 4096 and 8192.
        assert_eq!(
            report.events.iter().filter(|e| e.name == "events").count(),
            2
        );
    }

    /// A subsystem's lane is its place in `ALL`, and trace files name
    /// lanes by it: the order is part of the trace bytes.
    #[test]
    fn lanes_follow_the_canonical_order() {
        let lanes: Vec<(u32, &str)> = Subsystem::ALL
            .iter()
            .map(|s| (s.lane(), s.name()))
            .collect();
        assert_eq!(
            lanes,
            [
                (0, "netsim"),
                (1, "gptp"),
                (2, "fta"),
                (3, "servo"),
                (4, "hyp"),
                (5, "time"),
                (6, "faults"),
                (7, "measure"),
                (8, "election"),
                (9, "fabric"),
            ]
        );
    }
}
