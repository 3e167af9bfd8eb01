//! Harness spans: the outside-in trace of one traced execution.
//!
//! A span is opened around every call the benchmark makes into a layer
//! (`core.world_new`, `campaign.execute`, ...), kept in memory, and
//! written out as JSON once the run has ended. Nothing inside the
//! program under test is instrumented; what a layer does between two
//! calls is invisible from here and ends up in its caller's self time.
//! Timed executions run with the recorder off, where `begin`/`end` are
//! one branch each.

use std::time::Instant;

/// One recorded interval. `parent` indexes [`Spans::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Calls folded into this span (1 for an ordinary span; per-record
    /// work is recorded as one span carrying count and total).
    pub count: u64,
}

/// Handle returned by [`Spans::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing (timed executions).
    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// A recording recorder (the traced execution).
    pub fn on() -> Spans {
        Spans::new(true)
    }

    fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `true` when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            count: 1,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id` (and anything still open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == i {
                break;
            }
        }
    }

    /// Records `count` calls totalling `total_ns` as one child of the
    /// innermost open span, laid out from that span's start.
    pub fn fold(&mut self, name: &str, count: u64, total_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + total_ns,
            parent,
            count,
        });
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Durations, in seconds, of the spans whose name starts with
    /// `prefix`, in recording order.
    pub fn seconds_with_prefix(&self, prefix: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time of each span: its duration minus the part its direct
    /// children cover (never below zero).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// The spans as a JSON document (names are benchmark-chosen ASCII
    /// identifiers, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"count\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count, self_ns[i]
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut s = Spans::on();
        s.spans = vec![
            span("execute", 0, 100, None),
            span("core.world_new", 10, 30, Some(0)),
            span("core.run_until", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        // Grandchildren are charged to their parent only.
        assert_eq!(s.self_times_ns(), vec![20, 20, 50, 10]);
        assert_eq!(s.seconds("core.run_until"), 60e-9);
    }

    #[test]
    fn children_never_push_self_time_below_zero() {
        let mut s = Spans::on();
        s.spans = vec![span("p", 0, 10, None), span("c", 0, 25, Some(0))];
        assert_eq!(s.self_times_ns()[0], 0);
    }

    #[test]
    fn nesting_folding_and_json() {
        let mut s = Spans::on();
        let outer = s.begin("campaign.read");
        let inner = s.begin("artifact.open");
        s.end(inner);
        s.fold("artifact.decode", 5000, 1234);
        s.end(outer);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert_eq!(s.spans[2].count, 5000);
        assert_eq!(s.spans[2].end_ns - s.spans[2].start_ns, 1234);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
        let json = s.to_json();
        assert!(json.contains("\"name\":\"artifact.decode\""));
        assert!(json.contains("\"parent\":null"));
    }

    #[test]
    fn disabled_recorder_stays_empty() {
        let mut s = Spans::off();
        let id = s.begin("x");
        s.fold("y", 1, 1);
        s.end(id);
        assert!(s.spans.is_empty());
    }

    #[test]
    fn ending_an_outer_span_closes_what_is_open_inside() {
        let mut s = Spans::on();
        let outer = s.begin("outer");
        let _leaked = s.begin("inner");
        s.end(outer);
        assert!(s.open.is_empty());
        assert_eq!(s.spans[1].end_ns, s.spans[0].end_ns);
    }
}
