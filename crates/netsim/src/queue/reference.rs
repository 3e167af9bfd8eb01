//! The reference event queue: a `BinaryHeap` ordered by `(time, seq)`.
//!
//! This is the original, obviously-correct implementation. It is kept —
//! and always compiled — as the differential-testing oracle for the
//! production [`WheelQueue`](super::WheelQueue): the two must emit
//! identical `(time, seq, event)` pop sequences for identical schedules,
//! and their snapshot encodings are byte-compatible. Building with the
//! `reference-queue` feature swaps this implementation back in as
//! [`EventQueue`](super::EventQueue) for whole-campaign differential runs.

use super::CTL_SEQ_BASE;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tsn_snapshot::{Reader, Snap, SnapError, SnapState, Writer};
use tsn_time::{Nanos, SimTime};

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic event queue over an application-defined event type.
///
/// # Examples
///
/// ```
/// use tsn_netsim::ReferenceQueue;
/// use tsn_time::{Nanos, SimTime};
///
/// let mut q = ReferenceQueue::new();
/// q.schedule_at(SimTime::from_millis(10), "b");
/// q.schedule_at(SimTime::from_millis(5), "a");
/// q.schedule_in(Nanos::from_millis(10), "c"); // relative to now (= 0)
/// assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct ReferenceQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    next_seq: u64,
    next_ctl: u64,
    popped: u64,
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            next_ctl: CTL_SEQ_BASE,
            popped: 0,
        }
    }

    /// The current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time — events cannot be
    /// scheduled in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled at {at}, before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Schedules a *control* event (fault injection, attacker strike) at
    /// absolute time `at`.
    ///
    /// Control events take sequence numbers from a separate space above
    /// [`CTL_SEQ_BASE`], so scheduling them does not consume data-event
    /// sequence numbers: configurations that differ only in their control
    /// schedule stay byte-identical until the first control event fires.
    /// On a time tie a control event sorts *after* every data event.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_ctl_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled at {at}, before current time {}",
            self.now
        );
        let seq = self.next_ctl;
        self.next_ctl += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Removes and returns all pending control events as
    /// `(time, sequence, event)` triples, sorted by `(time, sequence)`.
    ///
    /// Restore uses this to reconcile a rebuilt world's control schedule
    /// with a checkpoint that predates any control event (see
    /// [`ReferenceQueue::insert_raw`]).
    pub fn drain_ctl(&mut self) -> Vec<(SimTime, u64, E)> {
        let mut ctl = Vec::new();
        let mut keep = BinaryHeap::with_capacity(self.heap.len());
        for Reverse(s) in self.heap.drain() {
            if s.seq >= CTL_SEQ_BASE {
                ctl.push((s.at, s.seq, s.event));
            } else {
                keep.push(Reverse(s));
            }
        }
        self.heap = keep;
        ctl.sort_by_key(|&(at, seq, _)| (at, seq));
        ctl
    }

    /// Number of pending control events.
    pub fn ctl_len(&self) -> usize {
        self.heap
            .iter()
            .filter(|Reverse(s)| s.seq >= CTL_SEQ_BASE)
            .count()
    }

    /// Next sequence number of the data space: every number handed out
    /// so far — scheduled or reserved — is below it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Next sequence number of the control space (equals
    /// [`CTL_SEQ_BASE`] while no control event has ever been scheduled).
    pub fn next_ctl_seq(&self) -> u64 {
        self.next_ctl
    }

    /// Takes the sequence number the next
    /// [`ReferenceQueue::schedule_at`] would have used, without
    /// scheduling anything (see [`WheelQueue::reserve_seq`]).
    ///
    /// [`WheelQueue::reserve_seq`]: super::WheelQueue::reserve_seq
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Inserts an event under an explicit sequence number — one taken
    /// from [`ReferenceQueue::reserve_seq`], or one a restore re-arms —
    /// bumping the owning sequence counter past it. The caller is
    /// responsible for sequence uniqueness.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn insert_raw(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "event inserted at {at}, before current time {}",
            self.now
        );
        if seq >= CTL_SEQ_BASE {
            self.next_ctl = self.next_ctl.max(seq + 1);
        } else {
            self.next_seq = self.next_seq.max(seq + 1);
        }
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Schedules `event` after a non-negative delay from the current time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative.
    pub fn schedule_in(&mut self, delay: Nanos, event: E) {
        assert!(!delay.is_negative(), "negative delay {delay}");
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the current time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_seq().map(|(at, _, event)| (at, event))
    }

    /// Pops the next event together with its tie-break sequence number.
    ///
    /// Diagnostic surface for the differential test harness, which
    /// asserts identical `(time, seq, event)` sequences across queue
    /// implementations.
    pub fn pop_seq(&mut self) -> Option<(SimTime, u64, E)> {
        let Reverse(s) = self.heap.pop()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        self.popped += 1;
        Some((s.at, s.seq, s.event))
    }

    /// Pops the next event if its timestamp is `<= until` — the event
    /// loop's form of [`ReferenceQueue::pop`]. Returns `None` — and
    /// leaves the queue untouched — when the queue is empty or the next
    /// event lies beyond `until`.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > until {
            return None;
        }
        self.pop()
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = ReferenceQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = ReferenceQueue::new();
        q.schedule_at(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_past_panics() {
        let mut q = ReferenceQueue::new();
        q.schedule_at(SimTime::from_millis(5), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(4), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = ReferenceQueue::new();
        q.schedule_at(SimTime::from_nanos(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_until_stops_at_the_bound() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule_at(t, 1);
        q.schedule_at(SimTime::from_nanos(9), 3);
        q.schedule_at(t, 2);
        let until = SimTime::from_nanos(8);
        assert_eq!(q.pop_until(until), Some((t, 1)));
        assert_eq!(q.pop_until(until), Some((t, 2)));
        // Beyond `until` nothing moves.
        assert_eq!(q.pop_until(until), None);
        assert_eq!((q.len(), q.now(), q.events_processed()), (1, t, 2));
        assert_eq!(
            q.pop_until(SimTime::from_nanos(9)),
            Some((SimTime::from_nanos(9), 3))
        );
        assert!(q.is_empty());
        assert_eq!(q.pop_until(SimTime::from_nanos(100)), None);
    }
}

impl<E: Snap> SnapState for ReferenceQueue<E> {
    fn save_state(&self, w: &mut Writer) {
        self.now.put(w);
        self.next_seq.put(w);
        self.next_ctl.put(w);
        self.popped.put(w);
        // The heap's internal layout is insertion-order dependent; the
        // canonical encoding is the (time, seq) sort, which the total
        // order on `Scheduled` makes unique.
        let mut entries: Vec<&Scheduled<E>> = self.heap.iter().map(|Reverse(s)| s).collect();
        entries.sort_by_key(|s| (s.at, s.seq));
        entries.len().put(w);
        for s in entries {
            s.at.put(w);
            s.seq.put(w);
            s.event.put(w);
        }
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.now = Snap::get(r)?;
        self.next_seq = Snap::get(r)?;
        self.next_ctl = Snap::get(r)?;
        self.popped = Snap::get(r)?;
        let n = r.take_count()?;
        self.heap = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            let at = SimTime::get(r)?;
            let seq = u64::get(r)?;
            let event = E::get(r)?;
            if at < self.now {
                return Err(SnapError::Malformed("queued event before current time"));
            }
            self.heap.push(Reverse(Scheduled { at, seq, event }));
        }
        Ok(())
    }
}

#[cfg(test)]
mod snap_tests {
    use super::*;

    fn encoded<E: Snap>(q: &ReferenceQueue<E>) -> Vec<u8> {
        let mut w = Writer::new();
        q.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn ctl_events_use_their_own_sequence_space() {
        let mut with_ctl = ReferenceQueue::new();
        let mut without = ReferenceQueue::new();
        for q in [&mut with_ctl, &mut without] {
            q.schedule_at(SimTime::from_millis(1), 1u64);
            q.schedule_at(SimTime::from_millis(2), 2u64);
        }
        with_ctl.schedule_ctl_at(SimTime::from_millis(9), 9u64);
        // The data event scheduled *after* the control event gets the
        // same sequence number in both queues.
        with_ctl.schedule_at(SimTime::from_millis(3), 3u64);
        without.schedule_at(SimTime::from_millis(3), 3u64);
        with_ctl.drain_ctl();
        // Identical except for the ctl counter itself (bytes 16..24 of
        // the layout: now, next_seq, next_ctl, popped, entries).
        let (a, b) = (encoded(&with_ctl), encoded(&without));
        assert_eq!(a[..16], b[..16]);
        assert_eq!(a[24..], b[24..]);
    }

    #[test]
    fn ctl_sorts_after_data_on_time_tie() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule_ctl_at(t, "ctl");
        q.schedule_at(t, "data");
        assert_eq!(q.pop().map(|(_, e)| e), Some("data"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("ctl"));
        assert_eq!(q.next_ctl_seq(), CTL_SEQ_BASE + 1);
    }

    #[test]
    fn drain_and_reinsert_roundtrips() {
        let mut q = ReferenceQueue::new();
        q.schedule_at(SimTime::from_millis(1), 10u64);
        q.schedule_ctl_at(SimTime::from_millis(4), 40u64);
        q.schedule_ctl_at(SimTime::from_millis(2), 20u64);
        let before = encoded(&q);
        let ctl = q.drain_ctl();
        assert_eq!(ctl.len(), 2);
        assert_eq!(q.ctl_len(), 0);
        assert_eq!(q.len(), 1);
        for (at, seq, ev) in ctl {
            q.insert_raw(at, seq, ev);
        }
        assert_eq!(encoded(&q), before);
        assert_eq!(q.next_ctl_seq(), CTL_SEQ_BASE + 2);
    }

    #[test]
    fn save_load_is_byte_exact() {
        let mut q = ReferenceQueue::new();
        for i in 0..20u64 {
            q.schedule_at(SimTime::from_nanos(i % 7), i);
        }
        q.schedule_ctl_at(SimTime::from_millis(1), 99);
        q.pop();
        q.pop();
        let bytes = encoded(&q);
        let mut fresh: ReferenceQueue<u64> = ReferenceQueue::new();
        fresh.load_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(encoded(&fresh), bytes);
        // Both queues pop identically from here on.
        loop {
            let (a, b) = (q.pop(), fresh.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
