//! Egress-port transmission model: strict-priority queuing (IEEE 802.1Q)
//! with line-rate serialization.
//!
//! A port transmits one frame at a time; while busy, arriving frames
//! queue per traffic class and the highest PCP wins when the port frees
//! (no preemption — a 1500 B best-effort frame in flight delays even a
//! PCP-7 gPTP frame by up to ~12 µs at 1 Gb/s, which is precisely why
//! gPTP relies on hardware timestamping rather than low latency).
//!
//! The type is generic over the queued payload so the simulation world
//! can carry its transmission context alongside the frame.
//!
//! # Wake-ups
//!
//! A port needs to be told when its in-flight frame completes only if a
//! frame is waiting behind it — in the simulated traffic, about one
//! departure in six. The port is sans-IO about it: the embedding hands
//! [`EgressPort::begin_transmission`] the event-queue sequence number it
//! *reserved* for the completion, and the port hands back a [`WakeUp`]
//! — "call me at `(at, seq)`" — at the moment a frame is first waiting:
//! from `begin_transmission` itself if the queue is already non-empty,
//! else from the first [`EgressPort::enqueue`] behind the in-flight
//! frame. A completion nobody waits for is never asked for.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tsn_time::{Nanos, SimTime};

#[derive(Debug)]
struct QEntry<T> {
    /// Strict priority (higher first), then FIFO within a class.
    key: (Reverse<u8>, u64),
    item: T,
}

impl<T> PartialEq for QEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for QEntry<T> {}
impl<T> PartialOrd for QEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: we want the smallest key (highest
        // priority via Reverse, earliest seq) on top, so compare reversed.
        other.key.cmp(&self.key)
    }
}

/// A port's request to be woken when its in-flight frame completes:
/// the embedding schedules its "port free" event at exactly `(at, seq)`
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeUp {
    /// The instant the in-flight frame completes.
    pub at: SimTime,
    /// The sequence number reserved for the wake-up at departure.
    pub seq: u64,
}

/// One egress port's transmission state.
///
/// # Examples
///
/// ```
/// use tsn_netsim::{EgressPort, WakeUp};
/// use tsn_time::{Nanos, SimTime};
///
/// let mut port: EgressPort<&str> = EgressPort::new();
/// let t = SimTime::from_millis(1);
/// assert!(!port.is_busy(t));
/// // Nothing is waiting: the port does not ask to be woken.
/// assert_eq!(port.begin_transmission(t, Nanos::from_micros(12), 41), None);
/// // The first frame behind the in-flight one asks, the second need not.
/// let at = t + Nanos::from_micros(12);
/// assert_eq!(port.enqueue(0, "best effort"), Some(WakeUp { at, seq: 41 }));
/// assert_eq!(port.enqueue(7, "gptp sync"), None);
/// // When the port frees, the PCP-7 frame goes first.
/// assert_eq!(port.pop_ready(), Some((7, "gptp sync")));
/// assert_eq!(port.pop_ready(), Some((0, "best effort")));
/// ```
#[derive(Debug)]
pub struct EgressPort<T> {
    busy_until: SimTime,
    /// Sequence number reserved for the in-flight frame's completion
    /// while nobody has asked for it. Invariant: `Some` only with an
    /// empty queue (the first waiting frame takes it).
    wake: Option<u64>,
    heap: BinaryHeap<QEntry<T>>,
    next_seq: u64,
    /// Total frames that waited in the queue (diagnostic).
    pub queued_frames: u64,
}

impl<T> Default for EgressPort<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EgressPort<T> {
    /// Creates an idle port.
    pub fn new() -> Self {
        EgressPort {
            busy_until: SimTime::ZERO,
            wake: None,
            heap: BinaryHeap::new(),
            next_seq: 0,
            queued_frames: 0,
        }
    }

    /// `true` if a frame is on the wire at `now`.
    pub fn is_busy(&self, now: SimTime) -> bool {
        now < self.busy_until
    }

    /// The instant the in-flight frame completes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Marks the port busy for `duration` starting at `now`.
    /// `wake_seq` is the sequence number the caller reserved for the
    /// completion; it comes back as a [`WakeUp`] right away if frames
    /// are already waiting, else from the first [`EgressPort::enqueue`]
    /// behind this transmission, else never.
    ///
    /// # Panics
    ///
    /// Panics if the port is already busy at `now` — the caller must
    /// serialize transmissions.
    pub fn begin_transmission(
        &mut self,
        now: SimTime,
        duration: Nanos,
        wake_seq: u64,
    ) -> Option<WakeUp> {
        assert!(!self.is_busy(now), "port already transmitting");
        self.busy_until = now + duration;
        self.wake = Some(wake_seq);
        self.take_wake_if_waiting()
    }

    /// Queues an item at `priority` (0–7, higher first). Returns the
    /// wake-up request if this is the first item waiting behind the
    /// in-flight frame. (Callers queue behind a frame on the wire or
    /// behind a backlog — an idle, empty port transmits at once — so a
    /// request, when there is one, is due in the future.)
    pub fn enqueue(&mut self, priority: u8, item: T) -> Option<WakeUp> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queued_frames += 1;
        self.heap.push(QEntry {
            key: (Reverse(priority), seq),
            item,
        });
        self.take_wake_if_waiting()
    }

    fn take_wake_if_waiting(&mut self) -> Option<WakeUp> {
        if self.heap.is_empty() {
            return None;
        }
        let at = self.busy_until;
        self.wake.take().map(|seq| WakeUp { at, seq })
    }

    /// The reserved wake-up nobody has asked for yet, if any (its
    /// sequence number must predate the embedding's event counter —
    /// restore validates that).
    pub fn unclaimed_wake_seq(&self) -> Option<u64> {
        self.wake
    }

    /// Pops the next item to transmit: highest priority, FIFO within a
    /// class.
    pub fn pop_ready(&mut self) -> Option<(u8, T)> {
        self.heap.pop().map(|e| (e.key.0 .0, e.item))
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Dequeue order is strict priority, FIFO within a class, and
        /// conserves every enqueued item.
        #[test]
        fn strict_priority_fifo_conservation(
            items in proptest::collection::vec((0u8..8, any::<u32>()), 1..100)
        ) {
            let mut port: EgressPort<(usize, u32)> = EgressPort::new();
            for (idx, (prio, payload)) in items.iter().enumerate() {
                port.enqueue(*prio, (idx, *payload));
            }
            let mut out = Vec::new();
            while let Some((prio, item)) = port.pop_ready() {
                out.push((prio, item));
            }
            prop_assert_eq!(out.len(), items.len());
            // Priorities non-increasing.
            for w in out.windows(2) {
                prop_assert!(w[0].0 >= w[1].0);
            }
            // FIFO within each class: original indices increase.
            for p in 0u8..8 {
                let idxs: Vec<usize> = out
                    .iter()
                    .filter(|(prio, _)| *prio == p)
                    .map(|(_, (idx, _))| *idx)
                    .collect();
                for w in idxs.windows(2) {
                    prop_assert!(w[0] < w[1], "class {p} reordered");
                }
            }
            // Conservation: the multiset of payloads survives.
            let mut sent: Vec<u32> = items.iter().map(|(_, p)| *p).collect();
            let mut got: Vec<u32> = out.iter().map(|(_, (_, p))| *p).collect();
            sent.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(sent, got);
        }

        /// Busy windows never overlap when transmissions are serialized
        /// through `busy_until`.
        #[test]
        fn busy_windows_disjoint(durations in proptest::collection::vec(1i64..10_000, 1..50)) {
            let mut port: EgressPort<u32> = EgressPort::new();
            let mut t = SimTime::from_nanos(0);
            for (i, d) in durations.iter().enumerate() {
                prop_assert!(!port.is_busy(t));
                prop_assert_eq!(port.begin_transmission(t, Nanos::from_nanos(*d), i as u64), None);
                let end = port.busy_until();
                prop_assert_eq!(end, t + Nanos::from_nanos(*d), "duration index {}", i);
                t = end; // next transmission starts when this one ends
            }
        }
    }
}

use tsn_snapshot::{Reader, Snap, SnapError, SnapState, Writer};

// Hand-written: the heap travels in canonical order and is rebuilt.
impl<T: Snap> SnapState for EgressPort<T> {
    fn save_state(&self, w: &mut Writer) {
        self.busy_until.put(w);
        self.wake.put(w);
        self.next_seq.put(w);
        self.queued_frames.put(w);
        // Canonical order: the heap key (priority descending, FIFO seq),
        // which is a total order because seq is unique.
        let mut entries: Vec<&QEntry<T>> = self.heap.iter().collect();
        entries.sort_by_key(|e| e.key);
        entries.len().put(w);
        for e in entries {
            e.key.0 .0.put(w);
            e.key.1.put(w);
            e.item.put(w);
        }
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.busy_until = Snap::get(r)?;
        self.wake = Snap::get(r)?;
        self.next_seq = Snap::get(r)?;
        self.queued_frames = Snap::get(r)?;
        let n = r.take_count()?;
        self.heap = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            let prio = u8::get(r)?;
            let seq = u64::get(r)?;
            let item = T::get(r)?;
            self.heap.push(QEntry {
                key: (Reverse(prio), seq),
                item,
            });
        }
        // A reserved wake-up is handed out with the first waiting frame
        // and exists only once a transmission began: anything else would
        // strand the queue or wake a port that never sent.
        if self.wake.is_some() && (!self.heap.is_empty() || self.busy_until == SimTime::ZERO) {
            return Err(SnapError::Malformed("egress wake-up on an idle port"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_port_not_busy() {
        let port: EgressPort<u32> = EgressPort::new();
        assert!(!port.is_busy(SimTime::from_secs(1)));
        assert!(port.is_empty());
    }

    #[test]
    fn busy_window_tracks_duration() {
        let mut port: EgressPort<u32> = EgressPort::new();
        let t = SimTime::from_millis(5);
        port.begin_transmission(t, Nanos::from_micros(12), 0);
        assert!(port.is_busy(t + Nanos::from_micros(11)));
        assert!(!port.is_busy(t + Nanos::from_micros(12)));
        assert_eq!(port.busy_until(), t + Nanos::from_micros(12));
    }

    #[test]
    fn strict_priority_then_fifo() {
        let mut port: EgressPort<&str> = EgressPort::new();
        port.enqueue(0, "be-1");
        port.enqueue(7, "ptp-1");
        port.enqueue(0, "be-2");
        port.enqueue(7, "ptp-2");
        port.enqueue(6, "probe");
        let order: Vec<&str> = std::iter::from_fn(|| port.pop_ready().map(|(_, i)| i)).collect();
        assert_eq!(order, vec!["ptp-1", "ptp-2", "probe", "be-1", "be-2"]);
    }

    #[test]
    #[should_panic(expected = "already transmitting")]
    fn overlapping_transmissions_rejected() {
        let mut port: EgressPort<u32> = EgressPort::new();
        let t = SimTime::from_millis(1);
        port.begin_transmission(t, Nanos::from_micros(10), 0);
        port.begin_transmission(t + Nanos::from_micros(5), Nanos::from_micros(10), 1);
    }

    #[test]
    fn wake_up_is_requested_once_and_only_for_a_waiting_frame() {
        let mut port: EgressPort<u32> = EgressPort::new();
        let t = SimTime::from_millis(1);
        let d = Nanos::from_micros(10);
        // Nobody waits: no request, and the next departure replaces the
        // reservation.
        assert_eq!(port.begin_transmission(t, d, 5), None);
        assert_eq!(port.unclaimed_wake_seq(), Some(5));
        assert_eq!(port.begin_transmission(t + d, d, 9), None);
        // First waiting frame claims it, at the completion instant.
        let wake = WakeUp {
            at: t + d + d,
            seq: 9,
        };
        assert_eq!(port.enqueue(0, 1), Some(wake));
        assert_eq!(port.enqueue(7, 2), None);
        assert_eq!(port.unclaimed_wake_seq(), None);
        // Departing with a backlog asks immediately.
        assert_eq!(port.pop_ready(), Some((7, 2)));
        let wake = WakeUp {
            at: wake.at + d,
            seq: 12,
        };
        assert_eq!(port.begin_transmission(wake.at - d, d, 12), Some(wake));
    }

    fn encoded(port: &EgressPort<u32>) -> Vec<u8> {
        let mut w = Writer::new();
        port.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn unclaimed_wake_up_round_trips_and_a_stranding_one_is_rejected() {
        let mut port: EgressPort<u32> = EgressPort::new();
        port.begin_transmission(SimTime::from_millis(1), Nanos::from_micros(10), 77);
        let bytes = encoded(&port);
        let mut restored: EgressPort<u32> = EgressPort::new();
        restored.load_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.unclaimed_wake_seq(), Some(77));
        assert_eq!(encoded(&restored), bytes);

        // The same wake-up beside a waiting frame, or on a port that
        // never transmitted, decodes but is refused.
        port.enqueue(0, 3);
        port.wake = Some(77);
        let err = restored.load_state(&mut Reader::new(&encoded(&port)));
        assert!(matches!(err, Err(SnapError::Malformed(_))), "{err:?}");
        let mut idle: EgressPort<u32> = EgressPort::new();
        idle.wake = Some(0);
        let err = restored.load_state(&mut Reader::new(&encoded(&idle)));
        assert!(matches!(err, Err(SnapError::Malformed(_))), "{err:?}");
    }

    #[test]
    fn queue_counter_tracks() {
        let mut port: EgressPort<u32> = EgressPort::new();
        for i in 0..5 {
            port.enqueue(0, i);
        }
        assert_eq!(port.queued_frames, 5);
        assert_eq!(port.len(), 5);
    }
}
