//! Hierarchical timing-wheel event queue — the production event core.
//!
//! # Layout
//!
//! Four wheel levels of 512 slots each; level `k` slots are `512^k` ns
//! wide, so level 0 resolves single nanoseconds and the four levels
//! together span one *super-window* of `512^4 = 2^36` ns (≈ 68.7 s).
//! Wide levels keep the µs–ms delays that dominate simulated traffic at
//! most two cascades from the bottom; occupancy is an 8-word bitmask
//! per level (one cache line each). Entries live in a slab (`Vec` +
//! free list) and slots are intrusive singly-linked lists of slab
//! indices, so scheduling is O(1) and no event payload moves during
//! heap sifts. Two side heaps complete the picture:
//!
//! * **overflow** — entries whose timestamp falls outside the cursor's
//!   current super-window (`at >> 36 != elapsed >> 36`). Keeping the
//!   wheel strictly inside one super-window means slot indices never
//!   wrap, which is what makes the ordering argument below airtight.
//! * **past** — entries legally scheduled (`at >= now`) but behind the
//!   wheel cursor `elapsed`, which can run ahead of `now` when a
//!   bounded [`WheelQueue::pop_until`] cascades entries downward and
//!   then stops because the next event lies beyond `until`.
//!
//! # Why slot-scan order preserves `(time, seq)`
//!
//! Every entry is filed at the level of the highest 9-bit digit in
//! which its timestamp differs from `elapsed` (`level_for`). Because
//! wheel entries share the cursor's super-window and are never behind
//! it, a level-`j` entry agrees with `elapsed` on all digits above `j`,
//! while a level-`k` entry (`k > j`) *exceeds* `elapsed` at digit `k`
//! — hence every level-`j` timestamp is strictly less than every
//! level-`k` timestamp. The wheel minimum therefore always lives in
//! the **lowest occupied level**, and within that level in the **first
//! occupied slot** at or ahead of the cursor (slots of one level cover
//! disjoint, increasing intervals). A level-0 slot is 1 ns wide, so it
//! holds exactly one timestamp: a pop unlinks its minimum-sequence
//! entry — the exact `(time, seq)` order of the reference heap,
//! including the [`CTL_SEQ_BASE`](super::CTL_SEQ_BASE) split (control
//! sequences are plain `u64`s above the base, so the same minimum
//! applies) and entries filed out of sequence order
//! ([`WheelQueue::insert_raw`] with a reserved number). Cascading a
//! higher-level slot moves the cursor to the slot's start (still a
//! lower bound for every pending entry) and re-files its entries at
//! strictly lower levels, so cascades terminate and never reorder.
//!
//! The side heaps cannot interleave with the wheel: `past` times are
//! `< elapsed`, wheel times are `>= elapsed`, and overflow times lie in
//! a later super-window than every wheel time — the three containers
//! partition pending events into disjoint time ranges, so events
//! sharing a timestamp never span containers.

use super::CTL_SEQ_BASE;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tsn_snapshot::{Reader, Snap, SnapError, SnapState, Writer};
use tsn_time::{Nanos, SimTime};

/// Number of wheel levels.
const LEVELS: usize = 4;
/// log2 of the slot count per level.
const SLOT_BITS: usize = 9;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Words per per-level occupancy bitmask.
const WORDS: usize = SLOTS / 64;
/// Bit position of the super-window boundary (`4 * 9`).
const SUPER_SHIFT: usize = LEVELS * SLOT_BITS;
/// Null slab index terminating slot lists and the free list.
const NIL: u32 = u32::MAX;

/// Slab cell: one scheduled event plus its intrusive slot-list link.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// Min-heap key for the `past` and `overflow` side heaps:
/// `(time in ns, sequence, slab index)`.
type HeapKey = Reverse<(u64, u64, u32)>;

/// Level of the highest 9-bit digit in which `at` differs from
/// `elapsed`. Both must lie in the same super-window and `at >=
/// elapsed`, so the result is `0..LEVELS`.
fn level_for(elapsed: u64, at: u64) -> usize {
    let x = elapsed ^ at;
    debug_assert!(x >> SUPER_SHIFT == 0, "level_for across super-windows");
    if x == 0 {
        0
    } else {
        (63 - x.leading_zeros() as usize) / SLOT_BITS
    }
}

/// A deterministic event queue over an application-defined event type,
/// implemented as a hierarchical timing wheel (see module docs).
///
/// Observationally equivalent to [`ReferenceQueue`](super::ReferenceQueue):
/// identical `(time, seq, event)` pop sequences and a byte-identical
/// snapshot encoding — the differential harness in
/// `crates/netsim/tests/queue_diff.rs` pins this.
///
/// # Examples
///
/// ```
/// use tsn_netsim::WheelQueue;
/// use tsn_time::{Nanos, SimTime};
///
/// let mut q = WheelQueue::new();
/// q.schedule_at(SimTime::from_millis(10), "b");
/// q.schedule_at(SimTime::from_millis(5), "a");
/// q.schedule_in(Nanos::from_millis(10), "c"); // relative to now (= 0)
/// assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct WheelQueue<E> {
    slab: Vec<Entry<E>>,
    free_head: u32,
    /// Slot-list heads: `slots[level][slot]` is a slab index or `NIL`.
    slots: [[u32; SLOTS]; LEVELS],
    /// One occupancy bit per slot, per level (8 words of 64).
    occupied: [[u64; WORDS]; LEVELS],
    /// Per-level summary: bit `w` set iff `occupied[level][w] != 0`,
    /// so the first occupied slot needs two `trailing_zeros`, not a
    /// word scan.
    summary: [u64; LEVELS],
    /// Wheel cursor in ns. Invariants: `now <= elapsed`; every wheel
    /// entry satisfies `at >= elapsed` and shares its super-window.
    elapsed: u64,
    past: BinaryHeap<HeapKey>,
    overflow: BinaryHeap<HeapKey>,
    now: SimTime,
    next_seq: u64,
    next_ctl: u64,
    popped: u64,
    pending: usize,
    ctl_pending: usize,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        WheelQueue {
            slab: Vec::new(),
            free_head: NIL,
            slots: [[NIL; SLOTS]; LEVELS],
            occupied: [[0; WORDS]; LEVELS],
            summary: [0; LEVELS],
            elapsed: 0,
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            next_ctl: CTL_SEQ_BASE,
            popped: 0,
            pending: 0,
            ctl_pending: 0,
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
        self.pending
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Stores a scheduled event in a slab cell. A recycled cell is
    /// filled field by field, so the event is written once, straight
    /// into the slab (an `Entry` temporary assigned over the cell is a
    /// second copy of every event).
    #[inline]
    fn alloc(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let cell = &mut self.slab[idx as usize];
            self.free_head = cell.next;
            cell.at = at;
            cell.seq = seq;
            cell.next = NIL;
            cell.event = Some(event);
            idx
        } else {
            assert!(self.slab.len() < NIL as usize, "slab index space exhausted");
            self.slab.push(Entry {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            (self.slab.len() - 1) as u32
        }
    }

    /// Retires the unlinked cell `idx` as the popped event: free list,
    /// counters and the clock. The event stays in the cell for the
    /// caller to move straight into its own return value, so a pop
    /// reads the event once.
    #[inline]
    fn retire(&mut self, idx: u32) -> (SimTime, u64, &mut Option<E>) {
        let cell = &mut self.slab[idx as usize];
        let (at, seq) = (cell.at, cell.seq);
        cell.next = self.free_head;
        self.free_head = idx;
        self.pending -= 1;
        if seq >= CTL_SEQ_BASE {
            self.ctl_pending -= 1;
        }
        self.now = at;
        self.popped += 1;
        (at, seq, &mut cell.event)
    }

    #[inline]
    fn occ_set(&mut self, level: usize, slot: usize) {
        self.occupied[level][slot / 64] |= 1 << (slot % 64);
        self.summary[level] |= 1 << (slot / 64);
    }

    #[inline]
    fn occ_clear(&mut self, level: usize, slot: usize) {
        let w = slot / 64;
        self.occupied[level][w] &= !(1 << (slot % 64));
        if self.occupied[level][w] == 0 {
            self.summary[level] &= !(1 << w);
        }
    }

    /// First occupied slot of `level`, if any.
    #[inline]
    fn occ_first(&self, level: usize) -> Option<usize> {
        let s = self.summary[level];
        if s == 0 {
            return None;
        }
        let w = s.trailing_zeros() as usize;
        Some(w * 64 + self.occupied[level][w].trailing_zeros() as usize)
    }

    /// Files slab entry `idx` into the wheel at its level for the
    /// current cursor. Caller guarantees `at >= elapsed` and a shared
    /// super-window.
    #[inline]
    fn file_in_wheel(&mut self, idx: u32) {
        let at = self.slab[idx as usize].at.as_nanos();
        let level = level_for(self.elapsed, at);
        let slot = (at >> (SLOT_BITS * level)) as usize & (SLOTS - 1);
        self.slab[idx as usize].next = self.slots[level][slot];
        self.slots[level][slot] = idx;
        self.occ_set(level, slot);
    }

    /// Routes slab entry `idx` to the container its timestamp belongs
    /// in: `past` (behind the cursor), the wheel (cursor's
    /// super-window), or `overflow` (a later super-window).
    #[inline]
    fn place(&mut self, idx: u32) {
        let at = self.slab[idx as usize].at.as_nanos();
        let seq = self.slab[idx as usize].seq;
        if at < self.elapsed {
            self.past.push(Reverse((at, seq, idx)));
        } else if at >> SUPER_SHIFT == self.elapsed >> SUPER_SHIFT {
            self.file_in_wheel(idx);
        } else {
            self.overflow.push(Reverse((at, seq, idx)));
        }
    }

    #[inline]
    fn insert(&mut self, at: SimTime, seq: u64, event: E) {
        let idx = self.alloc(at, seq, event);
        self.pending += 1;
        if seq >= CTL_SEQ_BASE {
            self.ctl_pending += 1;
        }
        self.place(idx);
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time — events cannot be
    /// scheduled in the past.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled at {at}, before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, event);
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
        self.insert(at, seq, event);
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

    /// Takes the sequence number the next [`WheelQueue::schedule_at`]
    /// would have used, without scheduling anything. An event inserted
    /// later under this number ([`WheelQueue::insert_raw`]) pops exactly
    /// where one scheduled now would have; if none ever is, every other
    /// event still keeps the `(time, seq)` it would have had.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Inserts an event under an explicit sequence number — one taken
    /// from [`WheelQueue::reserve_seq`], or one a restore re-arms —
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
        self.insert(at, seq, event);
    }

    /// Removes and returns all pending control events as
    /// `(time, sequence, event)` triples, sorted by `(time, sequence)`.
    ///
    /// Restore uses this to reconcile a rebuilt world's control schedule
    /// with a checkpoint that predates any control event (see
    /// [`WheelQueue::insert_raw`]).
    pub fn drain_ctl(&mut self) -> Vec<(SimTime, u64, E)> {
        let mut ctl = Vec::new();
        let mut data = Vec::new();
        for cell in self.slab.drain(..) {
            if let Some(event) = cell.event {
                if cell.seq >= CTL_SEQ_BASE {
                    ctl.push((cell.at, cell.seq, event));
                } else {
                    data.push((cell.at, cell.seq, event));
                }
            }
        }
        self.free_head = NIL;
        self.slots = [[NIL; SLOTS]; LEVELS];
        self.occupied = [[0; WORDS]; LEVELS];
        self.summary = [0; LEVELS];
        self.past.clear();
        self.overflow.clear();
        self.pending = 0;
        self.ctl_pending = 0;
        for (at, seq, event) in data {
            self.pending += 1;
            let idx = self.alloc(at, seq, event);
            self.place(idx);
        }
        ctl.sort_by_key(|&(at, seq, _)| (at, seq));
        ctl
    }

    /// Number of pending control events.
    pub fn ctl_len(&self) -> usize {
        self.ctl_pending
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

    /// Lowest occupied level and its first occupied slot at or ahead of
    /// the cursor — the slot holding the wheel's minimum (module docs).
    fn wheel_first(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            if let Some(slot) = self.occ_first(level) {
                debug_assert!(
                    slot >= ((self.elapsed >> (SLOT_BITS * level)) as usize & (SLOTS - 1)),
                    "wheel slot occupied behind the cursor"
                );
                return Some((level, slot));
            }
        }
        None
    }

    /// Start time (ns) of `slot` at `level` in the cursor's rotation —
    /// a lower bound for every entry the slot holds.
    fn slot_deadline(&self, level: usize, slot: usize) -> u64 {
        let shift = SLOT_BITS * level;
        (((self.elapsed >> shift) & !(SLOTS as u64 - 1)) | slot as u64) << shift
    }

    /// Re-files every entry of a level > 0 slot at strictly lower
    /// levels, advancing the cursor to the slot's start first.
    fn cascade(&mut self, level: usize, slot: usize, deadline: u64) {
        debug_assert!(level > 0 && deadline >= self.elapsed);
        self.elapsed = deadline;
        let mut idx = self.slots[level][slot];
        self.slots[level][slot] = NIL;
        self.occ_clear(level, slot);
        while idx != NIL {
            let next = self.slab[idx as usize].next;
            self.file_in_wheel(idx);
            idx = next;
        }
    }

    /// Moves overflow entries that now share the cursor's super-window
    /// into the wheel.
    fn migrate_overflow(&mut self) {
        while let Some(&Reverse((at, _, idx))) = self.overflow.peek() {
            if at >> SUPER_SHIFT != self.elapsed >> SUPER_SHIFT {
                break;
            }
            debug_assert!(at >= self.elapsed);
            self.overflow.pop();
            self.file_in_wheel(idx);
        }
    }

    /// Time of the next pending event, if any. Exact and non-mutating:
    /// the candidate containers hold disjoint time ranges, and within
    /// the wheel the first occupied slot of the lowest occupied level
    /// contains the minimum (its list is scanned when wider than 1 ns).
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(&Reverse((at, _, _))) = self.past.peek() {
            return Some(SimTime::from_nanos(at));
        }
        if let Some((level, slot)) = self.wheel_first() {
            if level == 0 {
                return Some(SimTime::from_nanos(self.slot_deadline(0, slot)));
            }
            let mut min = u64::MAX;
            let mut idx = self.slots[level][slot];
            while idx != NIL {
                min = min.min(self.slab[idx as usize].at.as_nanos());
                idx = self.slab[idx as usize].next;
            }
            return Some(SimTime::from_nanos(min));
        }
        self.overflow
            .peek()
            .map(|&Reverse((at, _, _))| SimTime::from_nanos(at))
    }

    /// Pops the next event, advancing the current time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::from_nanos(u64::MAX))
    }

    /// Pops the next event together with its tie-break sequence number.
    ///
    /// Diagnostic surface for the differential test harness, which
    /// asserts identical `(time, seq, event)` sequences across queue
    /// implementations.
    pub fn pop_seq(&mut self) -> Option<(SimTime, u64, E)> {
        let idx = self.pop_bounded(u64::MAX)?;
        let (at, seq, event) = self.retire(idx);
        Some((at, seq, event.take().expect("popped a free slab cell")))
    }

    /// Pops the next event if its timestamp is `<= until` — the event
    /// loop's form of [`WheelQueue::pop`].
    ///
    /// Returns `None` — and pops nothing — when the queue is empty or
    /// the next event lies beyond `until` (the cursor may still have
    /// advanced internally from cascades; later inserts behind it land
    /// in the `past` heap).
    #[inline]
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let idx = self.pop_bounded(until.as_nanos())?;
        let (at, _, event) = self.retire(idx);
        Some((at, event.take().expect("popped a free slab cell")))
    }

    /// Unlinks the next event's slab cell if its timestamp is `<= until`
    /// and returns its index; the cell stays live until the caller
    /// retires it.
    #[inline]
    fn pop_bounded(&mut self, until: u64) -> Option<u32> {
        loop {
            if let Some(&Reverse((at, _, idx))) = self.past.peek() {
                if at > until {
                    return None;
                }
                self.past.pop();
                return Some(idx);
            }
            if let Some((level, slot)) = self.wheel_first() {
                if level > 0 {
                    let head = self.slots[level][slot];
                    if self.slab[head as usize].next == NIL {
                        // Singleton slot at the lowest occupied level:
                        // its entry is the wheel minimum (module docs),
                        // so pop it directly instead of cascading it
                        // down level by level.
                        let at = self.slab[head as usize].at.as_nanos();
                        if at > until {
                            return None;
                        }
                        self.slots[level][slot] = NIL;
                        self.occ_clear(level, slot);
                        self.elapsed = at;
                        return Some(head);
                    }
                    let deadline = self.slot_deadline(level, slot);
                    if deadline > until {
                        return None;
                    }
                    self.cascade(level, slot, deadline);
                    continue;
                }
                let deadline = self.slot_deadline(0, slot);
                if deadline > until {
                    return None;
                }
                self.elapsed = deadline;
                // Unlink the minimum-sequence entry; the slot is 1 ns
                // wide, so every entry shares the timestamp.
                let (mut min_prev, mut min_idx) = (NIL, NIL);
                let (mut prev, mut idx) = (NIL, self.slots[0][slot]);
                let mut min_seq = u64::MAX;
                while idx != NIL {
                    let seq = self.slab[idx as usize].seq;
                    if seq < min_seq {
                        (min_seq, min_prev, min_idx) = (seq, prev, idx);
                    }
                    prev = idx;
                    idx = self.slab[idx as usize].next;
                }
                let after = self.slab[min_idx as usize].next;
                if min_prev == NIL {
                    self.slots[0][slot] = after;
                } else {
                    self.slab[min_prev as usize].next = after;
                }
                if self.slots[0][slot] == NIL {
                    self.occ_clear(0, slot);
                }
                return Some(min_idx);
            }
            let &Reverse((at, _, _)) = self.overflow.peek()?;
            if at > until {
                return None;
            }
            self.elapsed = at;
            self.migrate_overflow();
        }
    }
}

impl<E: Snap> SnapState for WheelQueue<E> {
    fn save_state(&self, w: &mut Writer) {
        self.now.put(w);
        self.next_seq.put(w);
        self.next_ctl.put(w);
        self.popped.put(w);
        // Canonical encoding shared with the reference queue: the
        // (time, seq)-sorted entry list. Wheel internals (cursor, slot
        // layout, side heaps) are reconstructed on load, so snapshots
        // are byte-identical across queue implementations.
        let mut entries: Vec<&Entry<E>> = self
            .slab
            .iter()
            .filter(|cell| cell.event.is_some())
            .collect();
        entries.sort_by_key(|cell| (cell.at, cell.seq));
        entries.len().put(w);
        for cell in entries {
            cell.at.put(w);
            cell.seq.put(w);
            cell.event.as_ref().expect("live entry").put(w);
        }
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.now = Snap::get(r)?;
        self.next_seq = Snap::get(r)?;
        self.next_ctl = Snap::get(r)?;
        self.popped = Snap::get(r)?;
        self.slab.clear();
        self.free_head = NIL;
        self.slots = [[NIL; SLOTS]; LEVELS];
        self.occupied = [[0; WORDS]; LEVELS];
        self.summary = [0; LEVELS];
        self.past.clear();
        self.overflow.clear();
        self.pending = 0;
        self.ctl_pending = 0;
        self.elapsed = self.now.as_nanos();
        let n = r.take_count()?;
        for _ in 0..n {
            let at = SimTime::get(r)?;
            let seq = u64::get(r)?;
            let event = E::get(r)?;
            if at < self.now {
                return Err(SnapError::Malformed("queued event before current time"));
            }
            self.insert(at, seq, event);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = WheelQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = WheelQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = WheelQueue::new();
        q.schedule_at(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_past_panics() {
        let mut q = WheelQueue::new();
        q.schedule_at(SimTime::from_millis(5), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(4), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = WheelQueue::new();
        q.schedule_at(SimTime::from_nanos(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_is_exact_across_levels_and_overflow() {
        let mut q = WheelQueue::new();
        q.schedule_at(SimTime::from_nanos((1 << SUPER_SHIFT) + 5), 1u64);
        assert_eq!(
            q.peek_time(),
            Some(SimTime::from_nanos((1 << SUPER_SHIFT) + 5))
        );
        q.schedule_at(SimTime::from_nanos(70_000), 2); // level 2
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(70_000)));
        q.schedule_at(SimTime::from_nanos(90), 3); // level 1
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(90)));
    }

    #[test]
    fn far_future_entries_cross_super_windows() {
        let mut q = WheelQueue::new();
        let far = SimTime::from_nanos((1 << SUPER_SHIFT) + 123);
        let farther = SimTime::from_nanos((3 << SUPER_SHIFT) + 7);
        q.schedule_at(farther, 3u64);
        q.schedule_at(far, 2u64);
        q.schedule_at(SimTime::from_nanos(10), 1u64);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((far, 2)));
        // After the jump the queue keeps accepting near-term work.
        q.schedule_in(Nanos::from_nanos(1), 9u64);
        assert_eq!(q.pop().map(|(_, e)| e), Some(9));
        assert_eq!(q.pop(), Some((farther, 3)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn bounded_pop_then_past_insert_stays_ordered() {
        let mut q = WheelQueue::new();
        // Two entries sharing the level-1 slot that starts at 99_840: a
        // bounded pop up to 99_900 cascades the cursor to the slot start
        // but pops nothing (the first event is at 100_000).
        q.schedule_at(SimTime::from_nanos(100_000), 1u64);
        q.schedule_at(SimTime::from_nanos(100_001), 3u64);
        assert_eq!(q.pop_until(SimTime::from_nanos(99_900)), None);
        assert_eq!((q.now(), q.elapsed), (SimTime::ZERO, 99_840));
        // Legal insert (>= now) behind the advanced cursor: must still
        // pop first, from the past heap.
        q.schedule_at(SimTime::from_nanos(50_000), 2u64);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50_000)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50_000), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100_000), 1)));
    }

    #[test]
    fn pop_until_stops_at_the_bound() {
        let mut q = WheelQueue::new();
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

    #[test]
    fn batch_merges_data_and_ctl_in_seq_order() {
        let mut q = WheelQueue::new();
        let t = SimTime::from_millis(3);
        q.schedule_ctl_at(t, "ctl");
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        let evs: Vec<&str> = std::iter::from_fn(|| q.pop_until(t).map(|(_, e)| e)).collect();
        assert_eq!(evs, vec!["a", "b", "ctl"]);
    }

    #[test]
    fn reserved_seq_pops_where_the_eager_event_would_have() {
        let mut q = WheelQueue::new();
        let t = SimTime::from_nanos(700);
        q.schedule_at(t, "before");
        let reserved = q.reserve_seq();
        q.schedule_at(t, "after");
        // Materialised late, from a later instant, behind later numbers.
        q.schedule_at(SimTime::from_nanos(600), "tick");
        assert_eq!(q.pop().map(|(_, e)| e), Some("tick"));
        q.insert_raw(t, reserved, "reserved");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_seq()).collect();
        assert_eq!(
            order,
            vec![(t, 0, "before"), (t, reserved, "reserved"), (t, 2, "after")]
        );
        // The counter is not bumped a second time.
        assert_eq!(q.reserve_seq(), 4);
    }

    #[test]
    fn slab_recycles_freed_cells() {
        let mut q = WheelQueue::new();
        for round in 0..5u64 {
            for i in 0..50 {
                q.schedule_in(Nanos::from_nanos(i + 1), round * 100 + i as u64);
            }
            while q.pop().is_some() {}
        }
        assert!(q.slab.len() <= 50, "slab grew: {}", q.slab.len());
    }
}
