//! Differential test harness: the timing-wheel event core vs the
//! reference `BinaryHeap` oracle.
//!
//! Both queue implementations promise the same observable contract — a
//! strict `(time, seq)` total order over interleaved data and control
//! streams, plus a shared canonical snapshot encoding. These tests drive
//! arbitrary interleavings of `schedule_at` / `schedule_in` /
//! `schedule_ctl_at` / `reserve_seq` + `insert_raw` / pops through both
//! implementations at once and demand byte-identical behavior,
//! including:
//!
//! * same-timestamp bursts (the tie-break order under test);
//! * sequence numbers reserved now and materialised later, or never
//!   (the egress ports' lazy wake-ups);
//! * far-future timestamps that land in the wheel's overflow heap
//!   (beyond the 2^36 ns super-window);
//! * wheel-rollover boundaries (offsets straddling slot/level edges).
//!
//! A mutation self-test deliberately breaks the tie-break in a
//! test-local queue variant and asserts the harness catches it — i.e.
//! the harness is demonstrably able to fail.

use proptest::prelude::*;
use tsn_netsim::{ReferenceQueue, WheelQueue};
use tsn_snapshot::codec::{Reader, SnapState, Writer};
use tsn_time::{Nanos, SimTime};

/// One step of an interleaved schedule/pop script. All times are offsets
/// from the queue's current `now()`, so scripts never schedule into the
/// past regardless of how many pops preceded them.
#[derive(Debug, Clone)]
enum Op {
    /// `schedule_at(now + offset)` — data stream.
    At(u64),
    /// `schedule_in(delay)` — data stream, relative form.
    In(u64),
    /// `schedule_ctl_at(now + offset)` — control stream.
    Ctl(u64),
    /// A same-timestamp burst of `k` data events at `now + offset`.
    Burst(u64, u8),
    /// Pop up to `k` events one at a time.
    Pop(u8),
    /// Pop every event up to `now + horizon` (the event-loop form).
    PopUntil(u64),
    /// `reserve_seq()` for an event due at `now + offset`; nothing is
    /// scheduled yet.
    Reserve(u64),
    /// `insert_raw` the oldest reservation that is still due (`at >=
    /// now`); reservations whose instant has passed are never inserted.
    Materialise,
}

/// Offsets chosen to exercise every wheel level and its edges: the wheel
/// is 4 levels x 512 slots (9 bits per level, 2^36 ns super-window).
fn offset_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Level 0: within the first 512 ns.
        0u64..512,
        // Levels 1-3.
        0u64..(1 << 18),
        0u64..(1 << 27),
        0u64..(1 << 36),
        // Exact slot/level boundaries and their neighbors (rollover).
        (0u64..4).prop_map(|k| (1u64 << 9) * (k + 1)),
        (0u64..4).prop_map(|k| (1u64 << 18) * (k + 1)),
        (0u64..4).prop_map(|k| (1u64 << 27) * (k + 1) - 1),
        Just((1u64 << 36) - 1),
        // Far future: past the super-window, into the overflow heap.
        (0u64..1024).prop_map(|k| (1u64 << 36) + k),
        (0u64..4).prop_map(|k| (1u64 << 36) * (k + 1) + 7),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        offset_strategy().prop_map(Op::At),
        offset_strategy().prop_map(Op::In),
        offset_strategy().prop_map(Op::Ctl),
        (offset_strategy(), 2u8..6).prop_map(|(o, k)| Op::Burst(o, k)),
        (1u8..8).prop_map(Op::Pop),
        offset_strategy().prop_map(Op::PopUntil),
        offset_strategy().prop_map(Op::Reserve),
        Just(Op::Materialise),
    ]
}

/// Minimal queue interface the differential driver needs; lets the same
/// script run against the wheel, the reference heap, and the deliberately
/// broken mutant below.
trait Queue {
    fn now(&self) -> SimTime;
    fn schedule_at(&mut self, at: SimTime, event: u64);
    fn schedule_in(&mut self, delay: Nanos, event: u64);
    fn schedule_ctl_at(&mut self, at: SimTime, event: u64);
    fn pop_seq(&mut self) -> Option<(SimTime, u64, u64)>;
    fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, u64)>;
    fn reserve_seq(&mut self) -> u64;
    fn insert_raw(&mut self, at: SimTime, seq: u64, event: u64);
    fn len(&self) -> usize;
}

macro_rules! impl_queue {
    ($t:ty) => {
        impl Queue for $t {
            fn now(&self) -> SimTime {
                <$t>::now(self)
            }
            fn schedule_at(&mut self, at: SimTime, event: u64) {
                <$t>::schedule_at(self, at, event)
            }
            fn schedule_in(&mut self, delay: Nanos, event: u64) {
                <$t>::schedule_in(self, delay, event)
            }
            fn schedule_ctl_at(&mut self, at: SimTime, event: u64) {
                <$t>::schedule_ctl_at(self, at, event)
            }
            fn pop_seq(&mut self) -> Option<(SimTime, u64, u64)> {
                <$t>::pop_seq(self)
            }
            fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, u64)> {
                <$t>::pop_until(self, until)
            }
            fn reserve_seq(&mut self) -> u64 {
                <$t>::reserve_seq(self)
            }
            fn insert_raw(&mut self, at: SimTime, seq: u64, event: u64) {
                <$t>::insert_raw(self, at, seq, event)
            }
            fn len(&self) -> usize {
                <$t>::len(self)
            }
        }
    };
}

impl_queue!(WheelQueue<u64>);
impl_queue!(ReferenceQueue<u64>);

/// Runs `ops` against both queues in lock-step and checks every
/// externally observable value for equality; then drains both to the end.
/// Returns `Err` (instead of panicking) so the mutation self-test can
/// assert the harness *does* catch a broken implementation.
fn run_differential(a: &mut dyn Queue, b: &mut dyn Queue, ops: &[Op]) -> Result<(), String> {
    let mut payload = 0u64;
    // Reserved `(due time, seq, payload)`, oldest first.
    let mut reserved: std::collections::VecDeque<(SimTime, u64, u64)> = Default::default();
    for (step, op) in ops.iter().enumerate() {
        if a.now() != b.now() {
            return Err(format!("step {step}: now {:?} != {:?}", a.now(), b.now()));
        }
        let now = a.now();
        match *op {
            Op::At(off) => {
                let at = SimTime::from_nanos(now.as_nanos() + off);
                a.schedule_at(at, payload);
                b.schedule_at(at, payload);
                payload += 1;
            }
            Op::In(off) => {
                let d = Nanos::from_nanos(off.min(i64::MAX as u64) as i64);
                a.schedule_in(d, payload);
                b.schedule_in(d, payload);
                payload += 1;
            }
            Op::Ctl(off) => {
                let at = SimTime::from_nanos(now.as_nanos() + off);
                a.schedule_ctl_at(at, payload);
                b.schedule_ctl_at(at, payload);
                payload += 1;
            }
            Op::Burst(off, k) => {
                let at = SimTime::from_nanos(now.as_nanos() + off);
                for _ in 0..k {
                    a.schedule_at(at, payload);
                    b.schedule_at(at, payload);
                    payload += 1;
                }
            }
            Op::Pop(k) => {
                for _ in 0..k {
                    let (x, y) = (a.pop_seq(), b.pop_seq());
                    if x != y {
                        return Err(format!("step {step}: pop_seq {x:?} != {y:?}"));
                    }
                    if x.is_none() {
                        break;
                    }
                }
            }
            Op::PopUntil(h) => {
                let until = SimTime::from_nanos(now.as_nanos() + h);
                loop {
                    let (x, y) = (a.pop_until(until), b.pop_until(until));
                    if x != y {
                        return Err(format!("step {step}: pop_until {x:?} != {y:?}"));
                    }
                    match x {
                        Some((at, _)) if at > until => {
                            return Err(format!("step {step}: popped {at:?} past {until:?}"));
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
            }
            Op::Reserve(off) => {
                let (x, y) = (a.reserve_seq(), b.reserve_seq());
                if x != y {
                    return Err(format!("step {step}: reserved seq {x} != {y}"));
                }
                let at = SimTime::from_nanos(now.as_nanos() + off);
                reserved.push_back((at, x, payload));
                payload += 1;
            }
            Op::Materialise => {
                while let Some((at, seq, event)) = reserved.pop_front() {
                    if at >= now {
                        a.insert_raw(at, seq, event);
                        b.insert_raw(at, seq, event);
                        break;
                    }
                }
            }
        }
        if a.len() != b.len() {
            return Err(format!("step {step}: len {} != {}", a.len(), b.len()));
        }
    }
    // Drain to the end: the full residual (time, seq, event) sequences
    // must agree, element for element.
    loop {
        let (x, y) = (a.pop_seq(), b.pop_seq());
        if x != y {
            return Err(format!("drain: pop_seq {x:?} != {y:?}"));
        }
        if x.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The tentpole guarantee: wheel and reference heap emit identical
    /// `(time, seq, event)` sequences under arbitrary interleavings.
    #[test]
    fn wheel_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..160)) {
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut reference: ReferenceQueue<u64> = ReferenceQueue::new();
        if let Err(e) = run_differential(&mut wheel, &mut reference, &ops) {
            prop_assert!(false, "differential mismatch: {e}");
        }
    }

    /// Snapshot round-trip: encode the wheel mid-script, restore into a
    /// fresh wheel, and the two must be indistinguishable from then on —
    /// equal re-encodings and equal full drains.
    #[test]
    fn wheel_snapshot_roundtrip(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        split in 0usize..100,
    ) {
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut reference: ReferenceQueue<u64> = ReferenceQueue::new();
        let split = split.min(ops.len());
        run_differential(&mut wheel, &mut reference, &ops[..split]).unwrap();

        let mut w = Writer::new();
        wheel.save_state(&mut w);
        let bytes = w.into_bytes();

        // The canonical encoding is shared: the reference queue driven by
        // the same script must encode to the very same bytes.
        let mut w2 = Writer::new();
        reference.save_state(&mut w2);
        prop_assert_eq!(&bytes, &w2.into_bytes(), "canonical encodings diverge");

        let mut restored: WheelQueue<u64> = WheelQueue::new();
        let mut r = Reader::new(&bytes);
        restored.load_state(&mut r).expect("decode wheel state");
        r.finish().expect("no trailing bytes");

        let mut w3 = Writer::new();
        restored.save_state(&mut w3);
        prop_assert_eq!(&bytes, &w3.into_bytes(), "re-encoding diverges");

        if let Err(e) = run_differential(&mut restored, &mut reference, &ops[split..]) {
            prop_assert!(false, "restored wheel diverges: {e}");
        }
    }

    /// Cross-implementation restore: a snapshot taken mid-run on the
    /// wheel restores onto the reference queue (and vice versa), and the
    /// pair stays byte-identical — equal encodings after every further
    /// epoch of operations and equal drains.
    #[test]
    fn cross_impl_snapshot_restore(
        epochs in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..24), 1..6),
    ) {
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut reference: ReferenceQueue<u64> = ReferenceQueue::new();
        run_differential(&mut wheel, &mut reference, &epochs[0]).unwrap();

        // Wheel -> reference.
        let mut w = Writer::new();
        wheel.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut onto_ref: ReferenceQueue<u64> = ReferenceQueue::new();
        onto_ref.load_state(&mut Reader::new(&bytes)).expect("wheel state onto reference");

        // Reference -> wheel.
        let mut w = Writer::new();
        reference.save_state(&mut w);
        let mut onto_wheel: WheelQueue<u64> = WheelQueue::new();
        onto_wheel.load_state(&mut Reader::new(&w.into_bytes())).expect("reference state onto wheel");

        // Run every subsequent epoch on both restored queues; after each
        // epoch their canonical encodings (hence state hashes) must match.
        for (i, epoch) in epochs[1..].iter().enumerate() {
            if let Err(e) = run_differential(&mut onto_wheel, &mut onto_ref, epoch) {
                prop_assert!(false, "epoch {}: cross-restored pair diverges: {e}", i + 1);
            }
            let mut wa = Writer::new();
            onto_wheel.save_state(&mut wa);
            let mut wb = Writer::new();
            onto_ref.save_state(&mut wb);
            prop_assert_eq!(wa.into_bytes(), wb.into_bytes(), "epoch {} encodings", i + 1);
        }
    }
}

// ---------------------------------------------------------------------
// Mutation self-test: prove the harness can fail.
// ---------------------------------------------------------------------

/// A deliberately broken queue: orders by `at` **only**, discarding the
/// sequence-number tie-break. `BinaryHeap` is not stable for equal keys,
/// so same-timestamp bursts come out in sift order, not insertion order.
mod broken {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use tsn_netsim::CTL_SEQ_BASE;
    use tsn_time::{Nanos, SimTime};

    struct Entry {
        at: SimTime,
        seq: u64,
        event: u64,
    }

    // The mutation: the tie-break is gone. Everything else mirrors the
    // reference implementation.
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            other.at.cmp(&self.at) // reversed: BinaryHeap is a max-heap
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at
        }
    }
    impl Eq for Entry {}

    #[derive(Default)]
    pub struct AtOnlyQueue {
        heap: BinaryHeap<Entry>,
        now: SimTime,
        next_seq: u64,
        next_ctl: u64,
    }

    impl super::Queue for AtOnlyQueue {
        fn now(&self) -> SimTime {
            self.now
        }
        fn schedule_at(&mut self, at: SimTime, event: u64) {
            assert!(at >= self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
        }
        fn schedule_in(&mut self, delay: Nanos, event: u64) {
            self.schedule_at(self.now + delay, event);
        }
        fn schedule_ctl_at(&mut self, at: SimTime, event: u64) {
            assert!(at >= self.now);
            let seq = CTL_SEQ_BASE + self.next_ctl;
            self.next_ctl += 1;
            self.heap.push(Entry { at, seq, event });
        }
        fn pop_seq(&mut self) -> Option<(SimTime, u64, u64)> {
            let e = self.heap.pop()?;
            self.now = e.at;
            Some((e.at, e.seq, e.event))
        }
        fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, u64)> {
            if self.heap.peek()?.at > until {
                return None;
            }
            self.pop_seq().map(|(at, _, ev)| (at, ev))
        }
        fn reserve_seq(&mut self) -> u64 {
            self.next_seq += 1;
            self.next_seq - 1
        }
        fn insert_raw(&mut self, at: SimTime, seq: u64, event: u64) {
            assert!(at >= self.now);
            self.heap.push(Entry { at, seq, event });
        }
        fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

/// Breaking the tie-break must be *caught* by the differential harness:
/// a same-timestamp burst through the at-only mutant diverges from the
/// wheel. If this test fails, the harness has lost its teeth.
#[test]
fn harness_catches_broken_tiebreak() {
    let ops = vec![Op::Burst(100, 4), Op::Pop(4)];
    let mut wheel: WheelQueue<u64> = WheelQueue::new();
    let mut mutant = broken::AtOnlyQueue::default();
    let err = run_differential(&mut wheel, &mut mutant, &ops)
        .expect_err("differential harness failed to flag the broken tie-break");
    assert!(err.contains("pop_seq"), "unexpected failure shape: {err}");

    // Sanity: the same script against the true reference passes.
    let mut wheel: WheelQueue<u64> = WheelQueue::new();
    let mut reference: ReferenceQueue<u64> = ReferenceQueue::new();
    run_differential(&mut wheel, &mut reference, &ops).expect("honest pair must agree");
}

// ---------------------------------------------------------------------
// Event ownership: every event is dropped exactly once.
// ---------------------------------------------------------------------

/// The differential tests above carry `u64` events, which have no
/// destructor. The production event owns a frame payload, and the wheel
/// moves events in and out of recycled slab cells by hand — so this
/// drives every entry point with an event that counts its own drops.
mod drops {
    use std::cell::RefCell;
    use tsn_netsim::{ReferenceQueue, WheelQueue};
    use tsn_snapshot::codec::{Reader, Snap, SnapError, SnapState, Writer};
    use tsn_time::{Nanos, SimTime};

    thread_local! {
        /// Drop count per event ever created on this test thread.
        static DROPS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    /// An event that records its own drop.
    #[derive(Debug)]
    struct Tracked(usize);

    impl Tracked {
        fn new() -> Tracked {
            DROPS.with_borrow_mut(|d| {
                d.push(0);
                Tracked(d.len() - 1)
            })
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPS.with_borrow_mut(|d| d[self.0] += 1);
        }
    }

    /// Decoding makes a new event; the encoded one stays where it was.
    impl Snap for Tracked {
        fn put(&self, w: &mut Writer) {
            self.0.put(w);
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, SnapError> {
            usize::get(r).map(|_| Tracked::new())
        }
    }

    /// Events not yet dropped; panics if any was dropped twice.
    fn alive() -> usize {
        DROPS.with_borrow(|d| {
            assert!(d.iter().all(|&n| n <= 1), "an event was dropped twice");
            d.iter().filter(|&&n| n == 0).count()
        })
    }

    macro_rules! drop_test {
        ($name:ident, $queue:ident) => {
            #[test]
            fn $name() {
                let at = |ns: u64| SimTime::from_nanos(ns);
                let mut q: $queue<Tracked> = $queue::new();
                // Every container: level 0, higher levels, a shared
                // timestamp, a far-future (overflow) entry, control
                // events, and a reserved number materialised late.
                for ns in [3, 3, 3, 400, 70_000, 9_000_000, 1 << 30, (1 << 36) + 5] {
                    q.schedule_at(at(ns), Tracked::new());
                }
                q.schedule_in(Nanos::from_nanos(50), Tracked::new());
                q.schedule_ctl_at(at(3), Tracked::new());
                q.schedule_ctl_at(at(80_000), Tracked::new());
                let reserved = q.reserve_seq();
                q.schedule_at(at(600), Tracked::new());
                q.insert_raw(at(600), reserved, Tracked::new());
                assert_eq!(alive(), q.len(), "scheduling dropped a pending event");

                // Popped events arrive alive and die once with their owner.
                for _ in 0..3 {
                    let popped = q.pop().expect("pending events");
                    assert_eq!(alive(), q.len() + 1, "pop dropped the event it returned");
                    drop(popped);
                    assert_eq!(alive(), q.len());
                }
                // A bounded pop that cascades but returns nothing, then
                // an insert behind the cursor (the wheel's `past` heap).
                while let Some(popped) = q.pop_until(at(650)) {
                    assert_eq!(alive(), q.len() + 1);
                    drop(popped);
                }
                assert!(q.pop_until(at(69_000)).is_none());
                q.schedule_at(at(1_000), Tracked::new());
                assert_eq!(alive(), q.len());

                // Snapshot: restoring decodes new events and drops the
                // ones the target held, each once; the source keeps its own.
                let mut w = Writer::new();
                q.save_state(&mut w);
                let bytes = w.into_bytes();
                assert_eq!(alive(), q.len(), "encoding dropped an event");
                let mut restored: $queue<Tracked> = $queue::new();
                restored.schedule_at(at(7), Tracked::new());
                restored
                    .load_state(&mut Reader::new(&bytes))
                    .expect("own encoding");
                assert_eq!(restored.len(), q.len());
                assert_eq!(alive(), q.len() + restored.len());

                // drain_ctl hands the control events over and re-files
                // the rest.
                let ctl = restored.drain_ctl();
                assert_eq!(ctl.len(), 1);
                assert_eq!(alive(), q.len() + restored.len() + ctl.len());
                drop(ctl);
                assert_eq!(alive(), q.len() + restored.len());

                // Freed slab cells are reused for later events.
                while let Some(popped) = restored.pop() {
                    drop(popped);
                    assert_eq!(alive(), q.len() + restored.len());
                }
                for ns in 0..40 {
                    restored.schedule_in(Nanos::from_nanos(ns * 300), Tracked::new());
                }
                drop(restored.pop_seq());
                assert_eq!(alive(), q.len() + restored.len());

                // Dropping a non-empty queue drops what it still holds.
                assert!(!q.is_empty() && !restored.is_empty());
                drop(q);
                assert_eq!(alive(), restored.len());
                drop(restored);
                assert_eq!(alive(), 0);
                DROPS.with_borrow(|d| assert!(d.iter().all(|&n| n == 1)));
            }
        };
    }

    drop_test!(wheel_drops_every_event_exactly_once, WheelQueue);
    drop_test!(reference_drops_every_event_exactly_once, ReferenceQueue);
}
