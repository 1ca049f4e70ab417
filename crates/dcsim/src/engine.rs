//! Discrete-event engine.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs with two
//! guarantees the rest of the system depends on:
//!
//! 1. **Determinism** — events scheduled for the same instant pop in the
//!    order they were pushed (FIFO tie-breaking via a monotonically
//!    increasing sequence number). `BinaryHeap` alone would pop equal-time
//!    events in an arbitrary (heap-shape-dependent) order, which would make
//!    packet interleavings depend on allocation history.
//! 2. **Monotonic time** — popping returns events in non-decreasing time
//!    order, and scheduling into the past is a logic error that panics in
//!    debug builds (and is clamped to `now` in release builds, so a
//!    mis-rounded timer cannot time-travel).
//!
//! The queue is generic over the event payload so each layer of the stack
//! can define its own event enum. It has no removal operation, so a timer
//! whose deadline keeps moving (an RTO re-armed by every ACK) must not be
//! `schedule`d afresh on each move: the superseded entries would all still
//! be popped, and every live event would pay `log n` for them. [`TimerSlot`]
//! is the one idiom for such timers — at most one live heap entry per
//! timer, re-pushed lazily when it pops before the wanted deadline, under a
//! `(deadline, seq)` key reserved when the deadline was set so the firing
//! keeps the tie-break position an eager `schedule` would have given it.

use crate::time::Ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An entry in the queue: ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Ns,
    seq: u64,
}

/// A deterministic discrete-event queue.
///
/// ```
/// use ms_dcsim::{EventQueue, Ns};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(Ns::from_micros(5), "b");
/// q.schedule(Ns::from_micros(1), "a");
/// q.schedule(Ns::from_micros(5), "c"); // same time as "b": FIFO order
///
/// assert_eq!(q.pop(), Some((Ns::from_micros(1), "a")));
/// assert_eq!(q.pop(), Some((Ns::from_micros(5), "b")));
/// assert_eq!(q.pop(), Some((Ns::from_micros(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Key, EventSlot<E>)>>,
    next_seq: u64,
    now: Ns,
    popped: u64,
    depth_high_water: usize,
}

/// Wrapper so the heap only compares keys, never payloads (payloads need no
/// `Ord`, and comparing them would break FIFO semantics anyway).
#[derive(Debug)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Ns::ZERO,
            popped: 0,
            depth_high_water: 0,
        }
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Total events popped so far; used for event budgets and stats.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending-event count — how deep the heap has ever
    /// grown. Exported as a telemetry gauge to size event budgets.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling before `now` is a logic error (panics in debug builds); in
    /// release builds the event is clamped to `now` so the simulation can
    /// only ever lose sub-nanosecond precision, never causality.
    pub fn schedule(&mut self, at: Ns, event: E) {
        let seq = self.reserve_seq();
        self.schedule_keyed(at, seq, event);
    }

    /// Takes the next FIFO tie-break number without pushing anything. An
    /// event later pushed under it with [`EventQueue::schedule_keyed`]
    /// orders among same-instant events as if it had been `schedule`d here.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at absolute time `at` under a tie-break number
    /// from [`EventQueue::reserve_seq`]. Same past-time rule as
    /// [`EventQueue::schedule`]: a debug panic, a clamp to `now` in release.
    pub fn schedule_keyed(&mut self, at: Ns, seq: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event at {at} before now {}",
            self.now
        );
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        let at = at.max(self.now);
        self.heap.push(Reverse((Key { at, seq }, EventSlot(event))));
        self.depth_high_water = self.depth_high_water.max(self.heap.len());
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_in(&mut self, delay: Ns, event: E) {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation time overflow");
        self.schedule(at, event);
    }

    /// Pops the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Ns, E)> {
        let Reverse((key, EventSlot(event))) = self.heap.pop()?;
        debug_assert!(key.at >= self.now, "event queue went backwards");
        self.now = key.at;
        self.popped += 1;
        Some((key.at, event))
    }

    /// Pops the next event only if it is at or before `deadline`.
    pub fn pop_until(&mut self, deadline: Ns) -> Option<(Ns, E)> {
        match self.heap.peek() {
            Some(Reverse((key, _))) if key.at <= deadline => self.pop(),
            _ => None,
        }
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Ns> {
        self.heap.peek().map(|Reverse((key, _))| key.at)
    }
}

/// A re-armable timer with at most one live entry in an [`EventQueue`].
///
/// The owner calls [`TimerSlot::arm`] whenever the deadline it wants may
/// have changed, schedules nothing itself, and on every pop of the timer's
/// event asks [`TimerSlot::on_pop`] whether the timer fires. Moving the
/// deadline *later* pushes nothing: the queued entry pops at its old time,
/// finds the later deadline and re-pushes itself. Moving it *earlier* than
/// the queued entry pushes the earlier key at once; the later entry stays
/// in the heap (there is no removal) and is ignored when it pops, so the
/// heap holds one entry per timer plus one per such undercut still pending.
///
/// Every change of deadline reserves a tie-break number at that moment, and
/// the entry that fires at that deadline is pushed under it. The firing
/// therefore pops in the `(time, seq)` position it would have had if every
/// change had been `schedule`d eagerly — the lazy timer removes the no-op
/// pops and reorders nothing. (One corner is inexact: a deadline abandoned
/// for a different one *while no entry was pushed for it*, then set again
/// to the same nanosecond, fires under the later reservation. The firing
/// time is still exact; only its order against other events of that same
/// nanosecond can differ.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerSlot {
    /// The wanted deadline and the tie-break number reserved when the
    /// timer was moved to it.
    want: Option<(Ns, u64)>,
    /// `at` of the heap entry standing in for this timer. Invariant: when
    /// `want` is `Some((due, _))`, this is `Some(at)` with `at <= due`.
    queued_at: Option<Ns>,
}

impl TimerSlot {
    /// The deadline the timer will fire at, if armed.
    fn deadline(&self) -> Option<Ns> {
        self.want.map(|(due, _)| due)
    }

    /// Moves the timer to `deadline` (clamped to `q.now()`), or disarms it
    /// on `None`. `event` builds the payload and runs only if an entry has
    /// to be pushed.
    pub fn arm<E>(
        &mut self,
        q: &mut EventQueue<E>,
        deadline: Option<Ns>,
        event: impl FnOnce() -> E,
    ) {
        let Some(deadline) = deadline else {
            self.want = None;
            return;
        };
        let due = deadline.max(q.now());
        if self.deadline() == Some(due) {
            return;
        }
        let seq = q.reserve_seq();
        self.want = Some((due, seq));
        if self.queued_at.map_or(true, |at| due < at) {
            q.schedule_keyed(due, seq, event());
            self.queued_at = Some(due);
        }
    }

    /// Accounts for a just-popped entry of this timer (`q.now()` is its
    /// time) and returns whether the timer fires. A firing disarms the
    /// slot; a pop ahead of the wanted deadline re-pushes the entry there
    /// and keeps the deadline; an entry undercut by an earlier one is
    /// ignored.
    pub fn on_pop<E>(&mut self, q: &mut EventQueue<E>, event: impl FnOnce() -> E) -> bool {
        let at = q.now();
        if self.queued_at != Some(at) {
            return false;
        }
        self.queued_at = None;
        match self.want {
            Some((due, _)) if due == at => {
                self.want = None;
                true
            }
            Some((due, seq)) => {
                q.schedule_keyed(due, seq, event());
                self.queued_at = Some(due);
                false
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Ns(30), 3);
        q.schedule(Ns(10), 1);
        q.schedule(Ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Ns(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Ns(5), ());
        q.schedule(Ns(9), ());
        assert_eq!(q.now(), Ns::ZERO);
        q.pop();
        assert_eq!(q.now(), Ns(5));
        q.pop();
        assert_eq!(q.now(), Ns(9));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Ns(100), "first");
        q.pop();
        q.schedule_in(Ns(50), "second");
        assert_eq!(q.pop(), Some((Ns(150), "second")));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), "a");
        q.schedule(Ns(20), "b");
        assert_eq!(q.pop_until(Ns(15)), Some((Ns(10), "a")));
        assert_eq!(q.pop_until(Ns(15)), None);
        assert_eq!(q.pop_until(Ns(25)), Some((Ns(20), "b")));
    }

    #[test]
    #[should_panic(expected = "before now")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Ns(100), ());
        q.pop();
        q.schedule(Ns(50), ());
    }

    #[test]
    fn keyed_push_takes_the_reserved_tie_break_position() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), "a");
        let seq = q.reserve_seq();
        q.schedule(Ns(10), "c");
        q.schedule(Ns(5), "early");
        q.pop();
        // Pushed last, but under the number reserved between "a" and "c".
        q.schedule_keyed(Ns(10), seq, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "before now")]
    #[cfg(debug_assertions)]
    fn keyed_push_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Ns(100), ());
        q.pop();
        let seq = q.reserve_seq();
        q.schedule_keyed(Ns(50), seq, ());
    }

    #[test]
    fn timer_moved_later_keeps_one_entry_and_fires_once() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut t = TimerSlot::default();
        t.arm(&mut q, Some(Ns(10)), || ());
        for later in [20, 30, 40] {
            t.arm(&mut q, Some(Ns(later)), || ());
            assert_eq!(q.len(), 1, "moving later pushes nothing");
        }
        let mut fired = Vec::new();
        while let Some((at, ())) = q.pop() {
            if t.on_pop(&mut q, || ()) {
                fired.push(at);
            }
            assert!(q.len() <= 1);
        }
        assert_eq!(fired, vec![Ns(40)]);
        // 10 → re-pushed at 40: two pops, not four.
        assert_eq!(q.events_processed(), 2);
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn timer_moved_earlier_fires_early_and_ignores_the_late_entry() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut t = TimerSlot::default();
        t.arm(&mut q, Some(Ns(80)), || ());
        t.arm(&mut q, Some(Ns(30)), || ());
        assert_eq!(q.len(), 2, "the earlier key is pushed at once");
        assert_eq!(q.pop(), Some((Ns(30), ())));
        assert!(t.on_pop(&mut q, || ()));
        assert_eq!(q.pop(), Some((Ns(80), ())));
        assert!(!t.on_pop(&mut q, || ()), "superseded entry");
        assert!(q.is_empty());
    }

    #[test]
    fn non_firing_pop_keeps_the_deadline_and_disarm_stops_the_chain() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut t = TimerSlot::default();
        t.arm(&mut q, Some(Ns(10)), || ());
        t.arm(&mut q, Some(Ns(50)), || ());
        q.pop();
        assert!(!t.on_pop(&mut q, || ()));
        assert_eq!(t.deadline(), Some(Ns(50)), "a stale pop forgets nothing");
        assert_eq!(q.peek_time(), Some(Ns(50)));
        t.arm(&mut q, Some(Ns(50)), || ());
        assert_eq!(q.len(), 1, "re-arming the same deadline pushes nothing");
        t.arm(&mut q, None, || ());
        q.pop();
        assert!(!t.on_pop(&mut q, || ()));
        assert!(q.is_empty(), "a disarmed timer does not re-push");
    }

    #[test]
    fn past_deadline_is_clamped_and_refire_in_the_same_instant_works() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut t = TimerSlot::default();
        q.schedule(Ns(100), ());
        q.pop();
        t.arm(&mut q, Some(Ns(40)), || ());
        assert_eq!(t.deadline(), Some(Ns(100)));
        assert_eq!(q.pop(), Some((Ns(100), ())));
        assert!(t.on_pop(&mut q, || ()));
        // The owner's handler wants the same instant again: a firing must
        // have cleared the slot, or this arm would be taken for a no-op.
        t.arm(&mut q, Some(Ns(100)), || ());
        assert_eq!(q.pop(), Some((Ns(100), ())));
        assert!(t.on_pop(&mut q, || ()));
    }

    /// Events of the timer-equivalence harness.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TEv {
        /// Drives the script: each pop applies a few random timer ops.
        Tick,
        /// An unrelated event, there to expose tie order.
        Noise(u32),
        Timer(usize),
    }

    /// What the harness needs of a timer implementation.
    trait TimerImpl: Default {
        fn set(&mut self, q: &mut EventQueue<TEv>, deadline: Option<Ns>, k: usize);
        /// An entry of timer `k` popped; does the timer fire?
        fn popped(&mut self, q: &mut EventQueue<TEv>, k: usize) -> bool;
    }

    /// The scheme `TimerSlot` replaced, stale-pop re-push included: the
    /// owner's deadline in `want`, the last scheduled one in `scheduled`,
    /// a fresh `schedule` whenever they differ, `scheduled` forgotten on
    /// every pop, and a firing whenever `now` has reached `want`.
    #[derive(Default)]
    struct Eager {
        want: Option<Ns>,
        scheduled: Option<Ns>,
    }

    impl Eager {
        fn sync(&mut self, q: &mut EventQueue<TEv>, k: usize) {
            let due = self.want.map(|t| t.max(q.now()));
            if let Some(at) = due.filter(|_| self.scheduled != due) {
                q.schedule(at, TEv::Timer(k));
            }
            self.scheduled = due;
        }
    }

    impl TimerImpl for Eager {
        fn set(&mut self, q: &mut EventQueue<TEv>, deadline: Option<Ns>, k: usize) {
            self.want = deadline;
            self.sync(q, k);
        }
        fn popped(&mut self, q: &mut EventQueue<TEv>, k: usize) -> bool {
            self.scheduled = None;
            let fires = self.want.is_some_and(|t| q.now() >= t);
            if fires {
                self.want = None;
            }
            self.sync(q, k);
            fires
        }
    }

    impl TimerImpl for TimerSlot {
        fn set(&mut self, q: &mut EventQueue<TEv>, deadline: Option<Ns>, k: usize) {
            self.arm(q, deadline, || TEv::Timer(k));
        }
        fn popped(&mut self, q: &mut EventQueue<TEv>, k: usize) -> bool {
            self.on_pop(q, || TEv::Timer(k))
        }
    }

    /// What one harness run observed.
    struct Observed {
        /// Every firing and every unrelated event, in pop order.
        seen: Vec<(Ns, TEv)>,
        pops: u64,
        /// Most heap entries any one timer had at once.
        max_live: usize,
    }

    /// Longest timeout the script arms, in ns.
    const HORIZON: u64 = 48;
    const TIMERS: usize = 3;

    /// One timer's script state; a function of the ops issued and of the
    /// firings seen, never of the implementation under test.
    #[derive(Default)]
    struct Scripted<T> {
        timer: T,
        /// The deadline the script last asked for, clamped.
        want: Option<Ns>,
        /// Latest deadline ever asked for: no heap entry lies beyond it.
        latest: Ns,
        /// Every deadline asked for so far. The script asks for none
        /// twice: returning to an abandoned one is the inexact corner in
        /// the `TimerSlot` docs, and re-arming for the instant of a firing
        /// (which neither transport does) would, in the replaced scheme,
        /// be taken by a leftover duplicate of the entry that just fired.
        used: std::collections::BTreeSet<Ns>,
        /// `latest` as of the last move below it: the entry that move
        /// superseded, if any, lies at or before this.
        superseded_by: Ns,
        live: usize,
    }

    impl<T: TimerImpl> Scripted<T> {
        fn set(&mut self, q: &mut EventQueue<TEv>, mut deadline: Option<Ns>, k: usize) {
            if let Some(t) = &mut deadline {
                // Judge the clamped value, but hand over the unclamped one.
                let mut due = (*t).max(q.now());
                while Some(due) != self.want && self.used.contains(&due) {
                    due += Ns(1);
                    *t = due;
                }
                self.used.insert(due);
                self.latest = self.latest.max(due);
            }
            self.want = deadline.map(|t| t.max(q.now()));
            let before = q.len();
            self.timer.set(q, deadline, k);
            self.live += q.len() - before;
        }
    }

    /// Drives `T` through a seeded interleaving of arm-later, arm-earlier,
    /// disarm, re-arm-on-fire and same-nanosecond unrelated events.
    ///
    /// The script moves a deadline *earlier* than one it asked for before
    /// only once the entry its last such move superseded must have popped
    /// (one RTO-backoff reset per longest timeout, roughly), so a timer
    /// never has more than one superseded entry pending.
    fn drive<T: TimerImpl>(seed: u64) -> Observed {
        let mut rng = SimRng::new(seed);
        let mut q: EventQueue<TEv> = EventQueue::new();
        let mut timers: Vec<Scripted<T>> = (0..TIMERS).map(|_| Scripted::default()).collect();
        let mut out = Observed {
            seen: Vec::new(),
            pops: 0,
            max_live: 0,
        };
        let mut noise = 0u32;
        let mut ticks = 0u32;
        q.schedule(Ns(1), TEv::Tick);
        while let Some((now, ev)) = q.pop() {
            match ev {
                TEv::Noise(_) => out.seen.push((now, ev)),
                TEv::Timer(k) => {
                    let t = &mut timers[k];
                    t.live -= 1;
                    let before = q.len();
                    let fires = t.timer.popped(&mut q, k);
                    t.live += q.len() - before;
                    if fires {
                        out.seen.push((now, ev));
                        t.want = None;
                        // Like an RTO: usually re-arm at once.
                        if rng.gen_range(4) > 0 {
                            t.set(&mut q, Some(now + Ns(1 + rng.gen_range(HORIZON))), k);
                        }
                    }
                }
                TEv::Tick => {
                    out.seen.push((now, ev));
                    for _ in 0..=rng.gen_range(3) {
                        let k = rng.gen_range(TIMERS as u64) as usize;
                        let t = &mut timers[k];
                        let floor = t.latest.max(now);
                        let deadline = match rng.gen_range(8) {
                            0 => None,
                            1 | 2 if floor > now && now > t.superseded_by => {
                                t.superseded_by = t.latest;
                                // May land just before `now`: clamped.
                                let lo = now.0.saturating_sub(2);
                                Some(Ns(lo + rng.gen_range(floor.0 - lo)))
                            }
                            _ if floor < now + Ns(HORIZON) => {
                                Some(floor + Ns(rng.gen_range((now + Ns(HORIZON) - floor).0 + 1)))
                            }
                            _ => continue,
                        };
                        // Unrelated events for the same nanosecond, one
                        // scheduled before the timer moves and one after.
                        let at = deadline.map_or(now, |t| t.max(now));
                        for after in [false, true] {
                            if after {
                                t.set(&mut q, deadline, k);
                            }
                            if rng.gen_bool(0.5) {
                                noise += 1;
                                q.schedule(at, TEv::Noise(noise));
                            }
                        }
                    }
                    ticks += 1;
                    if ticks < 400 {
                        q.schedule(now + Ns(rng.gen_range(HORIZON / 4)), TEv::Tick);
                    }
                }
            }
            for t in &timers {
                out.max_live = out.max_live.max(t.live);
            }
        }
        assert!(timers.iter().all(|t| t.live == 0), "heap drained");
        out.pops = q.events_processed();
        out
    }

    #[test]
    fn timer_slot_fires_exactly_where_eager_scheduling_does() {
        let (mut lazy_pops, mut eager_pops, mut undercuts) = (0, 0, 0);
        for seed in 0..64 {
            let eager = drive::<Eager>(0x7133_0000 + seed);
            let lazy = drive::<TimerSlot>(0x7133_0000 + seed);
            let first_diff = lazy.seen.iter().zip(&eager.seen).position(|(a, b)| a != b);
            if let Some(i) = first_diff {
                panic!(
                    "seed {seed}: pop {i} is {:?} with the slot, {:?} eagerly",
                    lazy.seen[i], eager.seen[i]
                );
            }
            assert_eq!(lazy.seen.len(), eager.seen.len(), "seed {seed}");
            assert!(lazy.max_live <= 2, "seed {seed}: {} entries", lazy.max_live);
            assert!(
                lazy.seen
                    .iter()
                    .filter(|(_, e)| matches!(e, TEv::Timer(_)))
                    .count()
                    > 20,
                "seed {seed}: script fires too rarely to prove anything"
            );
            lazy_pops += lazy.pops;
            eager_pops += eager.pops;
            undercuts += u32::from(lazy.max_live == 2);
        }
        assert!(undercuts > 32, "the earlier-move case is rarely reached");
        assert!(
            lazy_pops * 10 < eager_pops * 9,
            "{lazy_pops} vs {eager_pops}"
        );
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_monotonic() {
        let mut q = EventQueue::new();
        let mut last = Ns::ZERO;
        q.schedule(Ns(1), 0u64);
        let mut produced = 0u64;
        while let Some((t, n)) = q.pop() {
            assert!(t >= last);
            last = t;
            if produced < 1000 {
                produced += 1;
                // Schedule two children with pseudo-random-ish offsets.
                q.schedule(t + Ns(1 + (n * 7919) % 13), produced);
            }
        }
        assert_eq!(q.events_processed(), 1001);
    }
}
