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
//! **Three tiers.** Traffic here is µs-dense packet trains, so nearly every
//! pending event lies within a few ms of `now`; one binary heap over all of
//! them pays a dozen dependent cache misses per pop for an order almost
//! none of them needs yet. The queue is therefore a calendar in front of a
//! heap. Time is cut into buckets of `1 << BUCKET_SHIFT` ns and the queue
//! keeps a *window* bucket:
//!
//! - the **near run**, sorted by `(time, seq)`, holds every event whose
//!   bucket is at or before the window — a handful of entries, and the only
//!   place order is decided: a bucket is sorted once when it is loaded, a
//!   pop takes the front, and a push that lands this close to `now` is a
//!   binary search and a short shift (it usually belongs near the back);
//! - the **ring** holds the next `RING_BUCKETS − 1` buckets as unordered
//!   singly-linked lists (a list head and an occupancy bit per ring slot),
//!   so a push is O(1);
//! - the **far heap** holds what lies beyond the ring (sampler windows,
//!   backed-off RTOs, day-long horizons).
//!
//! The events themselves sit in one slab of nodes with a free list, written
//! once when scheduled and read once when popped; the tiers hold `(key,
//! node index)` pairs and list links, so the slab is bounded by the pending
//! high-water and nothing 56 bytes wide is ever sorted or sifted.
//!
//! *Invariant: the near run is non-empty whenever the queue is.* When a pop
//! empties it, the window jumps — before `pop` returns — to the earlier of
//! the next occupied ring bucket and the far heap's first bucket, and that
//! bucket's events (from both) are loaded; a push into an empty queue moves
//! the window to the event. The next event is thus always the front of the
//! near run, which is what lets [`EventQueue::peek_time`] and
//! [`EventQueue::pending_now`] stay `&self` reads. Every event keeps the
//! exact `(time, seq)` key a single heap would have popped it under, so the
//! pop sequence is the same, event for event.
//!
//! Keeping one heap over everything and only slimming its entries to `(key,
//! node index)` was tried first and gained nothing (`incast_storm` 0.24 →
//! 0.25 s): with thousands pending, a pop's cost is the depth of the sift —
//! a dozen dependent misses — not the bytes it moves. For the near tier a
//! small `BinaryHeap` and the sorted run were both measured; the run was
//! 3–9 % faster in wall time on each of the six `perf` simulator workloads
//! tried (it won 30 of 36 alternating pairs).
//!
//! The queue is generic over the event payload so each layer of the stack
//! can define its own event enum. It has no removal operation, so a timer
//! whose deadline keeps moving (an RTO re-armed by every ACK) must not be
//! `schedule`d afresh on each move: the superseded entries would all still
//! be popped. [`TimerSlot`] is the one idiom for such timers — at most one
//! live queue entry per timer, re-pushed lazily when it pops before the
//! wanted deadline, under a `(deadline, seq)` key reserved when the
//! deadline was set so the firing keeps the tie-break position an eager
//! `schedule` would have given it.
//!
//! [`DrainSlot`] makes the same move for the drain of a FIFO output (a
//! switch port, a trunk): no queue entry while the output is idle. The
//! queue remembers the `(at, seq)` of the event it is dispatching, so a
//! slot can ask whether a key it reserved but never pushed has already
//! passed ([`EventQueue::has_popped`]) and whether anything else is due
//! before time moves ([`EventQueue::pending_now`]); a packet arriving at an
//! idle output on a quiet instant is then one dispatch, not three, and
//! every event that survives keeps its exact `(at, seq)`.

use crate::time::Ns;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Width of a calendar bucket: `1 << BUCKET_SHIFT` ns (1.024 µs, about one
/// MTU at the server line rate).
///
/// With [`RING_BUCKETS`] the ring spans 8.4 ms, which covers the 4 ms
/// `MIN_RTO` and the 20 µs `FABRIC_DELAY`, so in-region transport events
/// never reach the far heap. Measured on `perf bench` (`incast_storm`,
/// `bulk_stream`, `udp_floor`, `region_day`; 5 pairs × 3 s each): 4.096 µs
/// × 2 048 is 3–14 % slower in wall time — longer near runs to sort and
/// shift — and 256 ns × 32 768 is 1–6 % faster for 96 KB more of ring heads
/// in every queue. This pair is the one that keeps the heads at 32 KB; the
/// two numbers are not worth tuning further.
const BUCKET_SHIFT: u32 = 10;

/// Ring slots (a power of two). The list heads are `u32`, so the ring costs
/// 32 KB however many events pass through it; a `Vec` per bucket would keep
/// its capacity forever and cost MBs.
const RING_BUCKETS: usize = 8192;
const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const RING_WORDS: usize = RING_BUCKETS / 64;

/// End of a node list.
const NIL: u32 = u32::MAX;

/// An entry in the queue: ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Ns,
    seq: u64,
}

impl Key {
    fn bucket(&self) -> u64 {
        self.at.as_nanos() >> BUCKET_SHIFT
    }
}

/// A pending event as the near run and the far heap order it: its key and
/// the index of the slab node holding it. The payload is never compared (it
/// needs no `Ord`) and never moved.
type Entry = (Key, usize);

/// One slab node: a pending event, or a free node.
#[derive(Debug)]
struct Node<E> {
    key: Key,
    /// Next node of the same ring bucket, or of the free list; [`NIL`]
    /// ends either. Unused while the near run or the far heap names the
    /// node.
    next: u32,
    /// `None` while the node is on the free list.
    event: Option<E>,
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
    /// Every pending event whose bucket is `<= window`, ascending.
    near: VecDeque<Entry>,
    /// The window bucket. Only ever moves forward.
    window: u64,
    /// Per ring slot `bucket & RING_MASK`, the head of that bucket's node
    /// list. Every listed event's bucket is in `window + 1 .. window +
    /// RING_BUCKETS`, so a slot holds one bucket at a time.
    heads: Vec<u32>,
    /// One bit per ring slot: set iff its list is non-empty.
    occupied: [u64; RING_WORDS],
    /// Every pending event, whichever tier names it; bounded by the
    /// pending high-water.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// Events in the ring.
    ring_len: usize,
    /// Events at or beyond bucket `window + RING_BUCKETS` when pushed;
    /// always beyond `window`.
    far: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    now: Ns,
    /// Tie-break number of the most recently popped event: with `now`,
    /// the key of the event being dispatched.
    now_seq: u64,
    popped: u64,
    depth_high_water: usize,
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
            near: VecDeque::new(),
            window: 0,
            heads: vec![NIL; RING_BUCKETS],
            occupied: [0; RING_WORDS],
            nodes: Vec::new(),
            free: NIL,
            ring_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            now: Ns::ZERO,
            now_seq: 0,
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

    /// High-water mark of pending-event count — how deep the queue has
    /// ever grown, all three tiers together. Exported as a telemetry gauge
    /// to size event budgets.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.len() + self.ring_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        // The near run is non-empty whenever the queue is.
        self.near.is_empty()
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
        let key = Key {
            at: at.max(self.now),
            seq,
        };
        let bucket = key.bucket();
        let idx = self.alloc(key, event);
        if bucket <= self.window || self.near.is_empty() {
            // An empty queue's window jumps to its only event. It never
            // moves back: after a refill `now` trails the window, and the
            // near run is where everything at or before the window goes.
            self.window = self.window.max(bucket);
            let pos = self.near.partition_point(|&(k, _)| k < key);
            self.near.insert(pos, (key, idx));
        } else {
            match Self::link(idx) {
                Some(link) if bucket - self.window < RING_BUCKETS as u64 => {
                    let slot = (bucket & RING_MASK) as usize;
                    self.nodes[idx].next = std::mem::replace(&mut self.heads[slot], link);
                    self.occupied[slot / 64] |= 1 << (slot % 64);
                    self.ring_len += 1;
                }
                // Beyond the ring (or a node no `u32` link can name).
                _ => self.far.push(Reverse((key, idx))),
            }
        }
        self.depth_high_water = self.depth_high_water.max(self.len());
    }

    /// Pops the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Ns, E)> {
        let (key, idx) = self.near.pop_front()?;
        let node = self.nodes.get_mut(idx)?;
        let event = node.event.take()?;
        if let Some(link) = Self::link(idx) {
            node.next = std::mem::replace(&mut self.free, link);
        }
        debug_assert!(key.at >= self.now, "event queue went backwards");
        self.now = key.at;
        self.now_seq = key.seq;
        self.popped += 1;
        if self.near.is_empty() {
            self.refill();
        }
        Some((key.at, event))
    }

    /// Pops the next event only if it is at or before `deadline`.
    pub fn pop_until(&mut self, deadline: Ns) -> Option<(Ns, E)> {
        match self.near.front() {
            Some((key, _)) if key.at <= deadline => self.pop(),
            _ => None,
        }
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Ns> {
        self.near.front().map(|(key, _)| key.at)
    }

    /// Whether an event keyed `(at, seq)` would have popped by now: the key
    /// orders at or before that of the event being dispatched. For a key
    /// taken with [`EventQueue::reserve_seq`] and never pushed, this says
    /// whether pushing it now would be too late.
    pub fn has_popped(&self, at: Ns, seq: u64) -> bool {
        self.popped > 0 && (at, seq) <= (self.now, self.now_seq)
    }

    /// Whether another event is due at `now`, i.e. would pop before time
    /// advances. When none is, an event `schedule`d for `now` would be the
    /// very next pop, so its handler may run in place of the push.
    pub fn pending_now(&self) -> bool {
        self.peek_time() == Some(self.now)
    }

    /// Node index `idx` as a list link. `None` past what a `u32` names:
    /// such a node is only ever named by the near run or the far heap and
    /// is not reused.
    fn link(idx: usize) -> Option<u32> {
        u32::try_from(idx).ok().filter(|&link| link != NIL)
    }

    /// Stores a pending event in a free node, or a new one.
    fn alloc(&mut self, key: Key, event: E) -> usize {
        let node = Node {
            key,
            next: NIL,
            event: Some(event),
        };
        if self.free == NIL {
            self.nodes.push(node);
            return self.nodes.len() - 1;
        }
        let idx = self.free as usize;
        self.free = std::mem::replace(&mut self.nodes[idx], node).next;
        idx
    }

    /// The earliest bucket with an event in the ring.
    fn next_ring_bucket(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        // Slots in ring order from the one after the window's. The word
        // holding that slot comes up twice: its bits from the slot on
        // first, the bits below it (a turn of the ring later) last.
        let start = ((self.window + 1) & RING_MASK) as usize;
        let (first_word, first_bit) = (start / 64, start % 64);
        (0..=RING_WORDS).find_map(|i| {
            let w = (first_word + i) % RING_WORDS;
            let mut word = self.occupied[w];
            if i == 0 {
                word &= !0 << first_bit;
            } else if i == RING_WORDS {
                word &= !(!0 << first_bit);
            }
            (word != 0).then(|| {
                let slot = w * 64 + word.trailing_zeros() as usize;
                let ahead = (slot.wrapping_sub(start) as u64) & RING_MASK;
                self.window + 1 + ahead
            })
        })
    }

    /// The near run is empty: moves the window to the earliest bucket that
    /// holds an event and loads that bucket from the ring and from the far
    /// heap, which may each hold part of it.
    fn refill(&mut self) {
        let ring = self.next_ring_bucket();
        let far = self.far.peek().map(|Reverse((key, _))| key.bucket());
        let Some(bucket) = ring.into_iter().chain(far).min() else {
            return;
        };
        self.window = bucket;
        if ring == Some(bucket) {
            let slot = (bucket & RING_MASK) as usize;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            let mut link = std::mem::replace(&mut self.heads[slot], NIL);
            while link != NIL {
                let idx = link as usize;
                let node = &self.nodes[idx];
                self.near.push_back((node.key, idx));
                self.ring_len -= 1;
                link = node.next;
            }
        }
        while let Some(&Reverse(entry)) = self.far.peek() {
            if entry.0.bucket() > bucket {
                break;
            }
            self.far.pop();
            self.near.push_back(entry);
        }
        // Keys are unique, so the unstable sort has one outcome.
        self.near.make_contiguous().sort_unstable();
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

/// The drain of one FIFO output — a switch port, a trunk — holding no heap
/// entry while the output is idle.
///
/// The owner keeps the packets and the link; a *pull* takes the head packet
/// and occupies the link until `departed`. Scheduled eagerly, a packet that
/// meets an idle output costs three dispatches: its arrival, a wake-up
/// drain at the same instant, and after the pull a trailing drain at
/// `departed` that finds nothing. The slot drops the last two:
///
/// - **Park.** A pull that empties the queue pushes nothing. The slot
///   reserves the tie-break number where the trailing drain would have been
///   pushed and remembers `(departed, seq)`. The next admitted packet pushes
///   the drain under that very key if the key has not passed yet, and
///   otherwise finds the output idle — as the trailing drain would have
///   left it.
/// - **Inline.** A packet admitted to an idle output reserves the number
///   its wake-up would have taken. If nothing else is due at `now` the
///   wake-up would be the next pop, so the owner pulls in place; if
///   something is, the wake-up is pushed under the reserved number.
///
/// No event is reordered: every `seq` is reserved where the eager scheme
/// pushed, and a drain that does pull runs under the `(at, seq)` it always
/// had. A busy output is untouched — each pull that leaves packets behind
/// `schedule`s the next drain at `departed`. The heap holds at most one
/// entry per slot.
///
/// The owner's side: after admitting a packet call [`DrainSlot::admit`];
/// once the handler has admitted everything it will (a multicast admits to
/// many outputs, and every copy must be queued before any is pulled, as the
/// wake-ups would all have popped after the handler), call
/// [`DrainSlot::wake`] and pull if it says so. Pull when the slot's event
/// pops. After every pull call [`DrainSlot::pulled`]. Only the slot's pulls
/// may use the link: an idle slot takes the link to be free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSlot(Drain);

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Drain {
    /// Nothing queued, nothing pushed, link free.
    #[default]
    Idle,
    /// The last pull emptied the queue; the trailing drain keyed
    /// `(at, seq)` was not pushed. Once that key has passed this is `Idle`.
    Parked { at: Ns, seq: u64 },
    /// A packet was admitted on an idle output in this handler; `wake`
    /// has yet to pull it or push the wake-up under `seq`.
    Woken { seq: u64 },
    /// The slot's entry is in the heap, or is the event being dispatched.
    Queued,
}

impl DrainSlot {
    /// A packet was admitted to the output's queue. `event` builds the
    /// drain payload and runs only if an entry has to be pushed.
    pub fn admit<E>(&mut self, q: &mut EventQueue<E>, event: impl FnOnce() -> E) {
        match self.0 {
            Drain::Queued | Drain::Woken { .. } => {}
            Drain::Parked { at, seq } if !q.has_popped(at, seq) => {
                q.schedule_keyed(at, seq, event());
                self.0 = Drain::Queued;
            }
            Drain::Idle | Drain::Parked { .. } => {
                self.0 = Drain::Woken {
                    seq: q.reserve_seq(),
                };
            }
        }
    }

    /// Settles a wake-up reserved by [`DrainSlot::admit`]: returns `true`
    /// if the owner must pull now, and otherwise has pushed the wake-up (or
    /// found none reserved).
    pub fn wake<E>(&mut self, q: &mut EventQueue<E>, event: impl FnOnce() -> E) -> bool {
        let Drain::Woken { seq } = self.0 else {
            return false;
        };
        if q.pending_now() {
            q.schedule_keyed(q.now(), seq, event());
            self.0 = Drain::Queued;
            false
        } else {
            self.0 = Drain::Idle;
            true
        }
    }

    /// Accounts for a pull that keeps the link busy until `departed`;
    /// `more` says whether the queue still holds a packet. The absolute
    /// time comes first, as in [`EventQueue::schedule`].
    pub fn pulled<E>(
        &mut self,
        departed: Ns,
        q: &mut EventQueue<E>,
        more: bool,
        event: impl FnOnce() -> E,
    ) {
        self.0 = if more {
            q.schedule(departed, event());
            Drain::Queued
        } else {
            Drain::Parked {
                at: departed,
                seq: q.reserve_seq(),
            }
        };
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
    fn tiers_split_by_distance_and_the_slab_stays_at_the_high_water() {
        let bucket = |b: u64| Ns(b << BUCKET_SHIFT);
        let tiers = |q: &EventQueue<char>| (q.near.len(), q.ring_len, q.far.len());
        let mut q = EventQueue::new();
        q.schedule(bucket(2), 'a'); // an empty queue's window jumps to it
        q.schedule(bucket(5), 'b');
        q.schedule(bucket(2 + RING_BUCKETS as u64) - Ns(1), 'c'); // last ring bucket
        q.schedule(bucket(2 + RING_BUCKETS as u64), 'd'); // first beyond it
        assert_eq!((tiers(&q), q.window), ((1, 2, 1), 2));
        // The pop that empties the near run loads bucket 5 before it
        // returns; `now` trails the window, and what is scheduled between
        // the two is still ordered ahead of it.
        assert_eq!(q.pop(), Some((bucket(2), 'a')));
        assert_eq!(
            (tiers(&q), q.window, q.peek_time()),
            ((1, 1, 1), 5, Some(bucket(5)))
        );
        q.schedule(bucket(3), 'e');
        assert_eq!((tiers(&q), q.peek_time()), ((2, 1, 1), Some(bucket(3))));
        let order: String = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, "ebcd");
        assert_eq!((q.nodes.len(), q.depth_high_water()), (4, 4));
        // A long run with a few events pending reuses those few nodes.
        for i in 0..50_000u64 {
            q.schedule(q.now() + Ns(1 + i % 3_000), 'x');
            q.schedule(q.now() + Ns(10_000_000 + i), 'y');
            q.pop();
            q.pop();
        }
        assert!(
            q.is_empty() && q.nodes.len() == 4,
            "{} nodes",
            q.nodes.len()
        );
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

    /// Longest timeout the script arms, in script time units. A harness
    /// run takes the unit in ns: 1 keeps every key in calendar bucket 0,
    /// a few hundred µs spreads them over buckets and past the ring.
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
        fn set(&mut self, q: &mut EventQueue<TEv>, mut deadline: Option<Ns>, k: usize, unit: u64) {
            if let Some(t) = &mut deadline {
                // Judge the clamped value, but hand over the unclamped one.
                let mut due = (*t).max(q.now());
                while Some(due) != self.want && self.used.contains(&due) {
                    due += Ns(unit);
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
    fn drive<T: TimerImpl>(seed: u64, unit: u64) -> Observed {
        let mut rng = SimRng::new(seed);
        let units = |n: u64| Ns(n * unit);
        let mut q: EventQueue<TEv> = EventQueue::new();
        let mut timers: Vec<Scripted<T>> = (0..TIMERS).map(|_| Scripted::default()).collect();
        let mut out = Observed {
            seen: Vec::new(),
            pops: 0,
            max_live: 0,
        };
        let mut noise = 0u32;
        let mut ticks = 0u32;
        q.schedule(units(1), TEv::Tick);
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
                            let timeout = units(1 + rng.gen_range(HORIZON));
                            t.set(&mut q, Some(now + timeout), k, unit);
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
                                let lo = now.0.saturating_sub(2 * unit);
                                Some(Ns(lo) + units(rng.gen_range((floor.0 - lo) / unit)))
                            }
                            _ if floor < now + units(HORIZON) => {
                                let room = (now + units(HORIZON) - floor).0 / unit;
                                Some(floor + units(rng.gen_range(room + 1)))
                            }
                            _ => continue,
                        };
                        // Unrelated events for the same nanosecond, one
                        // scheduled before the timer moves and one after.
                        let at = deadline.map_or(now, |t| t.max(now));
                        for after in [false, true] {
                            if after {
                                t.set(&mut q, deadline, k, unit);
                            }
                            if rng.gen_bool(0.5) {
                                noise += 1;
                                q.schedule(at, TEv::Noise(noise));
                            }
                        }
                    }
                    ticks += 1;
                    if ticks < 400 {
                        q.schedule(now + units(rng.gen_range(HORIZON / 4)), TEv::Tick);
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
        // The same scripts in ns (every key in one calendar bucket, most
        // instants tied) and in units of 400 µs (keys across buckets, the
        // longest timeouts past the ring into the far heap).
        for unit in [1, 400_000] {
            timer_slot_matches_eager(unit);
        }
    }

    fn timer_slot_matches_eager(unit: u64) {
        let (mut lazy_pops, mut eager_pops, mut undercuts) = (0, 0, 0);
        for seed in 0..64 {
            let eager = drive::<Eager>(0x7133_0000 + seed, unit);
            let lazy = drive::<TimerSlot>(0x7133_0000 + seed, unit);
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
    fn queue_knows_the_dispatching_key_and_what_else_is_due() {
        let mut q = EventQueue::new();
        assert!(!q.has_popped(Ns::ZERO, 0), "nothing has popped yet");
        q.schedule(Ns(10), "a"); // seq 0
        let parked = q.reserve_seq(); // seq 1, never pushed
        q.schedule(Ns(10), "b"); // seq 2
        q.schedule(Ns(20), "c");
        assert!(!q.pending_now(), "now is 0, the first event is at 10");
        q.pop();
        assert!(q.has_popped(Ns(9), 99) && q.has_popped(Ns(10), 0));
        assert!(
            !q.has_popped(Ns(10), parked),
            "a is dispatching: 1 is ahead"
        );
        assert!(q.pending_now(), "b is due at this instant");
        q.pop();
        assert!(
            q.has_popped(Ns(10), parked),
            "b is dispatching: 1 is behind"
        );
        assert!(!q.has_popped(Ns(11), 0) && !q.pending_now());
    }

    /// A queue whose clock a just-popped event has moved to `now`.
    fn queue_at(now: u64) -> EventQueue<&'static str> {
        let mut q = EventQueue::new();
        q.schedule(Ns(now), "driver");
        q.pop();
        q
    }

    fn drain_order(q: &mut EventQueue<&'static str>) -> Vec<(Ns, &'static str)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn idle_slot_on_a_quiet_instant_pulls_inline() {
        let mut q = queue_at(10);
        let mut slot = DrainSlot::default();
        slot.admit(&mut q, || "drain");
        assert!(slot.wake(&mut q, || "drain"), "the owner pulls now");
        assert!(q.is_empty(), "nothing was pushed");
        assert_eq!(q.reserve_seq(), 2, "the wake-up's number was taken");
        assert!(!slot.wake(&mut q, || "drain"), "one wake-up, one pull");
    }

    #[test]
    fn idle_slot_on_a_tie_pushes_the_wake_up_under_its_reserved_number() {
        let mut q = queue_at(10);
        q.schedule(Ns(10), "tie");
        let mut slot = DrainSlot::default();
        slot.admit(&mut q, || "drain");
        // Pushed by the same handler after the admission, as a multicast
        // does for its next copy: it must still pop after the wake-up.
        q.schedule(Ns(10), "later");
        slot.admit(&mut q, || "drain");
        assert!(!slot.wake(&mut q, || "drain"), "something else is due");
        let order = drain_order(&mut q);
        assert_eq!(
            order,
            vec![(Ns(10), "tie"), (Ns(10), "drain"), (Ns(10), "later")]
        );
    }

    #[test]
    fn parked_slot_pushes_the_drain_under_the_parked_key() {
        let mut q = queue_at(10);
        let mut slot = DrainSlot::default();
        slot.pulled(Ns(20), &mut q, false, || "drain");
        assert!(q.is_empty(), "an emptying pull pushes nothing");
        q.schedule(Ns(20), "after"); // where the trailing drain was: behind it
        q.schedule(Ns(15), "driver");
        q.pop();
        slot.admit(&mut q, || "drain");
        assert_eq!(q.len(), 2, "the drain is queued");
        assert!(!slot.wake(&mut q, || "drain"));
        slot.admit(&mut q, || "drain");
        assert_eq!(q.len(), 2, "a busy output takes packets without pushing");
        assert_eq!(
            drain_order(&mut q),
            vec![(Ns(20), "drain"), (Ns(20), "after")]
        );
    }

    #[test]
    fn parked_key_that_passed_at_an_earlier_instant_leaves_the_slot_idle() {
        let mut q = queue_at(10);
        let mut slot = DrainSlot::default();
        slot.pulled(Ns(20), &mut q, false, || "drain");
        q.schedule(Ns(30), "driver");
        q.pop();
        slot.admit(&mut q, || "drain");
        assert!(q.is_empty(), "not pushed into the past");
        assert!(slot.wake(&mut q, || "drain"));
    }

    #[test]
    fn parked_key_at_now_is_compared_with_the_dispatching_seq() {
        for arrival_first in [true, false] {
            let mut q = queue_at(10);
            let mut slot = DrainSlot::default();
            if arrival_first {
                q.schedule(Ns(20), "arrival");
            }
            slot.pulled(Ns(20), &mut q, false, || "drain");
            if !arrival_first {
                q.schedule(Ns(20), "arrival");
            }
            q.schedule(Ns(20), "after");
            assert_eq!(q.pop(), Some((Ns(20), "arrival")));
            slot.admit(&mut q, || "drain");
            if arrival_first {
                // The parked key is still ahead: the drain runs under it.
                assert!(!slot.wake(&mut q, || "drain"));
                assert_eq!(
                    drain_order(&mut q),
                    vec![(Ns(20), "drain"), (Ns(20), "after")]
                );
            } else {
                // It has passed: idle, and `after` forces a fresh wake-up.
                assert!(!slot.wake(&mut q, || "drain"));
                assert_eq!(
                    drain_order(&mut q),
                    vec![(Ns(20), "after"), (Ns(20), "drain")]
                );
            }
        }
    }

    #[test]
    fn busy_slot_chains_one_drain_per_pull() {
        let mut q = queue_at(10);
        let mut slot = DrainSlot::default();
        slot.pulled(Ns(20), &mut q, true, || "drain");
        assert_eq!(q.len(), 1);
        slot.admit(&mut q, || "drain");
        assert!(!slot.wake(&mut q, || "drain"));
        assert_eq!(q.len(), 1, "one entry however many packets wait");
        assert_eq!(q.pop(), Some((Ns(20), "drain")));
        slot.pulled(Ns(30), &mut q, false, || "drain");
        assert!(q.is_empty());
    }

    /// Events of the drain-equivalence harness.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum DEv {
        /// Drives the script: each pop schedules a few arrivals.
        Tick,
        /// An unrelated event, there to expose tie order.
        Noise(u32),
        /// Packets `id..id + copies` reach ports `port..port + copies`
        /// in one handler (`copies > 1` is a multicast).
        Arrive {
            port: usize,
            copies: usize,
            id: u32,
        },
        Drain(usize),
        /// A pulled packet reaches the far end of `port`'s link.
        Onward {
            port: usize,
            id: u32,
        },
    }

    /// What the harness needs of a drain implementation.
    trait DrainImpl: Default {
        /// A packet joined the port's queue; the link frees at `free_at`.
        fn admit(&mut self, q: &mut EventQueue<DEv>, free_at: Ns, port: usize);
        /// End of the admitting handler: must the port pull now?
        fn wake(&mut self, q: &mut EventQueue<DEv>, port: usize) -> bool;
        fn pulled(&mut self, q: &mut EventQueue<DEv>, departed: Ns, more: bool, port: usize);
        /// The port's drain popped on an empty queue.
        fn popped_empty(&mut self);
    }

    /// The scheme `DrainSlot` replaced: a flag, a wake-up `schedule`d when
    /// an idle port admits, a drain `schedule`d after every pull, the flag
    /// cleared by the trailing pop that finds nothing.
    #[derive(Default)]
    struct EagerDrain {
        draining: bool,
    }

    impl DrainImpl for EagerDrain {
        fn admit(&mut self, q: &mut EventQueue<DEv>, free_at: Ns, port: usize) {
            if !self.draining {
                self.draining = true;
                q.schedule(free_at.max(q.now()), DEv::Drain(port));
            }
        }
        fn wake(&mut self, _: &mut EventQueue<DEv>, _: usize) -> bool {
            false
        }
        fn pulled(&mut self, q: &mut EventQueue<DEv>, departed: Ns, _: bool, port: usize) {
            q.schedule(departed, DEv::Drain(port));
        }
        fn popped_empty(&mut self) {
            self.draining = false;
        }
    }

    impl DrainImpl for DrainSlot {
        fn admit(&mut self, q: &mut EventQueue<DEv>, _: Ns, port: usize) {
            DrainSlot::admit(self, q, || DEv::Drain(port));
        }
        fn wake(&mut self, q: &mut EventQueue<DEv>, port: usize) -> bool {
            DrainSlot::wake(self, q, || DEv::Drain(port))
        }
        fn pulled(&mut self, q: &mut EventQueue<DEv>, departed: Ns, more: bool, port: usize) {
            DrainSlot::pulled(self, departed, q, more, || DEv::Drain(port));
        }
        fn popped_empty(&mut self) {
            panic!("a drain the slot pushed found nothing to pull");
        }
    }

    const PORTS: usize = 4;

    /// One output of the harness: a FIFO, a link and the drain under test.
    #[derive(Default)]
    struct Port<D> {
        fifo: std::collections::VecDeque<u32>,
        free_at: Ns,
        drain: D,
        /// Drain entries of this port in the heap.
        live: usize,
    }

    struct Harness<D> {
        /// Script time unit in ns (see [`HORIZON`]).
        unit: u64,
        q: EventQueue<DEv>,
        ports: Vec<Port<D>>,
        /// Arrivals, pulls, onward deliveries and noise, in handler order.
        seen: Vec<(Ns, &'static str, usize, u32)>,
        max_live: usize,
        /// Admissions that pushed an entry (with the slot: under a parked
        /// key), wake-ups that pushed one, and wake-ups pulled in place.
        pushed_at_admit: u32,
        pushed_at_wake: u32,
        inlined: u32,
    }

    impl<D: DrainImpl> Harness<D> {
        /// Runs `f` on a port's drain and books the heap entries it pushed.
        fn with_drain<R>(
            &mut self,
            port: usize,
            f: impl FnOnce(&mut D, &mut EventQueue<DEv>, Ns) -> R,
        ) -> R {
            let p = &mut self.ports[port];
            let before = self.q.len();
            let r = f(&mut p.drain, &mut self.q, p.free_at);
            p.live += self.q.len() - before;
            self.max_live = self.max_live.max(p.live);
            r
        }

        fn admit(&mut self, port: usize, id: u32) {
            self.seen.push((self.q.now(), "arrive", port, id));
            self.ports[port].fifo.push_back(id);
            let live = self.ports[port].live;
            self.with_drain(port, |d, q, free_at| d.admit(q, free_at, port));
            self.pushed_at_admit += u32::from(self.ports[port].live > live);
        }

        fn wake(&mut self, port: usize) {
            let live = self.ports[port].live;
            if self.with_drain(port, |d, q, _| d.wake(q, port)) {
                self.inlined += 1;
                self.pull(port);
            } else {
                self.pushed_at_wake += u32::from(self.ports[port].live > live);
            }
        }

        /// Sizes and latencies are a few time units, some latencies zero,
        /// so departures, deliveries and arrivals keep colliding.
        fn pull(&mut self, port: usize) {
            let now = self.q.now();
            let p = &mut self.ports[port];
            let Some(id) = p.fifo.pop_front() else {
                p.drain.popped_empty();
                return;
            };
            assert!(p.free_at <= now, "pulled onto a busy link");
            let departed = now + Ns(self.unit * (1 + u64::from(id % 3)));
            p.free_at = departed;
            let more = !p.fifo.is_empty();
            self.seen.push((now, "pull", port, id));
            let arrived = departed + Ns(self.unit * (port as u64 % 3));
            self.q.schedule(arrived, DEv::Onward { port, id });
            self.with_drain(port, |d, q, _| d.pulled(q, departed, more, port));
        }
    }

    /// Drives `D` through a seeded script of unicast and multicast
    /// arrivals, two-hop forwarding and unrelated events on a time axis
    /// coarse enough that most instants hold several events, with idle
    /// gaps long enough for parked keys to pass.
    fn drive_drains<D: DrainImpl>(seed: u64, unit: u64) -> (Harness<D>, u64) {
        let mut rng = SimRng::new(seed);
        let mut h = Harness::<D> {
            unit,
            q: EventQueue::new(),
            ports: (0..PORTS).map(|_| Port::default()).collect(),
            seen: Vec::new(),
            max_live: 0,
            pushed_at_admit: 0,
            pushed_at_wake: 0,
            inlined: 0,
        };
        let (mut next_id, mut noise, mut ticks) = (0u32, 0u32, 0u32);
        h.q.schedule(Ns(unit), DEv::Tick);
        while let Some((now, ev)) = h.q.pop() {
            match ev {
                DEv::Noise(n) => h.seen.push((now, "noise", 0, n)),
                DEv::Drain(port) => {
                    h.ports[port].live -= 1;
                    h.pull(port);
                }
                DEv::Arrive { port, copies, id } => {
                    // Every copy is queued before any port is woken.
                    for c in 0..copies {
                        h.admit(port + c, id + c as u32);
                    }
                    // Sometimes the handler pushes for this instant before
                    // it settles the wake-ups: they were reserved first.
                    if id % 3 == 0 {
                        h.q.schedule(now, DEv::Noise(1_000_000 + id));
                    }
                    for c in 0..copies {
                        h.wake(port + c);
                    }
                }
                DEv::Onward { port, id } => {
                    h.seen.push((now, "onward", port, id));
                    // Half the packets take a second hop, admitted by the
                    // handler of their delivery as a fabric switch does.
                    if port + 1 < PORTS && id % 2 == 0 {
                        h.admit(port + 1, id);
                        h.wake(port + 1);
                    }
                }
                DEv::Tick => {
                    for _ in 0..=rng.gen_range(3) {
                        let at = now + Ns(unit * rng.gen_range(5));
                        if rng.gen_range(4) == 0 {
                            noise += 1;
                            h.q.schedule(at, DEv::Noise(noise));
                            continue;
                        }
                        let copies = if rng.gen_range(4) == 0 { PORTS } else { 1 };
                        let port = rng.gen_range((PORTS - copies + 1) as u64) as usize;
                        let id = next_id;
                        next_id += copies as u32;
                        h.q.schedule(at, DEv::Arrive { port, copies, id });
                    }
                    ticks += 1;
                    if ticks < 600 {
                        let gap = if rng.gen_range(3) == 0 { 60 } else { 6 };
                        h.q.schedule(now + Ns(unit * rng.gen_range(gap)), DEv::Tick);
                    }
                }
            }
        }
        assert!(h.ports.iter().all(|p| p.fifo.is_empty() && p.live == 0));
        let pops = h.q.events_processed();
        (h, pops)
    }

    #[test]
    fn drain_slot_pulls_exactly_where_eager_draining_does() {
        // In ns, and in units of 300 µs: a pull then parks its key buckets
        // away, and the long idle gaps reach past the ring.
        for unit in [1, 300_000] {
            drain_slot_matches_eager(unit);
        }
    }

    fn drain_slot_matches_eager(unit: u64) {
        let (mut slot_pops, mut eager_pops) = (0, 0);
        for seed in 0..64 {
            let (eager, e_pops) = drive_drains::<EagerDrain>(0xd4a1_0000 + seed, unit);
            let (slot, s_pops) = drive_drains::<DrainSlot>(0xd4a1_0000 + seed, unit);
            let first_diff = slot.seen.iter().zip(&eager.seen).position(|(a, b)| a != b);
            if let Some(i) = first_diff {
                panic!(
                    "seed {seed}: record {i} is {:?} with the slot, {:?} eagerly",
                    slot.seen[i], eager.seen[i]
                );
            }
            assert_eq!(slot.seen.len(), eager.seen.len(), "seed {seed}");
            assert_eq!(slot.max_live, 1, "seed {seed}: one heap entry per port");
            let pulls = slot.seen.iter().filter(|r| r.1 == "pull").count();
            assert!(pulls > 500, "seed {seed}: {pulls} pulls prove little");
            // Every path of the slot is taken often: the drain pushed under
            // a parked key, the wake-up pushed on a tie, the pull in place.
            for taken in [slot.pushed_at_admit, slot.pushed_at_wake, slot.inlined] {
                assert!(taken > 100, "seed {seed}: a path taken {taken} times");
            }
            slot_pops += s_pops;
            eager_pops += e_pops;
        }
        assert!(
            slot_pops * 10 < eager_pops * 9,
            "{slot_pops} vs {eager_pops}"
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
