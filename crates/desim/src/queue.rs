//! The event queue.
//!
//! A hierarchical timing wheel that delivers events in nondecreasing
//! timestamp order, breaking ties by insertion order (FIFO). The FIFO
//! tie-break matters for determinism: two processors scheduling events for
//! the same cycle must always be served in the same order across runs.
//!
//! # Structure
//!
//! Events landing within `WHEEL` cycles of the current clock go into a
//! cycle-granular wheel of `WHEEL` slots (`slot = time % WHEEL`); events
//! further out go into an overflow binary heap ordered by `(time, seq)`.
//! Wheel events live in one pooled arena of cells, recycled through a
//! free list and linked into one FIFO list per slot. Scheduling into the
//! wheel is O(1) (take a free cell, append it to the slot's list, set one
//! bitmap bit); popping scans an occupancy bitmap 64 slots per word to
//! find the next busy slot, and the scan is amortized away by a cached
//! minimum. In the simulator's steady state nearly every event is a
//! short-delay channel/memory/resume event, so the heap sees only the
//! rare run-ahead slice wakeups.
//!
//! The arena holds as many cells as were ever pending at once (about 2
//! per node in the machine model), wherever on the wheel they fell, so
//! the wheel's hot state stays a few cache lines however far the clock
//! advances. A buffer per slot would instead grow every slot the clock
//! passes and rotate through all of them every `WHEEL` cycles.
//!
//! # Why the wheel preserves FIFO order exactly
//!
//! Every pending wheel event lies in `[now, now + WHEEL)` — events are
//! never scheduled in the past, and an event admitted when
//! `at - now < WHEEL` only gets *closer* to a monotonically advancing
//! clock — so each slot holds at most one distinct timestamp and a slot's
//! list, appended at its tail and popped at its head, is in sequence
//! order. A recycled cell goes back on the free list only after it has
//! left its slot's list, so it is never linked into two lists at once.
//! Across the two structures, eligibility for the wheel at a fixed
//! timestamp `T` is monotone in time: once `T - now < WHEEL` holds it
//! holds forever. Hence every overflow entry at `T` was scheduled before
//! (smaller `seq` than) every wheel entry at `T`, and a pop that prefers
//! the overflow heap on timestamp ties replays the exact global
//! `(time, seq)` order a single binary heap would produce.
//! `tests/golden.rs` pins this bit-for-bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Wheel span in cycles (and slot count; one slot per cycle). Must be a
/// power of two. 8192 covers every latency class in the machine model
/// (channel, memory, ring, sync) — only run-ahead slice wakeups overflow.
const WHEEL: usize = 8192;
const MASK: u64 = WHEEL as u64 - 1;
const WORDS: usize = WHEEL / 64;
/// The null cell index: the end of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// A timestamped overflow entry. Ordered so the `BinaryHeap` (a max-heap)
/// pops the *smallest* `(time, seq)` first.
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smallest (time, seq) is the "greatest" heap element.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One arena cell: a pending wheel event and the next cell of its slot
/// list, or an empty cell and the next free one.
struct EventCell<E> {
    event: Option<E>,
    next: u32,
}

/// A slot's FIFO list of cells. Meaningful only while the slot's bitmap
/// bit is set; an empty slot keeps stale indices.
#[derive(Clone, Copy, Default)]
struct Slot {
    head: u32,
    tail: u32,
}

/// A deterministic future-event list.
///
/// ```
/// use desim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// q.schedule(10, "c"); // same time as "b": FIFO order preserved
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Every wheel event's cell, plus the free cells; grows only when the
    /// free list is empty, so it never exceeds the most events ever
    /// pending in the wheel at once.
    cells: Vec<EventCell<E>>,
    /// Head of the free list threaded through `cells`.
    free: u32,
    /// One list per cycle-granular slot; all events in a slot share one
    /// timestamp, so append order is FIFO order.
    slots: Box<[Slot]>,
    /// Occupancy bitmap over `slots`, 64 slots per word.
    bits: Box<[u64]>,
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Cached minimum wheel timestamp; `None` means "unknown, rescan".
    wheel_min: Option<Time>,
    /// Far-future events (`at - now >= WHEEL` at scheduling time).
    over: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Time,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` far-future events before
    /// the overflow heap reallocates. The wheel's slot table is fixed-size
    /// and its cell arena grows to the peak pending count.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            cells: Vec::new(),
            free: NIL,
            slots: vec![Slot::default(); WHEEL].into_boxed_slice(),
            bits: vec![0u64; WORDS].into_boxed_slice(),
            wheel_len: 0,
            wheel_min: None,
            over: BinaryHeap::with_capacity(cap),
            seq: 0,
            now: 0,
            scheduled_total: 0,
        }
    }

    /// Rewinds the clock and counters to a fresh queue, dropping pending
    /// events and keeping every allocation (cell arena, slot table,
    /// bitmap, heap) for the next run.
    pub fn reset(&mut self) {
        if self.wheel_len != 0 {
            for (w, word) in self.bits.iter_mut().enumerate() {
                let mut bs = *word;
                while bs != 0 {
                    let Slot { head, tail } = self.slots[w * 64 + bs.trailing_zeros() as usize];
                    bs &= bs - 1;
                    // Drop the slot's events, then splice its whole list
                    // onto the free list.
                    let mut c = head;
                    while c != NIL {
                        let cell = &mut self.cells[c as usize];
                        cell.event = None;
                        c = cell.next;
                    }
                    self.cells[tail as usize].next = self.free;
                    self.free = head;
                }
                *word = 0;
            }
        }
        self.wheel_len = 0;
        self.wheel_min = None;
        self.over.clear();
        self.seq = 0;
        self.now = 0;
        self.scheduled_total = 0;
    }

    /// The current simulation time: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` lies in the past — delivering an
    /// event before `now` would silently corrupt causality.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.scheduled_total += 1;
        // Wrapping keeps an (impossible per the contract above) past event
        // out of the wheel rather than corrupting a live slot.
        if at.wrapping_sub(self.now) < WHEEL as Time {
            let c = self.alloc(event);
            let slot = (at & MASK) as usize;
            let bit = 1u64 << (slot % 64);
            if self.bits[slot / 64] & bit == 0 {
                self.bits[slot / 64] |= bit;
                self.slots[slot].head = c;
            } else {
                let tail = self.slots[slot].tail;
                self.cells[tail as usize].next = c;
            }
            self.slots[slot].tail = c;
            self.wheel_len += 1;
            // `None` means "stale — rescan required", NOT "wheel empty":
            // it may only be replaced by a full scan or a refinement of a
            // currently-valid minimum (or when this event is provably the
            // only one).
            if self.wheel_len == 1 {
                self.wheel_min = Some(at);
            } else if let Some(m) = self.wheel_min {
                if at < m {
                    self.wheel_min = Some(at);
                }
            }
        } else {
            self.over.push(Entry {
                time: at,
                seq,
                event,
            });
        }
    }

    /// Stores `event` in an unlinked cell and returns its index: the head
    /// of the free list, or a new cell when none is free.
    #[inline]
    fn alloc(&mut self, event: E) -> u32 {
        let cell = EventCell {
            event: Some(event),
            next: NIL,
        };
        if self.free == NIL {
            assert!(self.cells.len() < NIL as usize, "event arena full");
            self.cells.push(cell);
            (self.cells.len() - 1) as u32
        } else {
            let c = self.free;
            self.free = self.cells[c as usize].next;
            self.cells[c as usize] = cell;
            c
        }
    }

    /// Timestamp of the earliest wheel event, scanning the occupancy
    /// bitmap from the clock's slot forward (all wheel events lie in
    /// `[now, now + WHEEL)`, so one wrap of the bitmap covers them).
    fn scan_wheel(&self) -> Option<Time> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.now & MASK) as usize;
        let mut word = start / 64;
        // First (partial) word: only bits at/after the start position.
        let mut bs = self.bits[word] & (!0u64 << (start % 64));
        let mut scanned = 0usize;
        loop {
            if bs != 0 {
                let slot = word * 64 + bs.trailing_zeros() as usize;
                // Reconstruct the unique timestamp in [now, now + WHEEL)
                // that maps to `slot`.
                let delta = (slot as Time).wrapping_sub(self.now) & MASK;
                return Some(self.now + delta);
            }
            scanned += 1;
            if scanned > WORDS {
                debug_assert!(false, "wheel_len nonzero but bitmap empty");
                return None;
            }
            word = (word + 1) % WORDS;
            bs = self.bits[word];
            if scanned == WORDS {
                // Final revisit of the start word: the bits *before* the
                // start position (times that wrapped past the slot ring).
                bs &= !(!0u64 << (start % 64));
                if start.is_multiple_of(64) {
                    bs = 0;
                }
            }
        }
    }

    /// Earliest wheel timestamp, memoized.
    #[inline]
    fn wheel_next(&mut self) -> Option<Time> {
        if self.wheel_len == 0 {
            return None;
        }
        if self.wheel_min.is_none() {
            self.wheel_min = self.scan_wheel();
        }
        self.wheel_min
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// On a timestamp tie between the wheel and the overflow heap, the
    /// heap entry is delivered first: it was scheduled while the slot was
    /// out of wheel range, i.e. strictly earlier in sequence order than
    /// every wheel entry at that timestamp (see module docs).
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let wheel_t = self.wheel_next();
        let over_t = self.over.peek().map(|e| e.time);
        let from_over = match (wheel_t, over_t) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(w), Some(o)) => o <= w,
        };
        if from_over {
            let e = self.over.pop().expect("peeked entry");
            debug_assert!(e.time >= self.now, "time went backwards");
            self.now = e.time;
            Some((e.time, e.event))
        } else {
            let t = wheel_t.expect("wheel entry");
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            let slot = (t & MASK) as usize;
            // Unlink the head cell, then recycle it onto the free list.
            let c = self.slots[slot].head;
            let cell = &mut self.cells[c as usize];
            let event = cell.event.take().expect("occupied slot");
            let next = cell.next;
            cell.next = self.free;
            self.free = c;
            self.wheel_len -= 1;
            if next == NIL {
                self.bits[slot / 64] &= !(1u64 << (slot % 64));
                self.wheel_min = None;
            } else {
                self.slots[slot].head = next;
            }
            Some((t, event))
        }
    }

    /// Number of events currently pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.over.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (a cheap progress metric).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::rc::Rc;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5, ());
        q.schedule(9, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5);
        q.schedule(q.now() + 1, ());
        q.pop();
        assert_eq!(q.now(), 6);
        q.pop();
        assert_eq!(q.now(), 9);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(3, ());
    }

    #[test]
    fn len_and_counts() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, 0);
        q.schedule(2, 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.pop(), Some((2, 0)));
        assert!(q.is_empty());
    }

    #[test]
    fn far_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        q.schedule(WHEEL as Time * 3 + 17, 'z');
        q.schedule(4, 'a');
        assert_eq!(q.len(), 2);
        assert_eq!(q.over.len(), 1);
        assert_eq!(q.pop(), Some((4, 'a')));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((WHEEL as Time * 3 + 17, 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_wins_timestamp_ties_fifo() {
        // An event scheduled while its timestamp was out of wheel range
        // must still be delivered before wheel events later scheduled for
        // the same cycle — overflow seq numbers are strictly smaller.
        let t = WHEEL as Time + 100;
        let mut q = EventQueue::new();
        q.schedule(t, 0); // overflow (t - 0 >= WHEEL)
        q.schedule(t, 1); // overflow again; FIFO within the heap
        q.schedule(200, 9);
        assert_eq!(q.pop(), Some((200, 9)));
        // t is now within wheel range of now=200.
        q.schedule(t, 2); // wheel
        q.schedule(t, 3); // wheel
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_wraps_across_slot_ring() {
        // Drive the clock through several full wheel revolutions with
        // events straddling the wrap point.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t: Time = 0;
        for i in 0..1000u64 {
            t += 97; // coprime to the slot count: exercises every slot
            q.schedule(t, i);
            expect.push((t, i));
        }
        for e in expect {
            assert_eq!(q.pop(), Some(e));
        }
        assert_eq!(q.pop(), None);
    }

    /// Cells on the free list; a cycle fails rather than hangs.
    fn free_cells<E>(q: &EventQueue<E>) -> usize {
        let mut n = 0;
        let mut c = q.free;
        while c != NIL {
            n += 1;
            assert!(n <= q.cells.len(), "free list cycles");
            c = q.cells[c as usize].next;
        }
        n
    }

    /// One xorshift64 step: the tests' deterministic pseudo-random source.
    fn xorshift(r: &mut u64) -> u64 {
        *r ^= *r << 13;
        *r ^= *r >> 7;
        *r ^= *r << 17;
        *r
    }

    #[test]
    fn matches_reference_heap_order() {
        // Differential test: a deterministic pseudo-random interleaving of
        // schedules and pops must exactly match a reference heap ordered
        // by (time, id), including same-cycle bursts and far-future
        // entries. Ids increase in schedule order, so (time, id) order is
        // the (time, seq) contract. Between rounds the queue is reset with
        // events pending in many slots and in the overflow heap, which
        // sends every live cell back to the free list, and the next round
        // runs against a fresh reference.
        let mut q = EventQueue::new();
        let mut rng: u64 = 0x5EED_CAFE;
        let mut id = 0u64;
        for round in 0..4 {
            let mut reference = BinaryHeap::new();
            for _ in 0..5000 {
                let roll = xorshift(&mut rng);
                let delay = match roll % 5 {
                    0 => 0,                          // same-cycle burst
                    1 => roll % 64,                  // short latency
                    2 => roll % 2048,                // medium
                    3 => WHEEL as u64 + roll % 4096, // overflow
                    _ => roll % 16,
                };
                let at = q.now() + delay;
                q.schedule(at, id);
                reference.push(Reverse((at, id)));
                id += 1;
                if roll.is_multiple_of(3) {
                    assert_eq!(q.pop(), reference.pop().map(|Reverse(e)| e));
                }
            }
            if round < 3 {
                let busy_slots: u32 = q.bits.iter().map(|w| w.count_ones()).sum();
                assert!(busy_slots > 100 && !q.over.is_empty());
                let arena = q.cells.len();
                q.reset();
                assert!(q.is_empty());
                assert_eq!((q.cells.len(), free_cells(&q)), (arena, arena));
            } else {
                while let Some(Reverse(e)) = reference.pop() {
                    assert_eq!(q.pop(), Some(e));
                }
                assert_eq!(q.pop(), None);
            }
        }
    }

    #[test]
    fn arena_never_outgrows_the_pending_count() {
        // Ten wheel revolutions with at most K events pending, at delays
        // anywhere up to WHEEL - 1 plus same-slot bursts: popped cells are
        // recycled, so the arena never holds more than K cells however
        // many slots the clock sweeps past.
        const K: usize = 48;
        let mut q = EventQueue::new();
        let mut rng: u64 = 0xF00D_F00D;
        let mut id = 0u64;
        while q.now() < 10 * WHEEL as Time {
            while q.len() < K {
                let roll = xorshift(&mut rng);
                let at = q.now() + roll % WHEEL as Time;
                let burst = if roll.is_multiple_of(4) { 8 } else { 1 };
                for _ in 0..burst.min(K - q.len()) {
                    q.schedule(at, id);
                    id += 1;
                }
            }
            assert!(q.cells.len() <= K, "arena grew to {}", q.cells.len());
            q.pop();
        }
        assert_eq!(q.cells.len(), K);
        assert!(id > 20 * K as u64);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(i * 3, i);
        }
        q.schedule(WHEEL as Time * 2, 999);
        q.pop();
        let arena = q.cells.len();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), 0);
        assert_eq!(q.scheduled_total(), 0);
        q.schedule(7, 1);
        q.schedule(7, 2);
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.cells.len(), arena);
    }

    #[test]
    fn reset_drops_pending_events() {
        let token = Rc::new(());
        let mut q = EventQueue::new();
        for t in [3, 3, 9, WHEEL as Time * 2] {
            q.schedule(t, Rc::clone(&token));
        }
        q.reset();
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
