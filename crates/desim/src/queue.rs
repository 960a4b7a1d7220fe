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
//! Scheduling into the wheel is O(1) (a `VecDeque` push plus one bitmap
//! bit); popping scans an occupancy bitmap 64 slots per word to find the
//! next busy slot, and the scan is amortized away by a cached minimum.
//! In the simulator's steady state nearly every event is a short-delay
//! channel/memory/resume event, so the heap sees only the rare run-ahead
//! slice wakeups.
//!
//! # Why the wheel preserves FIFO order exactly
//!
//! Every pending wheel event lies in `[now, now + WHEEL)` — events are
//! never scheduled in the past, and an event admitted when
//! `at - now < WHEEL` only gets *closer* to a monotonically advancing
//! clock — so each slot holds at most one distinct timestamp and a slot's
//! `VecDeque` append order *is* sequence order. Across the two structures,
//! eligibility for the wheel at a fixed timestamp `T` is monotone in time:
//! once `T - now < WHEEL` holds it holds forever. Hence every overflow
//! entry at `T` was scheduled before (smaller `seq` than) every wheel
//! entry at `T`, and a pop that prefers the overflow heap on timestamp
//! ties replays the exact global `(time, seq)` order a single binary heap
//! would produce. `tests/golden.rs` pins this bit-for-bit.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// Wheel span in cycles (and slot count; one slot per cycle). Must be a
/// power of two. 8192 covers every latency class in the machine model
/// (channel, memory, ring, sync) — only run-ahead slice wakeups overflow.
const WHEEL: usize = 8192;
const MASK: u64 = WHEEL as u64 - 1;
const WORDS: usize = WHEEL / 64;

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
    /// One cycle-granular bucket per slot; all events in a slot share one
    /// timestamp, so append order is FIFO order.
    slots: Box<[VecDeque<E>]>,
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
    /// the overflow heap reallocates. The wheel itself is fixed-size.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: (0..WHEEL).map(|_| VecDeque::new()).collect(),
            bits: vec![0u64; WORDS].into_boxed_slice(),
            wheel_len: 0,
            wheel_min: None,
            over: BinaryHeap::with_capacity(cap),
            seq: 0,
            now: 0,
            scheduled_total: 0,
        }
    }

    /// Rewinds the clock and counters to a fresh queue, keeping every
    /// allocation (slot buffers, bitmap, heap) for the next run.
    pub fn reset(&mut self) {
        if self.wheel_len != 0 {
            for (w, word) in self.bits.iter_mut().enumerate() {
                let mut bs = *word;
                while bs != 0 {
                    let b = bs.trailing_zeros() as usize;
                    bs &= bs - 1;
                    self.slots[w * 64 + b].clear();
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
            let slot = (at & MASK) as usize;
            self.bits[slot / 64] |= 1u64 << (slot % 64);
            self.slots[slot].push_back(event);
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

    /// Schedules `event` `delay` cycles from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule(self.now + delay, event)
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
            let event = self.slots[slot].pop_front().expect("occupied slot");
            self.wheel_len -= 1;
            if self.slots[slot].is_empty() {
                self.bits[slot / 64] &= !(1u64 << (slot % 64));
                self.wheel_min = None;
            }
            Some((t, event))
        }
    }

    /// Peeks at the timestamp of the next event without popping it.
    #[inline]
    pub fn next_time(&self) -> Option<Time> {
        let wheel_t = self.wheel_min.or_else(|| self.scan_wheel());
        let over_t = self.over.peek().map(|e| e.time);
        match (wheel_t, over_t) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
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
        q.schedule_in(1, ());
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
        assert_eq!(q.next_time(), Some(2));
    }

    #[test]
    fn far_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        q.schedule(WHEEL as Time * 3 + 17, 'z');
        q.schedule(4, 'a');
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_time(), Some(4));
        assert_eq!(q.pop(), Some((4, 'a')));
        assert_eq!(q.next_time(), Some(WHEEL as Time * 3 + 17));
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

    #[test]
    fn matches_reference_heap_order() {
        // Differential test: a deterministic pseudo-random interleaving of
        // schedules and pops must exactly match a (time, seq) sorted
        // reference, including same-cycle bursts and far-future entries.
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        let mut rng: u64 = 0x5EED_CAFE;
        let step = |r: &mut u64| {
            *r ^= *r << 13;
            *r ^= *r >> 7;
            *r ^= *r << 17;
            *r
        };
        for id in 0..5000u64 {
            let roll = step(&mut rng);
            let delay = match roll % 5 {
                0 => 0,                          // same-cycle burst
                1 => roll % 64,                  // short latency
                2 => roll % 2048,                // medium
                3 => WHEEL as u64 + roll % 4096, // overflow
                _ => roll % 16,
            };
            q.schedule(q.now() + delay, id);
            if roll % 3 == 0 {
                if let Some((t, got)) = q.pop() {
                    popped.push((t, got));
                }
            }
        }
        while let Some((t, got)) = q.pop() {
            popped.push((t, got));
        }
        // Ids increase in schedule (seq) order, so the (time, seq) FIFO
        // contract means: delivery times nondecreasing, every id delivered
        // exactly once, and within any single timestamp ids strictly
        // increasing.
        assert_eq!(popped.len(), 5000);
        let mut seen = vec![false; 5000];
        let mut last: Option<(Time, u64)> = None;
        for &(t, id) in &popped {
            if let Some((lt, lid)) = last {
                assert!(t >= lt, "time regressed");
                if t == lt {
                    assert!(id > lid, "FIFO violated at t={t}");
                }
            }
            last = Some((t, id));
            assert!(!seen[id as usize], "duplicate delivery");
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(i * 3, i);
        }
        q.schedule(WHEEL as Time * 2, 999);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), 0);
        assert_eq!(q.scheduled_total(), 0);
        q.schedule(7, 1);
        q.schedule(7, 2);
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), None);
    }
}
