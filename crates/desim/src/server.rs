//! Resource servers: the contention model.
//!
//! A *server* is anything that can do one thing at a time: a memory bank, an
//! optical channel, a lock on a ring transmitter. Transactions acquire
//! servers along their path; the server hands back the time the transaction
//! actually gets served, so queueing delay falls out of the bookkeeping.
//!
//! Two flavors are provided:
//!
//! * [`FifoServer`] — serve in arrival order, back to back. Models home
//!   channels (single transmitter), memory modules, ring channel inserters.
//! * [`SlottedServer`] — TDMA: `n` clients each own every `n`-th slot of
//!   width `w`. Models the DMON control channel and the NetCache request
//!   channel (fixed 1-cycle slots) and, with wider slots, the coherence
//!   channels.

use crate::time::{Duration, Time};

/// A single resource served in FIFO order.
///
/// `acquire(arrival, service)` returns the time service *starts*; the
/// resource is then busy until `start + service`. Works correctly as long
/// as calls are made in nondecreasing `arrival` order, which the event
/// queue guarantees (see crate docs).
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    next_free: Time,
    busy_total: Duration,
    served: u64,
    wait_total: Duration,
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the server for `service` cycles for a request arriving at
    /// `arrival`. Returns the start-of-service time.
    #[inline]
    pub fn acquire(&mut self, arrival: Time, service: Duration) -> Time {
        let start = self.next_free.max(arrival);
        self.next_free = start + service;
        self.busy_total += service;
        self.served += 1;
        self.wait_total += start - arrival;
        start
    }

    /// How long a request arriving now would wait before being served.
    #[inline]
    pub fn backlog(&self, now: Time) -> Duration {
        self.next_free.saturating_sub(now)
    }

    /// Total busy time accumulated (for utilization reports).
    #[inline]
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    /// Number of requests served.
    #[inline]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Total queueing delay experienced by all requests.
    #[inline]
    pub fn wait_total(&self) -> Duration {
        self.wait_total
    }

    /// Mean queueing delay per request, or 0 if nothing was served.
    pub fn mean_wait(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.wait_total as f64 / self.served as f64
        }
    }
}

/// A TDMA channel: `clients` slots of `slot` cycles repeat forever; client
/// `i` may begin transmitting only at times `t` with
/// `t ≡ i * slot (mod clients * slot)`.
///
/// True TDMA semantics: different clients' single-slot messages in
/// different slots of the same frame do **not** conflict — an idle channel
/// sustains one message per slot (e.g. 16 messages per 16-cycle frame on
/// the paper's control channel). What does conflict:
///
/// * a client re-using its own slot: at most one message per frame per
///   client (tracked per client);
/// * multi-slot messages (the variable-slot TDMA of the coherence
///   channels): a message longer than one slot occupies consecutive slots,
///   pushing every other client past its end (tracked by `busy_until`).
#[derive(Debug, Clone)]
pub struct SlottedServer {
    clients: u64,
    slot: Duration,
    /// End of the latest multi-slot transmission (blocks everyone).
    busy_until: Time,
    /// End of the latest transmission of any kind (a multi-slot message
    /// may not start before this — a slot inside its span may already be
    /// promised to another client).
    horizon: Time,
    /// Per-client: earliest time the client may transmit again.
    client_next: Vec<Time>,
    /// Per-client: whether `client_next` is known to sit on a slot
    /// boundary owned by that client. When it does, a saturating client
    /// (arrival ≤ `client_next`) can be granted `client_next` directly —
    /// a burst of back-to-back messages pays the frame arithmetic (two
    /// integer divisions in [`next_turn`](Self::next_turn)) only once,
    /// on its first message.
    turn_aligned: Vec<bool>,
    busy_total: Duration,
    served: u64,
    wait_total: Duration,
}

impl SlottedServer {
    /// Creates a TDMA channel with `clients` slots of width `slot` cycles.
    pub fn new(clients: usize, slot: Duration) -> Self {
        assert!(clients > 0 && slot > 0);
        Self {
            clients: clients as u64,
            slot,
            busy_until: 0,
            horizon: 0,
            client_next: vec![0; clients],
            turn_aligned: vec![false; clients],
            busy_total: 0,
            served: 0,
            wait_total: 0,
        }
    }

    /// Length of a full TDMA frame (all clients' slots) in cycles.
    #[inline]
    pub fn frame(&self) -> Duration {
        self.clients * self.slot
    }

    /// Earliest slot boundary owned by `client` at or after `t`.
    #[inline]
    fn next_turn(&self, client: usize, t: Time) -> Time {
        let frame = self.frame();
        let phase = client as u64 * self.slot;
        let base = t / frame * frame + phase;
        if base >= t {
            base
        } else {
            base + frame
        }
    }

    /// The earliest start time for `client` at or after `arrival`,
    /// respecting slot ownership, one-message-per-frame per client, and
    /// any multi-slot message still on the channel.
    fn earliest_start(&self, client: usize, arrival: Time) -> Time {
        let mut start = self.next_turn(client, arrival.max(self.client_next[client]));
        // A transmission (possibly multi-slot) still in flight at our slot
        // time: wait for the first owned slot after it ends. Single-slot
        // messages never collide this way (they end exactly at the next
        // slot boundary, and our slot differs from theirs).
        if start < self.busy_until {
            start = self.next_turn(client, self.busy_until);
        }
        start
    }

    /// Reserves the channel for a message of `service` cycles from `client`
    /// arriving at `arrival`. Returns the transmission start time (a slot
    /// boundary owned by `client`).
    pub fn acquire(&mut self, client: usize, arrival: Time, service: Duration) -> Time {
        debug_assert!((client as u64) < self.clients);
        let mut start;
        if self.turn_aligned[client]
            && service <= self.slot
            && arrival <= self.client_next[client]
            && self.client_next[client] >= self.busy_until
        {
            // Saturating single-slot burst: the client's next owned slot
            // boundary is already known and nothing multi-slot is in the
            // way, so grant it without re-deriving the frame phase. This
            // is exactly what `earliest_start` would return (it reduces
            // to `next_turn(client, client_next)` with `client_next`
            // turn-aligned), asserted by the differential test below.
            start = self.client_next[client];
        } else {
            start = self.earliest_start(client, arrival);
            if service > self.slot {
                // A long message occupies consecutive slots, so it may not
                // start before every already-granted transmission has ended
                // (a slot inside its span may already be promised), and it
                // blocks every later grant until it ends.
                if start < self.horizon {
                    start = self.next_turn(client, self.horizon);
                }
                self.busy_until = self.busy_until.max(start + service);
            }
        }
        let frame = self.frame();
        self.horizon = self.horizon.max(start + service);
        self.client_next[client] = start + frame.max(service);
        // `start` is always a slot boundary owned by `client`, so adding a
        // whole number of frames lands on another owned boundary; a
        // longer-than-frame reservation does not.
        self.turn_aligned[client] = service <= frame;
        self.busy_total += service;
        self.served += 1;
        self.wait_total += start - arrival;
        start
    }

    /// How long a message from `client` arriving at `now` would wait before
    /// its transmission starts.
    pub fn wait_for(&self, client: usize, now: Time) -> Duration {
        self.earliest_start(client, now) - now
    }

    /// Total busy time (for utilization reports).
    #[inline]
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    /// Number of messages served.
    #[inline]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Mean wait (arbitration + queueing) per message.
    pub fn mean_wait(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.wait_total as f64 / self.served as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serializes_back_to_back() {
        let mut s = FifoServer::new();
        assert_eq!(s.acquire(0, 10), 0);
        assert_eq!(s.acquire(0, 10), 10);
        assert_eq!(s.acquire(5, 10), 20);
        // Idle gap: next request after the backlog clears starts on arrival.
        assert_eq!(s.acquire(100, 10), 100);
        assert_eq!(s.served(), 4);
        assert_eq!(s.busy_total(), 40);
        assert_eq!(s.wait_total(), 10 + 15);
    }

    #[test]
    fn fifo_backlog_reporting() {
        let mut s = FifoServer::new();
        s.acquire(0, 50);
        assert_eq!(s.backlog(10), 40);
        assert_eq!(s.backlog(60), 0);
    }

    #[test]
    fn slotted_respects_client_phase() {
        // 4 clients, slot 1: client i transmits at t ≡ i (mod 4).
        let s = SlottedServer::new(4, 1);
        assert_eq!(s.next_turn(0, 0), 0);
        assert_eq!(s.next_turn(1, 0), 1);
        assert_eq!(s.next_turn(3, 0), 3);
        assert_eq!(s.next_turn(0, 1), 4);
        assert_eq!(s.next_turn(2, 7), 10);
    }

    #[test]
    fn slotted_acquire_pushes_horizon() {
        let mut s = SlottedServer::new(4, 1);
        // Client 0 sends a 1-cycle message at t=0.
        assert_eq!(s.acquire(0, 0, 1), 0);
        // Client 1's turn at t=1 still available.
        assert_eq!(s.acquire(1, 0, 1), 1);
        // Client 1 again: must wait a full frame.
        assert_eq!(s.acquire(1, 1, 1), 5);
    }

    #[test]
    fn slotted_clients_use_slots_independently() {
        // The whole point of TDMA: different clients' slots in one frame
        // carry different messages, regardless of acquire order.
        let mut s = SlottedServer::new(16, 1);
        assert_eq!(s.acquire(5, 0, 1), 5);
        assert_eq!(s.acquire(3, 0, 1), 3);
        assert_eq!(s.acquire(12, 0, 1), 12);
        assert_eq!(s.acquire(0, 0, 1), 0);
        assert_eq!(s.acquire(5, 6, 1), 21, "client 5 used its frame-0 slot");
        // Saturation: 16 clients -> 16 messages per 16-cycle frame.
        let mut s = SlottedServer::new(16, 1);
        let mut last = 0;
        for c in 0..16 {
            last = last.max(s.acquire(c, 0, 1));
        }
        assert!(last < 16, "one full frame carries all 16 messages");
    }

    #[test]
    fn slotted_client_limited_to_one_message_per_frame() {
        let mut s = SlottedServer::new(4, 1);
        assert_eq!(s.acquire(2, 0, 1), 2);
        assert_eq!(s.acquire(2, 2, 1), 6);
        assert_eq!(s.acquire(2, 7, 1), 10);
    }

    #[test]
    fn slotted_variable_length_messages_block_channel() {
        let mut s = SlottedServer::new(2, 2);
        // Client 0 sends a 6-cycle (3-slot) message at t=0.
        assert_eq!(s.acquire(0, 0, 6), 0);
        // Client 1 arrives at t=1; channel busy until 6; its next turn with
        // phase 2 (mod 4) at or after 6 is 6.
        assert_eq!(s.acquire(1, 1, 2), 6);
    }

    #[test]
    fn slotted_average_wait_is_half_frame() {
        // Statistical sanity: with random arrivals on an idle 16x1 channel,
        // mean wait should be ~ frame/2 = 8 (waits are uniform on 0..16,
        // mean 7.5).
        let mut rng = crate::rng::SplitMix64::new(2024);
        let mut total = 0u64;
        let n = 16_000u64;
        let s = SlottedServer::new(16, 1);
        for _ in 0..n {
            let client = (rng.next_u64() % 16) as usize;
            let now = rng.next_u64() % 100_000;
            total += s.wait_for(client, now);
        }
        let mean = total as f64 / n as f64;
        assert!((mean - 7.5).abs() < 0.5, "mean {mean}");
    }

    /// Reference TDMA grant: the pre-fast-path `acquire`, deriving every
    /// start from `earliest_start` (frame arithmetic on every call).
    /// The burst fast path must be observationally identical to it.
    #[derive(Clone)]
    struct RefSlotted {
        inner: SlottedServer,
    }

    impl RefSlotted {
        fn acquire(&mut self, client: usize, arrival: Time, service: Duration) -> Time {
            let s = &mut self.inner;
            let mut start = s.earliest_start(client, arrival);
            if service > s.slot {
                if start < s.horizon {
                    start = s.next_turn(client, s.horizon);
                }
                s.busy_until = s.busy_until.max(start + service);
            }
            s.horizon = s.horizon.max(start + service);
            s.client_next[client] = start + s.frame().max(service);
            s.busy_total += service;
            s.served += 1;
            s.wait_total += start - arrival;
            start
        }
    }

    #[test]
    fn burst_fast_path_matches_reference_arbitration() {
        // Random nondecreasing arrival sequences over a mix of short
        // (single-slot) and long (multi-slot) messages, including dense
        // bursts where one client saturates its frame slots — the case
        // the fast path exists for.
        let mut rng = crate::rng::SplitMix64::new(0x51077ed);
        for clients in [1usize, 2, 4, 8] {
            for slot in [1u64, 2, 7] {
                let mut fast = SlottedServer::new(clients, slot);
                let mut reference = RefSlotted {
                    inner: SlottedServer::new(clients, slot),
                };
                let mut now = 0u64;
                let mut burst_client = 0usize;
                for i in 0..4000 {
                    // Alternate phases: a dense burst from one client,
                    // then scattered traffic from everyone.
                    let in_burst = (i / 100) % 2 == 0;
                    let client = if in_burst {
                        burst_client
                    } else {
                        (rng.next_u64() as usize) % clients
                    };
                    if i % 200 == 199 {
                        burst_client = (burst_client + 1) % clients;
                    }
                    now += if in_burst {
                        rng.next_u64() % 2
                    } else {
                        rng.next_u64() % (3 * slot * clients as u64 + 1)
                    };
                    let service = if rng.next_u64().is_multiple_of(5) {
                        slot * (2 + rng.next_u64() % 3)
                    } else {
                        1 + rng.next_u64() % slot
                    };
                    let a = fast.acquire(client, now, service);
                    let b = reference.acquire(client, now, service);
                    assert_eq!(
                        a, b,
                        "clients={clients} slot={slot} i={i}: fast path granted {a}, reference {b}"
                    );
                }
                let (f, r) = (&fast, &reference.inner);
                assert_eq!(f.busy_until, r.busy_until);
                assert_eq!(f.horizon, r.horizon);
                assert_eq!(f.client_next, r.client_next);
                assert_eq!(f.busy_total, r.busy_total);
                assert_eq!(f.served, r.served);
                assert_eq!(f.wait_total, r.wait_total);
            }
        }
    }

    #[test]
    fn wait_for_matches_acquire_when_idle() {
        let mut s = SlottedServer::new(8, 1);
        for client in 0..8 {
            let now = 3;
            let predicted = s.wait_for(client, now);
            let mut clone = s.clone();
            let start = clone.acquire(client, now, 1);
            assert_eq!(start - now, predicted);
        }
        // Keep `s` used under both paths.
        s.acquire(0, 0, 1);
    }
}
