//! The per-node memory module.
//!
//! Paper §4.1: "A memory module can provide the first two words requested
//! 12 pcycles after the request is issued. Other words are delivered at a
//! rate of 2 words per 8 pcycles" — i.e. a 64 B (16-word) block read has a
//! base latency of 12 + 7·8 = 68 pcycles of array time; the paper's
//! end-to-end "memory read" figure of 76 additionally includes the module's
//! queue/controller overhead, which we fold into a single configurable
//! `read_latency` so the parameter-space study (Fig. 15: 44/76/108) can
//! sweep it directly.
//!
//! The module serializes requests in FIFO order ("memory contention \[is\]
//! fully modeled"), and implements the update-ack *hysteresis* flow control
//! of §3.4: an update's ack is returned immediately unless the module's
//! queued backlog exceeds the hysteresis point, in which case the ack is
//! held until the backlog drains below it.

use desim::{Duration, FifoServer, Time};

/// Memory-module timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryCfg {
    /// End-to-end block read latency seen by a contention-free request
    /// (paper base: 76 pcycles).
    pub read_latency: Duration,
    /// How long a block read occupies the module (back-to-back service
    /// rate). Defaults to `read_latency`: a single-banked module.
    pub read_occupancy: Duration,
    /// Module occupancy per word of an applied update.
    pub write_occupancy_per_word: Duration,
    /// Occupancy of a full-block writeback (DMON-I dirty evictions).
    pub writeback_occupancy: Duration,
    /// Backlog (in cycles of queued work) beyond which update acks are
    /// delayed — the §3.4 hysteresis point.
    pub hysteresis: Duration,
}

impl MemoryCfg {
    /// The paper's base configuration. The occupancy is lower than the
    /// end-to-end latency: the module streams a block out at 2 words per
    /// 8 pcycles after a 12-cycle access, so the array can overlap the
    /// next request's access with the previous request's tail.
    pub fn base() -> Self {
        Self {
            read_latency: 76,
            read_occupancy: 40,
            write_occupancy_per_word: 1,
            writeback_occupancy: 24,
            hysteresis: 64,
        }
    }

    /// Base configuration with a different read latency (Fig. 15 sweep).
    /// Occupancy scales proportionally: a slower array is busy longer.
    pub fn with_read_latency(latency: Duration) -> Self {
        Self {
            read_latency: latency,
            read_occupancy: (latency * 40 / 76).max(8),
            ..Self::base()
        }
    }
}

/// A memory module: read-priority array service plus a separate update
/// FIFO queue with hysteresis ack flow control.
///
/// Reads (and writebacks, which occupy the array like reads) are served by
/// the array in FIFO order. Coherence updates land in the §3.4 input
/// queue and drain through their own port without delaying reads — that
/// queue, and the hysteresis on its acknowledgements, exist precisely so
/// that update bursts do not block the latency-critical read stream.
#[derive(Debug, Clone)]
pub struct MemoryModule {
    cfg: MemoryCfg,
    server: FifoServer,
    update_queue: FifoServer,
    reads: u64,
    updates: u64,
    writebacks: u64,
    delayed_acks: u64,
}

impl MemoryModule {
    /// Creates an idle module.
    pub fn new(cfg: MemoryCfg) -> Self {
        Self {
            cfg,
            server: FifoServer::new(),
            update_queue: FifoServer::new(),
            reads: 0,
            updates: 0,
            writebacks: 0,
            delayed_acks: 0,
        }
    }

    /// The configuration in force.
    pub fn cfg(&self) -> &MemoryCfg {
        &self.cfg
    }

    /// A block-read request arriving at `arrival`; returns the time the
    /// block's data is available at the module's output.
    pub fn read_block(&mut self, arrival: Time) -> Time {
        self.reads += 1;
        let start = self.server.acquire(arrival, self.cfg.read_occupancy);
        start + self.cfg.read_latency
    }

    /// Applies an update of `words` modified words arriving at `arrival`.
    /// Returns `(applied, ack_ready)`: the time the memory copy is
    /// up-to-date, and the time the home node may release the ack under
    /// the hysteresis rule.
    pub fn apply_update(&mut self, arrival: Time, words: u32) -> (Time, Time) {
        self.updates += 1;
        let occ = self.cfg.write_occupancy_per_word * words.max(1) as u64;
        let start = self.update_queue.acquire(arrival, occ);
        let applied = start + occ;
        // Backlog after enqueueing this update:
        let backlog = applied.saturating_sub(arrival);
        let ack_ready = if backlog > self.cfg.hysteresis {
            self.delayed_acks += 1;
            applied - self.cfg.hysteresis
        } else {
            arrival
        };
        (applied, ack_ready)
    }

    /// A dirty-block writeback (DMON-I). Returns the completion time.
    pub fn writeback(&mut self, arrival: Time) -> Time {
        self.writebacks += 1;
        let start = self.server.acquire(arrival, self.cfg.writeback_occupancy);
        start + self.cfg.writeback_occupancy
    }

    /// Time at which the module's queues are fully drained.
    pub fn drained_at(&self) -> Time {
        self.server.next_free().max(self.update_queue.next_free())
    }

    /// Queued work remaining at `now`, in cycles (array + update queue).
    pub fn backlog(&self, now: Time) -> Duration {
        self.server.backlog(now).max(self.update_queue.backlog(now))
    }

    /// Block reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Writebacks absorbed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Acks delayed by hysteresis.
    pub fn delayed_acks(&self) -> u64 {
        self.delayed_acks
    }

    /// Total busy time (utilization numerator; array + update port).
    pub fn busy_total(&self) -> Duration {
        self.server.busy_total() + self.update_queue.busy_total()
    }

    /// Mean queueing delay per array request (reads/writebacks).
    pub fn mean_wait(&self) -> f64 {
        self.server.mean_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_free_read_has_base_latency() {
        let mut m = MemoryModule::new(MemoryCfg::base());
        assert_eq!(m.read_block(100), 176);
        assert_eq!(m.reads(), 1);
    }

    #[test]
    fn back_to_back_reads_serialize() {
        let mut m = MemoryModule::new(MemoryCfg::base());
        assert_eq!(m.read_block(0), 76);
        // Second request at t=0 starts when the array frees at 40
        // (occupancy), completing its 76-cycle access then.
        assert_eq!(m.read_block(0), 116);
        assert_eq!(m.read_block(200), 276);
    }

    #[test]
    fn fig15_latencies() {
        for lat in [44u64, 76, 108] {
            let mut m = MemoryModule::new(MemoryCfg::with_read_latency(lat));
            assert_eq!(m.read_block(0), lat);
        }
    }

    #[test]
    fn update_ack_immediate_when_queue_short() {
        let mut m = MemoryModule::new(MemoryCfg::base());
        let (applied, ack) = m.apply_update(50, 8);
        assert_eq!(applied, 58);
        assert_eq!(ack, 50, "short queue: ack at arrival");
        assert_eq!(m.delayed_acks(), 0);
    }

    #[test]
    fn update_ack_delayed_past_hysteresis() {
        let mut m = MemoryModule::new(MemoryCfg::base());
        // Stuff the update queue beyond the hysteresis point.
        for _ in 0..12 {
            m.apply_update(0, 8);
        }
        let (applied, ack) = m.apply_update(0, 8);
        assert_eq!(applied, 13 * 8);
        // Backlog 104 > hysteresis 64: ack held until backlog shrinks.
        assert_eq!(ack, 104 - 64);
        assert_eq!(m.delayed_acks(), 5);
    }

    #[test]
    fn reads_bypass_queued_updates() {
        let mut m = MemoryModule::new(MemoryCfg::base());
        // A burst of updates fills the input queue...
        for _ in 0..20 {
            m.apply_update(0, 16);
        }
        // ...but a read is served by the array immediately.
        assert_eq!(m.read_block(5), 81);
    }

    #[test]
    fn update_occupancy_scales_with_words() {
        let mut m = MemoryModule::new(MemoryCfg::base());
        m.apply_update(0, 16);
        assert_eq!(m.drained_at(), 16);
        m.apply_update(0, 1);
        assert_eq!(m.drained_at(), 17);
        assert_eq!(m.updates(), 2);
    }

    #[test]
    fn writeback_occupies_module() {
        let mut m = MemoryModule::new(MemoryCfg::base());
        assert_eq!(m.writeback(10), 34);
        assert_eq!(m.backlog(10), 24);
        assert_eq!(m.backlog(40), 0);
        assert_eq!(m.writebacks(), 1);
    }

    #[test]
    fn mixed_traffic_uses_separate_ports() {
        let mut m = MemoryModule::new(MemoryCfg::base());
        let r1 = m.read_block(0); // array busy 0..40
        let (a, _) = m.apply_update(5, 4); // update port: applied at 9
        let r2 = m.read_block(6); // array: starts 40
        assert_eq!(r1, 76);
        assert_eq!(a, 9);
        assert_eq!(r2, 116);
    }
}
