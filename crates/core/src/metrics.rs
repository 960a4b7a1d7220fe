//! Run metrics: everything the paper's figures are built from.

use crate::proto::ProtoCounters;
use crate::ring::RingStats;
use desim::time::Time;

/// Per-processor accounting, updated by the machine as it executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Cycles doing useful work (instructions + 1 per reference).
    pub busy: u64,
    /// Cycles stalled waiting for reads.
    pub read_stall: u64,
    /// Cycles stalled on a full write buffer.
    pub wb_stall: u64,
    /// Cycles stalled at barriers / locks (incl. the drain before them).
    pub sync_stall: u64,
    /// Data reads issued.
    pub reads: u64,
    /// Data writes issued.
    pub writes: u64,
    /// Reads satisfied by the L1.
    pub l1_hits: u64,
    /// Reads satisfied by the L2.
    pub l2_hits: u64,
    /// Reads forwarded from the node's own write buffer.
    pub wb_forwards: u64,
    /// L2 misses served by the local memory (private/own-home data).
    pub local_mem_reads: u64,
    /// L2 misses served across the network by remote memory.
    pub remote_mem_reads: u64,
    /// L2 misses served by the ring shared cache (NetCache).
    pub shared_hits: u64,
    /// L2 misses coalesced onto an in-flight ring insertion (NetCache).
    pub shared_coalesced: u64,
    /// L2 misses served cache-to-cache (DMON-I forwards).
    pub forwarded_reads: u64,
    /// Total stall cycles of shared (remote-homed) L2 read misses.
    pub shared_read_stall: u64,
    /// Count of shared (remote-homed) L2 read misses.
    pub shared_reads: u64,
    /// Time this processor finished its stream.
    pub finish: Time,
}

impl NodeStats {
    /// Mean latency of shared L2 read misses.
    pub fn avg_shared_read_latency(&self) -> f64 {
        if self.shared_reads == 0 {
            0.0
        } else {
            self.shared_read_stall as f64 / self.shared_reads as f64
        }
    }
}

/// The outcome of one simulation run.
///
/// `PartialEq` compares every *deterministic* field — the sweep engine's
/// property tests use it to assert that parallel and serial sweeps are
/// bit-identical (the simulator is deterministic; see `sweep`). The
/// host-dependent throughput measurement (`wall_ns`) is excluded, like it
/// is from [`RunReport::digest`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Architecture name.
    pub arch: &'static str,
    /// Parallel run time in pcycles (max processor finish time).
    pub cycles: Time,
    /// Per-processor stats.
    pub nodes: Vec<NodeStats>,
    /// Protocol traffic counters.
    pub proto: ProtoCounters,
    /// Ring shared-cache stats (NetCache only).
    pub ring: Option<RingStats>,
    /// Events processed (simulator health metric).
    pub events: u64,
    /// Operations retired across all processors (compute, reads, writes,
    /// sync). Fixed by the workload — identical whether ops retire through
    /// the elided fast path or event-by-event.
    pub ops: u64,
    /// Operations retired inside elided runs (inline, without a per-op
    /// protocol or event-queue round trip). `elided_ops / ops` is the
    /// fast-path coverage; the remainder took the general path.
    pub elided_ops: u64,
    /// Per-channel diagnostics: `(name, served, busy, mean wait)`.
    pub channels: Vec<(String, u64, u64, f64)>,
    /// Per-fabric-link diagnostics: `(name, frames, busy cycles)` in the
    /// topology's link order (legs, rings, roots — see
    /// [`crate::topology`]). Deterministic (part of `PartialEq`) but
    /// excluded from [`RunReport::digest`]: the link ledger is new
    /// bookkeeping layered onto the model, and hashing it would
    /// invalidate every golden constant pinned before it existed.
    pub links: Vec<(String, u64, u64)>,
    /// Per-memory-module `(reads, busy cycles, mean queue wait)`.
    pub memories: Vec<(u64, u64, f64)>,
    /// Wall-clock nanoseconds spent inside the event loop — the engine
    /// throughput measurement (host-dependent; excluded from equality).
    pub wall_ns: u64,
}

impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `wall_ns`: determinism means identical stats,
        // not identical host timing.
        self.arch == other.arch
            && self.cycles == other.cycles
            && self.nodes == other.nodes
            && self.proto == other.proto
            && self.ring == other.ring
            && self.events == other.events
            && self.ops == other.ops
            && self.elided_ops == other.elided_ops
            && self.channels == other.channels
            && self.links == other.links
            && self.memories == other.memories
    }
}

impl RunReport {
    /// Engine throughput: simulation events processed per wall-clock
    /// second (0 when the run was too fast to time).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Engine throughput in retired operations per wall-clock second. The
    /// op count is workload-determined (unlike the event count, which an
    /// engine revision may legitimately change), so this is the metric the
    /// perf-regression gate normalizes on.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.wall_ns as f64
        }
    }

    fn sum(&self, f: impl Fn(&NodeStats) -> u64) -> u64 {
        self.nodes.iter().map(f).sum()
    }

    /// Total reads across processors.
    pub fn total_reads(&self) -> u64 {
        self.sum(|n| n.reads)
    }

    /// Total read-stall cycles across processors.
    pub fn total_read_stall(&self) -> u64 {
        self.sum(|n| n.read_stall)
    }

    /// Total synchronization stall cycles.
    pub fn total_sync_stall(&self) -> u64 {
        self.sum(|n| n.sync_stall)
    }

    /// Read stall as a fraction of aggregate processor time — the paper's
    /// "read latency as % of run time" (Fig. 7, leftmost bars).
    pub fn read_latency_fraction(&self) -> f64 {
        let total = self.cycles * self.nodes.len() as u64;
        if total == 0 {
            0.0
        } else {
            self.total_read_stall() as f64 / total as f64
        }
    }

    /// Sync stall as a fraction of aggregate processor time.
    pub fn sync_fraction(&self) -> f64 {
        let total = self.cycles * self.nodes.len() as u64;
        if total == 0 {
            0.0
        } else {
            self.total_sync_stall() as f64 / total as f64
        }
    }

    /// Shared-cache hit rate (0 when the architecture has no ring).
    pub fn shared_cache_hit_rate(&self) -> f64 {
        self.ring.map(|r| r.hit_rate()).unwrap_or(0.0)
    }

    /// Mean latency of L2 read misses to shared, remote-homed blocks —
    /// the quantity reduced in Fig. 7's "Miss Lat." bars.
    pub fn avg_shared_read_latency(&self) -> f64 {
        let stall = self.sum(|n| n.shared_read_stall);
        let count = self.sum(|n| n.shared_reads);
        if count == 0 {
            0.0
        } else {
            stall as f64 / count as f64
        }
    }

    /// L1 hit rate over all reads.
    pub fn l1_hit_rate(&self) -> f64 {
        let reads = self.total_reads();
        if reads == 0 {
            0.0
        } else {
            self.sum(|n| n.l1_hits) as f64 / reads as f64
        }
    }

    /// L2 hit rate over L1 misses.
    pub fn l2_hit_rate(&self) -> f64 {
        let l1_misses = self.total_reads() - self.sum(|n| n.l1_hits);
        if l1_misses == 0 {
            0.0
        } else {
            self.sum(|n| n.l2_hits) as f64 / l1_misses as f64
        }
    }

    /// FNV-1a digest over every *deterministic* field of the report — the
    /// golden-determinism fingerprint (`tests/golden.rs`). Two reports of
    /// the same configuration must produce the same digest on any host and
    /// any engine revision; host-dependent measurements (wall time,
    /// events/sec) are deliberately excluded, exactly as they are from
    /// `PartialEq`. `ops`/`elided_ops` are also excluded: they are
    /// throughput diagnostics (how work retired, not what it computed), and
    /// hashing them would invalidate every pinned golden constant each time
    /// fast-path coverage changes.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.put_str(self.arch);
        h.put(self.cycles);
        h.put(self.events);
        for n in &self.nodes {
            for v in [
                n.busy,
                n.read_stall,
                n.wb_stall,
                n.sync_stall,
                n.reads,
                n.writes,
                n.l1_hits,
                n.l2_hits,
                n.wb_forwards,
                n.local_mem_reads,
                n.remote_mem_reads,
                n.shared_hits,
                n.shared_coalesced,
                n.forwarded_reads,
                n.shared_read_stall,
                n.shared_reads,
                n.finish,
            ] {
                h.put(v);
            }
        }
        let p = &self.proto;
        for v in [
            p.updates,
            p.invalidations,
            p.local_writes,
            p.writebacks,
            p.forwards,
            p.write_fetches,
            p.sync_msgs,
            p.remote_l2_refreshes,
            p.remote_l1_invalidates,
        ] {
            h.put(v);
        }
        if let Some(r) = self.ring {
            for v in [
                r.hits,
                r.coalesced,
                r.misses,
                r.inserts,
                r.replacements,
                r.updates_applied,
                r.window_delays,
            ] {
                h.put(v);
            }
        }
        for (name, served, busy, wait) in &self.channels {
            h.put_str(name);
            h.put(*served);
            h.put(*busy);
            h.put(wait.to_bits());
        }
        for (reads, busy, wait) in &self.memories {
            h.put(*reads);
            h.put(*busy);
            h.put(wait.to_bits());
        }
        h.finish()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} cycles | reads {} (L1 {:.1}%, L2 {:.1}%) | shared-cache hit {:.1}% | read-lat {:.1}% sync {:.1}% of time",
            self.arch,
            self.cycles,
            self.total_reads(),
            100.0 * self.l1_hit_rate(),
            100.0 * self.l2_hit_rate(),
            100.0 * self.shared_cache_hit_rate(),
            100.0 * self.read_latency_fraction(),
            100.0 * self.sync_fraction(),
        )
    }
}

/// FNV-1a accumulator: [`RunReport::digest`] and the store's cell keys.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn put(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.put(b as u64);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(nodes: Vec<NodeStats>, cycles: Time) -> RunReport {
        RunReport {
            arch: "test",
            cycles,
            nodes,
            proto: ProtoCounters::default(),
            ring: None,
            events: 0,
            ops: 0,
            elided_ops: 0,
            channels: Vec::new(),
            links: Vec::new(),
            memories: Vec::new(),
            wall_ns: 0,
        }
    }

    #[test]
    fn fractions_are_bounded() {
        let n = NodeStats {
            read_stall: 250,
            sync_stall: 100,
            reads: 10,
            ..Default::default()
        };
        let r = report_with(vec![n, NodeStats::default()], 1000);
        assert!((r.read_latency_fraction() - 0.125).abs() < 1e-9);
        assert!((r.sync_fraction() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = report_with(vec![NodeStats::default()], 0);
        assert_eq!(r.read_latency_fraction(), 0.0);
        assert_eq!(r.l1_hit_rate(), 0.0);
        assert_eq!(r.avg_shared_read_latency(), 0.0);
        assert_eq!(r.shared_cache_hit_rate(), 0.0);
    }

    #[test]
    fn avg_shared_latency() {
        let a = NodeStats {
            shared_read_stall: 300,
            shared_reads: 3,
            ..Default::default()
        };
        let b = NodeStats {
            shared_read_stall: 100,
            shared_reads: 1,
            ..Default::default()
        };
        let r = report_with(vec![a, b], 10);
        assert!((r.avg_shared_read_latency() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn wall_time_excluded_from_equality_and_digest() {
        let mut a = report_with(vec![NodeStats::default()], 10);
        let b = a.clone();
        a.wall_ns = 123_456;
        assert_eq!(a, b, "wall time is host-dependent, not part of identity");
        assert_eq!(a.digest(), b.digest());
        assert!(a.events_per_sec() >= 0.0);
    }

    #[test]
    fn links_are_compared_but_not_digested() {
        let a = report_with(vec![NodeStats::default()], 10);
        let mut b = a.clone();
        b.links = vec![("leg0".into(), 7, 7)];
        assert_ne!(a, b, "link ledger is deterministic state");
        assert_eq!(
            a.digest(),
            b.digest(),
            "but pre-existing golden digests must not see it"
        );
    }

    #[test]
    fn digest_separates_different_reports() {
        let a = report_with(vec![NodeStats::default()], 10);
        let mut b = a.clone();
        b.cycles = 11;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.events = 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn summary_is_printable() {
        let r = report_with(vec![NodeStats::default()], 42);
        let s = r.summary();
        assert!(s.contains("42 cycles"));
    }
}
