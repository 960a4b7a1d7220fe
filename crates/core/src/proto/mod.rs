//! The coherence protocols / interconnect models.
//!
//! A [`Protocol`] owns everything network-side: the optical channels of its
//! architecture, the protocol state (the ring cache for NetCache, the owner
//! directory for DMON-I), and the logic that turns a transaction into a
//! completion time by walking the path and acquiring resources. The
//! machine ([`crate::machine`]) owns the nodes (caches, write
//! buffers, memory modules) and passes them in by `&mut [Node]` — protocols
//! mutate *remote* cache state when coherence actions (updates,
//! invalidations, forwards) hit other nodes.

mod dmon_i;
mod dmon_u;
mod lambdanet;
mod netcache;

pub use dmon_i::DmonI;
pub use dmon_u::DmonU;
pub use lambdanet::LambdaNet;
pub use netcache::NetCacheProto;

use crate::config::SysConfig;
use crate::ring::RingStats;
use crate::sharers::{peers, SharerMap};
use desim::time::Time;
use memsys::{Addr, Cache, CoalescingWriteBuffer, MemoryModule, WriteEntry};

/// Everything node-local: the paper's node architecture (Fig. 3) minus the
/// processor itself.
pub struct Node {
    /// First-level data cache.
    pub l1: Cache,
    /// Second-level data cache.
    pub l2: Cache,
    /// Coalescing write buffer.
    pub wb: CoalescingWriteBuffer,
    /// Local memory module.
    pub mem: MemoryModule,
}

impl Node {
    /// Builds a node from the system configuration.
    pub fn new(cfg: &SysConfig) -> Self {
        Self {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            wb: CoalescingWriteBuffer::new(cfg.wb_entries),
            mem: MemoryModule::new(cfg.mem),
        }
    }
}

/// How a read was ultimately satisfied (for the metric breakdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// Served by the local memory module (private data or own-home block).
    LocalMem,
    /// NetCache only: hit in the ring shared cache.
    SharedHit,
    /// NetCache only: rode on another node's in-flight miss.
    SharedCoalesced,
    /// Remote memory access (shared-cache miss for NetCache).
    RemoteMem,
    /// DMON-I only: forwarded from the owning node's cache.
    Forwarded,
}

/// A completed remote read.
#[derive(Debug, Clone, Copy)]
pub struct ReadResult {
    /// Time the word is available to the processor (block in L2/L1).
    pub done: Time,
    /// Path classification.
    pub kind: ReadKind,
}

/// Protocol-level traffic counters (each protocol fills the relevant ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoCounters {
    /// Update messages broadcast (update protocols).
    pub updates: u64,
    /// Invalidation transactions (DMON-I).
    pub invalidations: u64,
    /// Ownership write hits that stayed local (DMON-I).
    pub local_writes: u64,
    /// Dirty-block writebacks (DMON-I).
    pub writebacks: u64,
    /// Reads forwarded cache-to-cache (DMON-I).
    pub forwards: u64,
    /// Write misses that required a block fetch before ownership (DMON-I).
    pub write_fetches: u64,
    /// Synchronization broadcasts.
    pub sync_msgs: u64,
    /// Remote L2 copies refreshed by updates.
    pub remote_l2_refreshes: u64,
    /// Remote L1 copies invalidated by updates.
    pub remote_l1_invalidates: u64,
}

/// The interconnect + coherence protocol interface.
///
/// The machine retires compute, private read hits and write-buffer
/// pushes without consulting the protocol (event elision, DESIGN.md
/// §10). That is exact only because every protocol applies a coherence
/// action to a peer's private caches from the event that causes it (an
/// update or invalidation at the writer's retirement), and consults its
/// own state only on misses and retirements.
pub trait Protocol {
    /// A read of shared block `addr` from `node` that missed the L2 and is
    /// homed remotely. `t` is the time the miss leaves the L2 tag check.
    /// The result's `done` includes depositing the block into the L2.
    fn read_remote(&mut self, nodes: &mut [Node], node: usize, addr: Addr, t: Time) -> ReadResult;

    /// Retires one coalesced shared write from `node`'s write buffer at
    /// `t`. Applies all coherence side effects to the other nodes and
    /// returns the time the home's acknowledgement reaches `node` (the
    /// next update may be issued then).
    /// `sharers` names, per block, every node that ever filled it (see
    /// [`SharerMap`]): the coherence walk visits only those peers, and a
    /// protocol that fills a cache itself notes the fill there.
    fn retire_shared_write(
        &mut self,
        nodes: &mut [Node],
        node: usize,
        entry: &WriteEntry,
        t: Time,
        sharers: &mut SharerMap,
    ) -> Time;

    /// Broadcasts a synchronization message (lock or barrier transaction)
    /// from `node` at `t`; returns the time all nodes have seen it.
    fn sync_broadcast(&mut self, node: usize, t: Time) -> Time;

    /// Hook: `node`'s L2 evicted `block` (`dirty` per the L2 line) at `t`.
    /// By default evictions are silent: under the update protocols memory
    /// is always current. DMON-I writes a dirty block back.
    fn evicted_l2(
        &mut self,
        _nodes: &mut [Node],
        _node: usize,
        _block: u64,
        _dirty: bool,
        _t: Time,
    ) {
    }

    /// Ring shared-cache statistics, if this architecture has one.
    /// Returned by value: fabrics with several cache rings aggregate
    /// their per-ring counters into one [`RingStats`].
    fn ring_stats(&self) -> Option<RingStats> {
        None
    }

    /// Traffic counters.
    fn counters(&self) -> &ProtoCounters;

    /// Per-channel diagnostics: `(name, messages served, busy cycles,
    /// mean wait)`. Used by utilization reports and tuning probes.
    fn channel_report(&self) -> Vec<(String, u64, u64, f64)> {
        Vec::new()
    }

    /// Per-link fabric diagnostics: `(name, frames, busy cycles)` in the
    /// fabric's link order (see [`crate::topology`]). Digest-excluded
    /// bookkeeping — the sweep's contention columns are built from it.
    fn link_report(&self) -> Vec<(String, u64, u64)> {
        Vec::new()
    }
}

/// Applies an update's side effects at every node `sharers` names for the
/// entry's block other than the writer (update protocols, §4.1): the L2
/// copy is refreshed in place (counted only: a timing-only cache holds no
/// data) and the L1 copy invalidated.
pub(crate) fn apply_update_to_peers(
    nodes: &mut [Node],
    writer: usize,
    entry: &WriteEntry,
    counters: &mut ProtoCounters,
    sharers: &SharerMap,
) {
    for i in peers(sharers.sharers(entry.block), writer) {
        let n = &mut nodes[i];
        if n.l2.contains(entry.addr) {
            counters.remote_l2_refreshes += 1;
        }
        if n.l1.invalidate(entry.addr).is_some() {
            counters.remote_l1_invalidates += 1;
        }
    }
}
