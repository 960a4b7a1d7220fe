//! DMON-I: DMON with the I-SPEED invalidate protocol (paper §2.2, after Ha
//! & Pinkston).
//!
//! I-SPEED is a snoopy/directory hybrid: invalidations are broadcast on
//! the (single) broadcast channel and snooped by everyone, while each home
//! node keeps a directory entry recording the current **owner** of each of
//! its blocks. The protocol states (clean / exclusive / shared / invalid)
//! reduce, for timing purposes, to the questions this module tracks: who
//! owns the block (a cache or memory), and is the owner's copy dirty.
//!
//! The costs that sink DMON-I in the paper's results are all here:
//!
//! * **coherence misses** — a write invalidates every remote copy, so
//!   sharers miss again where the update protocols refresh in place;
//! * **writebacks** — dirty evictions must go home over the network and
//!   occupy the memory module;
//! * **forwards** — a read of a dirty block detours through the owner
//!   (request → home → directory → owner → requester).
//!
//! Write misses allocate the line in exclusive-dirty state without a block
//! fetch, matching the paper's flat 37-cycle coherence transaction
//! (Table 3); the resulting partially-dirty lines are merged at writeback,
//! which the timing model folds into the writeback occupancy.

use desim::Time;
use memsys::{Addr, AddressMap, WriteEntry};

use super::dmon_u::DmonChannels;
use super::{Node, ProtoCounters, Protocol, ReadKind, ReadResult};
use crate::config::SysConfig;
use crate::latency::consts;
use crate::sharers::{peers, BlockMap, SharerMap};

/// DMON with I-SPEED.
pub struct DmonI {
    map: AddressMap,
    ch: DmonChannels,
    /// Directory: block -> owning node. Absent means memory owns it.
    owner: BlockMap<usize>,
    counters: ProtoCounters,
}

impl DmonI {
    /// Builds the original (single-coherence-channel) DMON.
    pub fn new(cfg: &SysConfig, map: AddressMap) -> Self {
        Self {
            map,
            ch: DmonChannels::new(cfg, 1),
            owner: BlockMap::default(),
            counters: ProtoCounters::default(),
        }
    }

    /// Broadcast an invalidation from `node`, transferring ownership to it.
    /// Returns the ack time (Table 3, DMON-I column).
    fn invalidate(
        &mut self,
        nodes: &mut [Node],
        node: usize,
        addr: Addr,
        t: Time,
        sharers: &SharerMap,
    ) -> Time {
        self.counters.invalidations += 1;
        let home = self.map.home_of(addr);
        let block = self.map.block_of(addr);
        let ready = t + consts::L2_TAG + consts::CMD_TO_NI;
        let granted = self.ch.reserve(node, ready);
        let xfer = self.ch.optics.transfer_bits(consts::INVALIDATE_BITS);
        let sent = self.ch.bcast[0].acquire(granted, xfer) + xfer;
        let seen = sent + self.ch.fabric.broadcast(node);
        // All other caches snoop and invalidate their copies. The previous
        // owner's dirty data is superseded by this write — dropped, never
        // written back (the writer produces the new value). Only nodes the
        // sharer map names can hold a copy.
        for i in peers(sharers.sharers(block), node) {
            let n = &mut nodes[i];
            n.l2.invalidate(addr);
            if n.l1.invalidate(addr).is_some() {
                self.counters.remote_l1_invalidates += 1;
            }
        }
        self.owner.insert(block, node);
        // The home's directory update occupies its memory module and is
        // subject to the same hysteresis flow control as updates.
        let (_, dir_done) = nodes[home].mem.apply_update(seen, 1);
        // Home acknowledges after updating the directory; final local
        // write completes the transaction.
        let granted2 = self.ch.reserve(home, dir_done.max(seen));
        let ack = self.ch.homes[node].acquire(granted2, self.ch.slot) + self.ch.slot;
        ack + self.ch.fabric.hop(home, node) + consts::DMONI_LOCAL_WRITE
    }

    /// Cache-to-cache forwarded read (requester → home → owner →
    /// requester).
    fn forwarded_read(
        &mut self,
        nodes: &mut [Node],
        node: usize,
        home: usize,
        owner: usize,
        t: Time,
    ) -> Time {
        self.counters.forwards += 1;
        // Request to the home (as a normal read).
        let granted = self.ch.reserve(node, t);
        let tuned = granted + self.ch.optics.tuning_delay;
        let req =
            self.ch.homes[home].acquire(tuned, self.ch.request_transfer) + self.ch.request_transfer;
        let at_home = req + self.ch.fabric.hop(node, home);
        // Directory lookup, then forward the request to the owner.
        let granted2 = self.ch.reserve(home, at_home + consts::L2_TAG);
        let fwd = self.ch.homes[owner].acquire(granted2, self.ch.request_transfer)
            + self.ch.request_transfer;
        let at_owner = fwd + self.ch.fabric.hop(home, owner);
        // Owner pulls the block from its L2 to the NI and replies on the
        // requester's home channel; the copy it forwards is clean and the
        // owner's state drops from exclusive to shared (it stays owner).
        let block_ready = at_owner + consts::L2_TAG + consts::L2_TO_NI;
        let granted3 = self.ch.reserve(owner, block_ready);
        let reply = self.ch.homes[node].acquire(granted3, self.ch.block_transfer_hdr)
            + self.ch.block_transfer_hdr;
        let _ = &nodes[owner]; // owner cache state unchanged (still owner)
        reply + self.ch.fabric.hop(owner, node) + consts::NI_TO_L2
    }
}

impl Protocol for DmonI {
    fn read_remote(&mut self, nodes: &mut [Node], node: usize, addr: Addr, t: Time) -> ReadResult {
        let home = self.map.home_of(addr);
        let block = self.map.block_of(addr);
        match self.owner.get(&block).copied() {
            Some(o) if o != node && nodes[o].l2.contains(addr) => ReadResult {
                done: self.forwarded_read(nodes, node, home, o, t),
                kind: ReadKind::Forwarded,
            },
            _ => {
                // Every I-SPEED memory request passes through the home's
                // directory (§5.1: "the directory lookups required in all
                // memory requests" are part of DMON-I's contention).
                let done = self.ch.memory_read(nodes, node, home, t) + consts::L2_TAG;
                ReadResult {
                    done,
                    kind: ReadKind::RemoteMem,
                }
            }
        }
    }

    fn retire_shared_write(
        &mut self,
        nodes: &mut [Node],
        node: usize,
        entry: &WriteEntry,
        t: Time,
        sharers: &mut SharerMap,
    ) -> Time {
        let block = entry.block;
        // Already the owner with the block cached: a pure local write.
        if self.owner.get(&block) == Some(&node) && nodes[node].l2.contains(entry.addr) {
            self.counters.local_writes += 1;
            nodes[node].l2.mark_dirty(entry.addr);
            return t + consts::L2_TAG + consts::DMONI_LOCAL_WRITE;
        }
        // Write miss: allocate the line directly in exclusive-dirty state.
        // I-SPEED's coherence transaction (paper Table 3) carries no block
        // fetch — the invalidation names the writer the owner and the word
        // masks merge at writeback time — so unlike a classic MESI upgrade
        // there is no read-for-ownership on the critical path.
        if !nodes[node].l2.contains(entry.addr) {
            self.counters.write_fetches += 1;
            // A fill outside the machine's `fill_caches`: note it, so a
            // later writer's invalidation reaches this copy.
            sharers.note(node, block);
            if let Some(ev) = nodes[node].l2.fill(entry.addr, true) {
                let dirty = ev.dirty;
                self.evicted_l2(nodes, node, ev.block, dirty, t);
            }
        }
        // Broadcast the invalidation; we own the (dirty) block afterwards.
        let ack = self.invalidate(nodes, node, entry.addr, t, sharers);
        nodes[node].l2.mark_dirty(entry.addr);
        ack
    }

    fn sync_broadcast(&mut self, node: usize, t: Time) -> Time {
        self.counters.sync_msgs += 1;
        let granted = self.ch.reserve(node, t + consts::CMD_TO_NI);
        let sent = self.ch.bcast[0].acquire(granted, 2) + 2;
        sent + self.ch.fabric.broadcast(node)
    }

    fn evicted_l2(&mut self, nodes: &mut [Node], node: usize, block: u64, dirty: bool, t: Time) {
        if !dirty || self.owner.get(&block) != Some(&node) {
            return;
        }
        // Dirty owner eviction: write the block back to its home memory.
        self.counters.writebacks += 1;
        self.owner.remove(&block);
        let addr = block * 64;
        let home = self.map.home_of(addr);
        let granted = self.ch.reserve(node, t + consts::L2_TO_NI);
        let sent = self.ch.homes[home].acquire(granted, self.ch.block_transfer_hdr)
            + self.ch.block_transfer_hdr;
        nodes[home]
            .mem
            .writeback(sent + self.ch.fabric.hop(node, home));
    }

    fn counters(&self) -> &ProtoCounters {
        &self.counters
    }

    fn link_report(&self) -> Vec<(String, u64, u64)> {
        self.ch.fabric.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;
    use crate::latency;

    fn setup() -> (DmonI, Vec<Node>, AddressMap) {
        let cfg = SysConfig::base(Arch::DmonI);
        let map = AddressMap::new(cfg.nodes, 64);
        let nodes: Vec<Node> = (0..cfg.nodes).map(|_| Node::new(&cfg)).collect();
        (DmonI::new(&cfg, map), nodes, map)
    }

    fn remote_addr(map: &AddressMap, node: usize) -> Addr {
        let mut a = memsys::addr::SHARED_BASE;
        while map.home_of(a) == node {
            a += 64;
        }
        a
    }

    fn entry_for(map: &AddressMap, a: Addr) -> WriteEntry {
        WriteEntry {
            block: map.block_of(a),
            addr: a,
            mask: 0xFF,
            shared: true,
        }
    }

    #[test]
    fn upgrade_write_near_table3() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        // Pre-cache the block so no write fetch is needed.
        nodes[0].l2.fill(a, false);
        let t = 400;
        let ack =
            p.retire_shared_write(&mut nodes, 0, &entry_for(&map, a), t, &mut SharerMap::new());
        let expect = latency::total(&latency::dmon_i_invalidate(&SysConfig::base(Arch::DmonI)));
        let lat = (ack - t) as i64;
        assert!((lat - expect as i64).abs() <= 17, "lat {lat} vs {expect}");
        assert_eq!(p.counters().invalidations, 1);
    }

    #[test]
    fn owner_writes_are_local_and_cheap() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        nodes[0].l2.fill(a, false);
        p.retire_shared_write(&mut nodes, 0, &entry_for(&map, a), 0, &mut SharerMap::new());
        let t = 1000;
        let ack =
            p.retire_shared_write(&mut nodes, 0, &entry_for(&map, a), t, &mut SharerMap::new());
        assert_eq!(ack - t, 12, "owner write: tag + write only");
        assert_eq!(p.counters().local_writes, 1);
    }

    #[test]
    fn write_miss_allocates_without_fetch() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let t = 0;
        let ack =
            p.retire_shared_write(&mut nodes, 0, &entry_for(&map, a), t, &mut SharerMap::new());
        // Just the invalidation transaction (~37); no 130-cycle fetch.
        assert!(ack - t < 80, "got {}", ack - t);
        assert_eq!(p.counters().write_fetches, 1);
        assert!(nodes[0].l2.contains(a), "line allocated exclusive-dirty");
        // The home memory saw no read.
        let home = map.home_of(a);
        assert_eq!(nodes[home].mem.reads(), 0);
    }

    #[test]
    fn invalidation_kills_remote_copies() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        nodes[0].l2.fill(a, false);
        nodes[5].l2.fill(a, false);
        nodes[5].l1.fill(a, false);
        let mut sharers = SharerMap::new();
        sharers.note(5, map.block_of(a));
        p.retire_shared_write(&mut nodes, 0, &entry_for(&map, a), 0, &mut sharers);
        assert!(!nodes[5].l2.contains(a), "remote L2 invalidated");
        assert!(!nodes[5].l1.contains(a), "remote L1 invalidated");
        assert!(nodes[0].l2.contains(a), "writer keeps its copy");
    }

    #[test]
    fn second_writer_invalidates_the_first_writers_ownership_fill() {
        // Node 0's write miss fills its L2 inside the protocol, not through
        // the machine; the sharer map must still lead node 1's
        // invalidation to that copy.
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let mut sharers = SharerMap::new();
        p.retire_shared_write(&mut nodes, 0, &entry_for(&map, a), 0, &mut sharers);
        assert!(nodes[0].l2.contains(a), "write miss allocated");
        p.retire_shared_write(&mut nodes, 1, &entry_for(&map, a), 1000, &mut sharers);
        assert!(!nodes[0].l2.contains(a), "first writer's copy invalidated");
        assert_eq!(p.owner.get(&map.block_of(a)), Some(&1));
        let r = p.read_remote(&mut nodes, 2, a, 2000);
        assert_eq!(r.kind, ReadKind::Forwarded, "read served by node 1");
        assert_eq!(p.counters().forwards, 1);
    }

    #[test]
    fn dirty_read_is_forwarded_from_owner() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        nodes[0].l2.fill(a, false);
        p.retire_shared_write(&mut nodes, 0, &entry_for(&map, a), 0, &mut SharerMap::new());
        // Node 2 reads: owner is node 0 -> forward.
        let r = p.read_remote(&mut nodes, 2, a, 1000);
        assert_eq!(r.kind, ReadKind::Forwarded);
        assert_eq!(p.counters().forwards, 1);
        // No memory read happened at the home for this access.
        let home = map.home_of(a);
        assert_eq!(nodes[home].mem.reads(), 0);
    }

    #[test]
    fn dirty_eviction_writes_back_and_releases_ownership() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        nodes[0].l2.fill(a, false);
        p.retire_shared_write(&mut nodes, 0, &entry_for(&map, a), 0, &mut SharerMap::new());
        let block = map.block_of(a);
        let home = map.home_of(a);
        p.evicted_l2_helper(&mut nodes, 0, block, true, 2000);
        assert_eq!(p.counters().writebacks, 1);
        assert_eq!(nodes[home].mem.writebacks(), 1);
        // Ownership returned to memory: the next read is a memory read.
        nodes[0].l2.invalidate(a);
        let r = p.read_remote(&mut nodes, 3, a, 3000);
        assert_eq!(r.kind, ReadKind::RemoteMem);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let (mut p, mut nodes, _map) = setup();
        p.evicted_l2_helper(&mut nodes, 0, 12345, false, 100);
        assert_eq!(p.counters().writebacks, 0);
    }

    impl DmonI {
        fn evicted_l2_helper(
            &mut self,
            nodes: &mut [Node],
            node: usize,
            block: u64,
            dirty: bool,
            t: Time,
        ) {
            self.evicted_l2(nodes, node, block, dirty, t);
        }
    }
}
