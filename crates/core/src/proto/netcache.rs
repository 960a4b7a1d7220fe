//! The NetCache architecture and coherence protocol (paper §3).
//!
//! Star-coupler subnetwork: a TDMA **request channel** (1-cycle slots, one
//! per node), two **coherence channels** (variable-slot TDMA, nodes split
//! by parity), and `p` **home channels** (each home is the only
//! transmitter). Ring subnetwork: the shared cache of [`crate::ring`].
//!
//! Reads (§3.4): a read miss starts on *both* subnetworks. If the block
//! circulates on the ring, the requester tunes a ring receiver and takes
//! the block off the fiber (Table 1 hit: 46 pcycles contention-free). If
//! not, the home reads memory, replies on its home channel *and* inserts
//! the block into the ring for future readers (Table 1 miss: 119).
//!
//! Writes: coalesced updates broadcast on a coherence channel; the home
//! applies them to memory (always up to date — no writebacks ever) and to
//! the circulating copy, acknowledging through the request channel with
//! hysteresis flow control. Both §3.4 critical races are modeled: updates
//! arriving during a pending read are merged (timing-neutral), and ring
//! reads of freshly-updated blocks wait out the two-roundtrip window.

use desim::{FifoServer, SlottedServer, Time};
use memsys::{Addr, AddressMap, WriteEntry};
use optics::OpticalParams;

use super::{apply_update_to_peers, Node, ProtoCounters, Protocol, ReadKind, ReadResult};
use crate::config::SysConfig;
use crate::latency::consts;
use crate::ring::{RingCache, RingLookup, RingStats};
use crate::sharers::SharerMap;
use crate::topology::Fabric;

/// The NetCache interconnect + protocol state.
pub struct NetCacheProto {
    map: AddressMap,
    optics: OpticalParams,
    fabric: Fabric,
    request: SlottedServer,
    coherence: [SlottedServer; 2],
    /// Cache rings, one per [`Fabric`] ring (a single element on the
    /// paper's fabric).
    rings: Vec<RingCache>,
    homes: Vec<FifoServer>,
    block_transfer: u64,
    slot: u64,
    /// Coherence blocks per shared-cache line (>1 in the §5.3.2 study).
    line_blocks: u64,
    /// §3.4 dual-path read start (false only in the ablation study).
    dual_path: bool,
    counters: ProtoCounters,
}

impl NetCacheProto {
    /// Builds the channels and (possibly disabled) ring(s).
    pub fn new(cfg: &SysConfig, map: AddressMap) -> Self {
        let p = cfg.nodes;
        let slot = crate::latency::slot_width(&cfg.optics);
        let fabric = Fabric::new(cfg);
        let rings = (0..fabric.rings())
            .map(|_| RingCache::new(fabric.ring_cfg(cfg.ring), fabric.ring_nodes()))
            .collect();
        Self {
            map,
            optics: cfg.optics,
            fabric,
            request: SlottedServer::new(p, slot),
            coherence: [
                SlottedServer::new(p.div_ceil(2), 2 * slot),
                SlottedServer::new((p / 2).max(1), 2 * slot),
            ],
            rings,
            homes: (0..p).map(|_| FifoServer::new()).collect(),
            block_transfer: cfg.optics.transfer(cfg.l2.block_bytes, 0),
            slot,
            line_blocks: (cfg.ring.block_bytes / cfg.l2.block_bytes).max(1),
            dual_path: cfg.ring.dual_path_reads,
            counters: ProtoCounters::default(),
        }
    }

    /// Shared read-miss path over the star subnetwork (request channel →
    /// home memory → home channel), §3.4. Returns block-at-L2 time.
    fn star_read(&mut self, nodes: &mut [Node], node: usize, home: usize, t: Time) -> Time {
        // Request channel slot, transfer, flight.
        let sent = self.request.acquire(node, t, self.slot) + self.slot;
        let at_home = sent + self.fabric.hop(node, home);
        // Home memory read.
        let data = nodes[home].mem.read_block(at_home);
        // Reply on the home's home channel.
        let reply = self.homes[home].acquire(data, self.block_transfer) + self.block_transfer;
        reply + self.fabric.hop(home, node) + consts::NI_TO_L2
    }

    /// The coherence channel a node transmits on (fixed by node parity).
    #[inline]
    fn coherence_of(&self, node: usize) -> (usize, usize) {
        (node % 2, node / 2)
    }
}

impl Protocol for NetCacheProto {
    fn read_remote(&mut self, nodes: &mut [Node], node: usize, addr: Addr, t: Time) -> ReadResult {
        let block = self.map.block_of(addr);
        let home = self.map.home_of(addr);
        let r = self.fabric.ring_of(block, home);
        // Hierarchical fabrics cache a block only in its home cluster: a
        // cross-cluster read cannot probe the remote ring and goes
        // straight to the star path (no ring lookup, no miss counted).
        let probe = if self.fabric.probes_ring(node, home) {
            self.fabric.ring_access(r);
            self.rings[r].lookup(block, self.fabric.ring_tap(node), t)
        } else {
            RingLookup::Miss
        };
        // The protocol starts the read on BOTH subnetworks (§3.4), so a
        // shared-cache miss costs no more than a direct remote access.
        match probe {
            RingLookup::Hit { ready } => ReadResult {
                done: ready + consts::NI_TO_L2,
                kind: ReadKind::SharedHit,
            },
            RingLookup::InFlight { ready } => {
                // Ride the in-flight insertion; the home disregards our
                // request ("the block will eventually be received").
                ReadResult {
                    done: ready + consts::NI_TO_L2,
                    kind: ReadKind::SharedCoalesced,
                }
            }
            RingLookup::Miss => {
                // With dual-path reads (§3.4) the star request leaves at
                // the same instant as the ring probe; the ablated design
                // must first watch the block's would-be frame slot pass by
                // (half a roundtrip on average) to learn it missed. A
                // cross-cluster read never probed, so it starts at once.
                let start = if self.dual_path || !self.fabric.probes_ring(node, home) {
                    t
                } else {
                    let slot = optics::RingSlot {
                        channel: self.rings[r].geometry().channel_of_block(block),
                        frame: 0,
                    };
                    self.rings[r]
                        .geometry()
                        .frame_ready_at(slot, self.fabric.ring_tap(node), t)
                };
                let done = self.star_read(nodes, node, home, start);
                // In addition to the home-channel reply, the home places
                // the block on its cache channel (its own cluster's ring)
                // for future readers. A shared-cache line wider than the
                // coherence block (§5.3.2) costs the home extra memory
                // fetches for the buddy blocks before the full line can
                // circulate.
                if self.rings[r].capacity() > 0 {
                    let mut insert_at = done - consts::NI_TO_L2;
                    for _ in 1..self.line_blocks {
                        let buddy = nodes[home].mem.read_block(insert_at);
                        insert_at = insert_at.max(buddy);
                    }
                    self.fabric.ring_access(r);
                    self.rings[r].insert(block, self.fabric.ring_tap(home), insert_at);
                }
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
        self.counters.updates += 1;
        let home = self.map.home_of(entry.addr);
        // L2 tag check + block to NI.
        let ready = t + consts::L2_TAG + consts::L2_TO_NI;
        // Broadcast the update on this node's coherence channel.
        let bits = entry.words() as u64 * 32 + consts::UPDATE_HEADER_BITS;
        let xfer = self.optics.transfer_bits(bits);
        let (ch, slot_owner) = self.coherence_of(node);
        let sent = self.coherence[ch].acquire(slot_owner, ready, xfer) + xfer;
        let seen = sent + self.fabric.broadcast(node);
        // All sharers refresh L2 copies / invalidate L1 copies.
        apply_update_to_peers(nodes, node, entry, &mut self.counters, sharers);
        // Home: memory FIFO queue (hysteresis ack) + circulating copy
        // (on the home cluster's ring).
        let (_applied, ack_ready) = nodes[home].mem.apply_update(seen, entry.words());
        let block = self.map.block_of(entry.addr);
        let r = self.fabric.ring_of(block, home);
        self.fabric.ring_access(r);
        self.rings[r].apply_update(block, seen);
        // Ack back through the request channel.
        let ack_sent = self.request.acquire(home, ack_ready, self.slot) + self.slot;
        ack_sent + self.fabric.hop(home, node)
    }

    fn sync_broadcast(&mut self, node: usize, t: Time) -> Time {
        self.counters.sync_msgs += 1;
        let (ch, slot_owner) = self.coherence_of(node);
        let ready = t + consts::CMD_TO_NI;
        let sent = self.coherence[ch].acquire(slot_owner, ready, 2) + 2;
        sent + self.fabric.broadcast(node)
    }

    fn ring_stats(&self) -> Option<RingStats> {
        let mut agg = RingStats::default();
        for r in &self.rings {
            agg.absorb(r.stats());
        }
        Some(agg)
    }

    fn counters(&self) -> &ProtoCounters {
        &self.counters
    }

    fn link_report(&self) -> Vec<(String, u64, u64)> {
        self.fabric.report()
    }

    fn channel_report(&self) -> Vec<(String, u64, u64, f64)> {
        let mut out = vec![(
            "request".to_string(),
            self.request.served(),
            self.request.busy_total(),
            self.request.mean_wait(),
        )];
        for (i, ch) in self.coherence.iter().enumerate() {
            out.push((
                format!("coherence{i}"),
                ch.served(),
                ch.busy_total(),
                ch.mean_wait(),
            ));
        }
        for (i, ch) in self.homes.iter().enumerate() {
            out.push((
                format!("home{i}"),
                ch.served(),
                ch.busy_total(),
                ch.mean_wait(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;
    use crate::latency;

    fn setup() -> (NetCacheProto, Vec<Node>, AddressMap) {
        let cfg = SysConfig::base(Arch::NetCache);
        let map = AddressMap::new(cfg.nodes, 64);
        let nodes: Vec<Node> = (0..cfg.nodes).map(|_| Node::new(&cfg)).collect();
        (NetCacheProto::new(&cfg, map), nodes, map)
    }

    fn remote_addr(map: &AddressMap, node: usize) -> Addr {
        // A shared address homed away from `node`.
        let mut a = memsys::addr::SHARED_BASE;
        while map.home_of(a) == node {
            a += 64;
        }
        a
    }

    #[test]
    fn cold_miss_is_near_table1_miss_total() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        // t chosen so TDMA wait ≈ average is not guaranteed; check range:
        // total must be within [miss_total - 8, miss_total + 8] of Table 1
        // (the TDMA wait is 0..16 instead of the average 8).
        let t = 1000;
        let r = p.read_remote(&mut nodes, 0, a, t);
        assert_eq!(r.kind, ReadKind::RemoteMem);
        let expect = latency::total(&latency::netcache_miss(&SysConfig::base(Arch::NetCache))) - 5;
        let lat = r.done - t;
        assert!(
            (lat as i64 - expect as i64).abs() <= 8,
            "latency {lat} vs expected {expect}"
        );
    }

    #[test]
    fn second_reader_hits_the_ring() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let r1 = p.read_remote(&mut nodes, 0, a, 0);
        assert_eq!(r1.kind, ReadKind::RemoteMem);
        // Well after the insertion: another node hits.
        let r2 = p.read_remote(&mut nodes, 1, a, r1.done + 200);
        assert_eq!(r2.kind, ReadKind::SharedHit);
        let lat = r2.done - (r1.done + 200);
        // Hit latency (minus the 5-cycle tag checks charged by the
        // machine): wait [5..45] + 16 -> between 21 and 61.
        assert!((21..=61).contains(&lat), "hit latency {lat}");
        // And it must beat the miss path comfortably on average.
        assert!(lat < 100);
    }

    #[test]
    fn near_simultaneous_misses_coalesce() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let r1 = p.read_remote(&mut nodes, 0, a, 0);
        let r2 = p.read_remote(&mut nodes, 1, a, 5);
        assert_eq!(r2.kind, ReadKind::SharedCoalesced);
        // The coalesced read completes near the first one (one extra ring
        // revolution at worst), far sooner than two serialized memory
        // reads.
        assert!(r2.done <= r1.done + 40 + 45 + 16);
        // Only one memory access happened.
        let home = map.home_of(a);
        assert_eq!(nodes[home].mem.reads(), 1);
    }

    #[test]
    fn update_transaction_matches_table3_shape() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let entry = WriteEntry {
            block: map.block_of(a),
            addr: a,
            mask: 0xFF, // 8 words
            shared: true,
        };
        let t = 500;
        let ack = p.retire_shared_write(&mut nodes, 0, &entry, t, &mut SharerMap::new());
        let expect = latency::total(&latency::netcache_update(&SysConfig::base(Arch::NetCache)));
        let lat = ack - t;
        // TDMA waits are 0..16 each instead of the 8 average.
        assert!(
            (lat as i64 - expect as i64).abs() <= 17,
            "latency {lat} vs expected {expect}"
        );
        assert_eq!(p.counters().updates, 1);
    }

    #[test]
    fn update_refreshes_peer_l2_and_invalidates_l1() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        nodes[3].l2.fill(a, false);
        nodes[3].l1.fill(a, false);
        let mut sharers = SharerMap::new();
        sharers.note(3, map.block_of(a));
        let entry = WriteEntry {
            block: map.block_of(a),
            addr: a,
            mask: 1,
            shared: true,
        };
        p.retire_shared_write(&mut nodes, 0, &entry, 0, &mut sharers);
        assert!(nodes[3].l2.contains(a), "L2 refreshed in place");
        assert!(!nodes[3].l1.contains(a), "L1 invalidated");
        assert_eq!(p.counters().remote_l2_refreshes, 1);
        assert_eq!(p.counters().remote_l1_invalidates, 1);
    }

    #[test]
    fn update_window_slows_subsequent_ring_read() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let r1 = p.read_remote(&mut nodes, 0, a, 0); // inserts into ring
        let t = r1.done + 100;
        let entry = WriteEntry {
            block: map.block_of(a),
            addr: a,
            mask: 1,
            shared: true,
        };
        let ack = p.retire_shared_write(&mut nodes, 1, &entry, t, &mut SharerMap::new());
        // Read right after the update: must wait out ~2 roundtrips.
        let r2 = p.read_remote(&mut nodes, 2, a, ack);
        assert_eq!(r2.kind, ReadKind::SharedHit);
        assert!(
            r2.done > t + 80,
            "window respected: {} vs {}",
            r2.done,
            t + 80
        );
    }

    #[test]
    fn disabled_ring_always_takes_star_path() {
        let cfg = SysConfig::netcache_no_ring();
        let map = AddressMap::new(cfg.nodes, 64);
        let mut nodes: Vec<Node> = (0..cfg.nodes).map(|_| Node::new(&cfg)).collect();
        let mut p = NetCacheProto::new(&cfg, map);
        let a = remote_addr(&map, 0);
        let r1 = p.read_remote(&mut nodes, 0, a, 0);
        let r2 = p.read_remote(&mut nodes, 1, a, r1.done + 100);
        assert_eq!(r1.kind, ReadKind::RemoteMem);
        assert_eq!(r2.kind, ReadKind::RemoteMem);
    }

    #[test]
    fn home_channel_serializes_replies() {
        let (mut p, mut nodes, map) = setup();
        // Two different blocks with the same home.
        let a1 = remote_addr(&map, 0);
        let home = map.home_of(a1);
        let a2 = a1 + 16 * 64 * 4; // same home (16-node interleave), diff channel region
        assert_eq!(map.home_of(a2), home);
        let r1 = p.read_remote(&mut nodes, 0, a1, 0);
        let r2 = p.read_remote(&mut nodes, 1, a2, 0);
        // Memory occupancy (40 cycles) serializes the second read.
        assert!(r2.done >= r1.done + 35, "{} vs {}", r2.done, r1.done);
    }
}
