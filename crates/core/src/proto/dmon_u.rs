//! The DMON-U baseline: Ha & Pinkston's Decoupled Multichannel Optical
//! Network (paper §2.2) with the authors' update-based protocol.
//!
//! Channels: a TDMA **control channel** used to reserve everything else,
//! **two coherence broadcast channels** (the paper's extension — one is
//! not enough for heavy update traffic; nodes transmit on one by parity,
//! receive both), and `p` **home channels** for block requests/replies
//! (any node transmits via a tunable transmitter after a reservation;
//! node `i` receives its own).
//!
//! The protocol itself is the same write-update scheme as LambdaNet's —
//! memory always current, coalescing write buffers, ack-based flow
//! control — so the performance difference against LambdaNet isolates the
//! arbitration cost, and against NetCache isolates the ring cache.

use desim::{FifoServer, SlottedServer, Time};
use memsys::{Addr, AddressMap, WriteEntry};
use optics::OpticalParams;

use super::{apply_update_to_peers, Node, ProtoCounters, Protocol, ReadKind, ReadResult};
use crate::config::{Arch, SysConfig};
use crate::latency::consts;
use crate::topology::Fabric;

/// DMON channel set shared by both DMON protocols.
pub(crate) struct DmonChannels {
    /// Control channel: fixed 1-cycle TDMA slots, used for reservations.
    pub control: SlottedServer,
    /// Home channels (reservation-arbitrated; FIFO given reservations).
    pub homes: Vec<FifoServer>,
    /// Broadcast (coherence) channels.
    pub bcast: Vec<FifoServer>,
    pub optics: OpticalParams,
    pub fabric: Fabric,
    pub block_transfer_hdr: u64,
    pub request_transfer: u64,
    pub slot: u64,
}

impl DmonChannels {
    pub fn new(cfg: &SysConfig, bcast_channels: usize) -> Self {
        let slot = crate::latency::slot_width(&cfg.optics);
        Self {
            control: SlottedServer::new(cfg.nodes, slot),
            homes: (0..cfg.nodes).map(|_| FifoServer::new()).collect(),
            bcast: (0..bcast_channels).map(|_| FifoServer::new()).collect(),
            optics: cfg.optics,
            fabric: Fabric::new(cfg),
            block_transfer_hdr: cfg
                .optics
                .transfer(cfg.l2.block_bytes, consts::DMON_BLOCK_HEADER_BITS),
            request_transfer: cfg.optics.transfer_bits(consts::DMON_REQUEST_BITS),
            slot,
        }
    }

    /// Control-channel reservation by `node` at `t`: returns grant time.
    #[inline]
    pub fn reserve(&mut self, node: usize, t: Time) -> Time {
        self.control.acquire(node, t, self.slot) + self.slot
    }

    /// The §2.2 read path: request via home-channel of `home`, memory
    /// read, reply on the requester's home channel (Table 2, right).
    pub fn memory_read(&mut self, nodes: &mut [Node], node: usize, home: usize, t: Time) -> Time {
        let granted = self.reserve(node, t);
        let tuned = granted + self.optics.tuning_delay;
        let req = self.homes[home].acquire(tuned, self.request_transfer) + self.request_transfer;
        let at_home = req + self.fabric.hop(node, home);
        let data = nodes[home].mem.read_block(at_home);
        let granted2 = self.reserve(home, data);
        let reply =
            self.homes[node].acquire(granted2, self.block_transfer_hdr) + self.block_transfer_hdr;
        reply + self.fabric.hop(home, node) + consts::NI_TO_L2
    }
}

/// DMON with the update protocol.
pub struct DmonU {
    map: AddressMap,
    ch: DmonChannels,
    counters: ProtoCounters,
}

impl DmonU {
    /// Builds the modified (two-coherence-channel) DMON.
    pub fn new(cfg: &SysConfig, map: AddressMap) -> Self {
        Self {
            map,
            ch: DmonChannels::new(cfg, 2),
            counters: ProtoCounters::default(),
        }
    }
}

impl Protocol for DmonU {
    fn arch(&self) -> Arch {
        Arch::DmonU
    }

    fn read_remote(&mut self, nodes: &mut [Node], node: usize, addr: Addr, t: Time) -> ReadResult {
        let home = self.map.home_of(addr);
        ReadResult {
            done: self.ch.memory_read(nodes, node, home, t),
            kind: ReadKind::RemoteMem,
        }
    }

    fn retire_shared_write(
        &mut self,
        nodes: &mut [Node],
        node: usize,
        entry: &WriteEntry,
        t: Time,
        sharers: u64,
    ) -> Time {
        self.counters.updates += 1;
        let home = self.map.home_of(entry.addr);
        let ready = t + consts::L2_TAG + consts::L2_TO_NI;
        let granted = self.ch.reserve(node, ready);
        let bits = entry.words() as u64 * 32 + consts::UPDATE_HEADER_BITS;
        let xfer = self.ch.optics.transfer_bits(bits);
        let sent = self.ch.bcast[node % 2].acquire(granted, xfer) + xfer;
        let seen = sent + self.ch.fabric.broadcast(node);
        apply_update_to_peers(nodes, node, entry.addr, &mut self.counters, sharers);
        let (_applied, ack_ready) = nodes[home].mem.apply_update(seen, entry.words());
        // Ack: reservation, then a one-cycle message on the home channel.
        let granted2 = self.ch.reserve(home, ack_ready);
        let ack = self.ch.homes[node].acquire(granted2, self.ch.slot) + self.ch.slot;
        ack + self.ch.fabric.hop(home, node)
    }

    fn sync_broadcast(&mut self, node: usize, t: Time) -> Time {
        self.counters.sync_msgs += 1;
        let granted = self.ch.reserve(node, t + consts::CMD_TO_NI);
        let sent = self.ch.bcast[node % 2].acquire(granted, 2) + 2;
        sent + self.ch.fabric.broadcast(node)
    }

    fn evicted_l2(
        &mut self,
        _nodes: &mut [Node],
        _node: usize,
        _block: u64,
        _dirty: bool,
        _t: Time,
    ) {
        // Write-update: memory is always current.
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
    use crate::latency;

    fn setup() -> (DmonU, Vec<Node>, AddressMap) {
        let cfg = SysConfig::base(Arch::DmonU);
        let map = AddressMap::new(cfg.nodes, 64);
        let nodes: Vec<Node> = (0..cfg.nodes).map(|_| Node::new(&cfg)).collect();
        (DmonU::new(&cfg, map), nodes, map)
    }

    fn remote_addr(map: &AddressMap, node: usize) -> Addr {
        let mut a = memsys::addr::SHARED_BASE;
        while map.home_of(a) == node {
            a += 64;
        }
        a
    }

    #[test]
    fn read_latency_near_table2() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let t = 333;
        let r = p.read_remote(&mut nodes, 0, a, t);
        let expect = latency::total(&latency::dmon_miss(&SysConfig::base(Arch::DmonU))) - 5;
        let lat = (r.done - t) as i64;
        // Two TDMA waits of 0..16 each instead of two 8-cycle averages.
        assert!((lat - expect as i64).abs() <= 17, "lat {lat} vs {expect}");
    }

    #[test]
    fn update_latency_near_table3() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let entry = WriteEntry {
            block: map.block_of(a),
            addr: a,
            mask: 0xFF,
            shared: true,
        };
        let t = 500;
        let ack = p.retire_shared_write(&mut nodes, 0, &entry, t, u64::MAX);
        let expect = latency::total(&latency::dmon_u_update(&SysConfig::base(Arch::DmonU)));
        let lat = (ack - t) as i64;
        assert!((lat - expect as i64).abs() <= 17, "lat {lat} vs {expect}");
    }

    #[test]
    fn dmon_read_slower_than_lambdanet_read() {
        // The decoupling + arbitration cost: §5.1 says DMON-U's
        // contention-free miss is 22% above LambdaNet's.
        let d = latency::total(&latency::dmon_miss(&SysConfig::base(Arch::DmonU)));
        let l = latency::total(&latency::lambdanet_miss(&SysConfig::base(Arch::LambdaNet)));
        assert!(d > l);
    }

    #[test]
    fn control_channel_serializes_reservations() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let mk = |addr: Addr| WriteEntry {
            block: addr / 64,
            addr,
            mask: 0xFFFF,
            shared: true,
        };
        // Simultaneous updates from many nodes: every one of them must
        // first win a control-channel slot, and a node's slot recurs only
        // once per 16-cycle frame — DMON's signature arbitration cost,
        // absent in LambdaNet.
        let mut acks: Vec<Time> = (0..8)
            .map(|n| p.retire_shared_write(&mut nodes, n, &mk(a + 64 * n as u64), 0, u64::MAX))
            .collect();
        acks.sort_unstable();
        // All distinct completion times, spread by the TDMA frame.
        for w in acks.windows(2) {
            assert!(w[1] > w[0], "reservations must serialize: {acks:?}");
        }
        assert!(
            acks[7] - acks[0] >= 7,
            "slot phases must spread completions: {acks:?}"
        );
    }
}
