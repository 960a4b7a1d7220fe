//! The LambdaNet baseline (paper §2.3).
//!
//! One WDM channel per node; the node is the sole transmitter on its
//! channel and every other node receives it, so any message is implicitly
//! broadcast and **no arbitration of any kind is needed** — no TDMA, no
//! reservations, no tuning. The paper pairs it with a write-update
//! protocol (memory always current, coalescing write buffers) and uses the
//! combination as the performance upper bound for optical multiprocessors
//! that do not cache data on the network.
//!
//! Its Achilles heel, reproduced here: reads and writes share each node's
//! single transmit channel (no decoupling), and updates from different
//! nodes have no serialization point, so update storms land on the memory
//! modules at full throughput and queue there.

use desim::{FifoServer, Time};
use memsys::{Addr, AddressMap, WriteEntry};
use optics::OpticalParams;

use super::{apply_update_to_peers, Node, ProtoCounters, Protocol, ReadKind, ReadResult};
use crate::config::SysConfig;
use crate::latency::consts;
use crate::sharers::SharerMap;
use crate::topology::Fabric;

/// LambdaNet interconnect state: one channel (FIFO server) per node.
pub struct LambdaNet {
    map: AddressMap,
    optics: OpticalParams,
    fabric: Fabric,
    channels: Vec<FifoServer>,
    block_transfer: u64,
    msg: u64,
    counters: ProtoCounters,
}

impl LambdaNet {
    /// Builds the per-node channels.
    pub fn new(cfg: &SysConfig, map: AddressMap) -> Self {
        Self {
            map,
            optics: cfg.optics,
            fabric: Fabric::new(cfg),
            channels: (0..cfg.nodes).map(|_| FifoServer::new()).collect(),
            block_transfer: cfg.optics.transfer(cfg.l2.block_bytes, 0),
            msg: crate::latency::slot_width(&cfg.optics),
            counters: ProtoCounters::default(),
        }
    }
}

impl Protocol for LambdaNet {
    fn read_remote(&mut self, nodes: &mut [Node], node: usize, addr: Addr, t: Time) -> ReadResult {
        let home = self.map.home_of(addr);
        // Request on my own channel (no arbitration), flight, memory,
        // reply on the home's channel, flight, NI → L2. Table 2 left.
        let sent = self.channels[node].acquire(t, self.msg) + self.msg;
        let at_home = sent + self.fabric.hop(node, home);
        let data = nodes[home].mem.read_block(at_home);
        let reply = self.channels[home].acquire(data, self.block_transfer) + self.block_transfer;
        ReadResult {
            done: reply + self.fabric.hop(home, node) + consts::NI_TO_L2,
            kind: ReadKind::RemoteMem,
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
        let ready = t + consts::L2_TAG + consts::L2_TO_NI;
        let bits = entry.words() as u64 * 32 + consts::LAMBDA_UPDATE_HEADER_BITS;
        let xfer = self.optics.transfer_bits(bits);
        // Broadcast on my own channel — contends only with my own reads.
        let sent = self.channels[node].acquire(ready, xfer) + xfer;
        let seen = sent + self.fabric.broadcast(node);
        apply_update_to_peers(nodes, node, entry, &mut self.counters, sharers);
        let (_applied, ack_ready) = nodes[home].mem.apply_update(seen, entry.words());
        // Ack on the home's own channel.
        let ack = self.channels[home].acquire(ack_ready, self.msg) + self.msg;
        ack + self.fabric.hop(home, node)
    }

    fn sync_broadcast(&mut self, node: usize, t: Time) -> Time {
        self.counters.sync_msgs += 1;
        let ready = t + consts::CMD_TO_NI;
        let sent = self.channels[node].acquire(ready, 2) + 2;
        sent + self.fabric.broadcast(node)
    }

    fn counters(&self) -> &ProtoCounters {
        &self.counters
    }

    fn channel_report(&self) -> Vec<(String, u64, u64, f64)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, ch)| {
                (
                    format!("node{i}"),
                    ch.served(),
                    ch.busy_total(),
                    ch.mean_wait(),
                )
            })
            .collect()
    }

    fn link_report(&self) -> Vec<(String, u64, u64)> {
        self.fabric.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;
    use crate::latency;

    fn setup() -> (LambdaNet, Vec<Node>, AddressMap) {
        let cfg = SysConfig::base(Arch::LambdaNet);
        let map = AddressMap::new(cfg.nodes, 64);
        let nodes: Vec<Node> = (0..cfg.nodes).map(|_| Node::new(&cfg)).collect();
        (LambdaNet::new(&cfg, map), nodes, map)
    }

    fn remote_addr(map: &AddressMap, node: usize) -> Addr {
        let mut a = memsys::addr::SHARED_BASE;
        while map.home_of(a) == node {
            a += 64;
        }
        a
    }

    #[test]
    fn contention_free_read_matches_table2() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let t = 777;
        let r = p.read_remote(&mut nodes, 0, a, t);
        // Table 2 total 111 includes the 5-cycle tag checks the machine
        // charges separately.
        let expect =
            latency::total(&latency::lambdanet_miss(&SysConfig::base(Arch::LambdaNet))) - 5;
        assert_eq!(r.done - t, expect);
    }

    #[test]
    fn update_matches_table3() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let entry = WriteEntry {
            block: map.block_of(a),
            addr: a,
            mask: 0xFF,
            shared: true,
        };
        let t = 123;
        let ack = p.retire_shared_write(&mut nodes, 0, &entry, t, &mut SharerMap::new());
        let expect = latency::total(&latency::lambdanet_update(&SysConfig::base(
            Arch::LambdaNet,
        )));
        assert_eq!(ack - t, expect);
    }

    #[test]
    fn no_serialization_point_for_updates_from_different_nodes() {
        let (mut p, mut nodes, map) = setup();
        let a = remote_addr(&map, 0);
        let home = map.home_of(a);
        // Updates from many different nodes at the same instant: the only
        // shared resource is the home memory module.
        let mut acks = Vec::new();
        for n in 0..8 {
            if n == home {
                continue;
            }
            let addr = a + 64 * 16 * n as u64; // same home, distinct blocks
            let entry = WriteEntry {
                block: map.block_of(addr),
                addr,
                mask: 0xFF,
                shared: true,
            };
            acks.push(p.retire_shared_write(&mut nodes, n, &entry, 0, &mut SharerMap::new()));
        }
        // The first few acks come back almost immediately (no channel
        // contention); only memory hysteresis delays the tail.
        assert!(acks[0] <= 30);
        assert!(nodes[home].mem.updates() >= 7);
    }

    #[test]
    fn reads_and_updates_share_my_channel() {
        let (mut p, mut nodes, map) = setup();
        // Node 0 sends a fat update, then immediately a read request: the
        // request queues behind the update on node 0's channel.
        let a = remote_addr(&map, 0);
        let entry = WriteEntry {
            block: map.block_of(a),
            addr: a,
            mask: 0xFFFF,
            shared: true,
        };
        p.retire_shared_write(&mut nodes, 0, &entry, 0, &mut SharerMap::new());
        let r = p.read_remote(&mut nodes, 0, a + 64, 0);
        let expect_free =
            latency::total(&latency::lambdanet_miss(&SysConfig::base(Arch::LambdaNet))) - 5;
        assert!(
            r.done > expect_free,
            "read must queue behind the update: {} vs {}",
            r.done,
            expect_free
        );
    }
}
