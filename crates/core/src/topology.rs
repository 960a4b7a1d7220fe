//! The interconnect fabric as one [`Fabric`] value.
//!
//! The paper fixes one star coupler + one cache ring at p=16. This module
//! generalizes the fabric without a trait: every fabric the engine builds
//! is a set of equal clusters, each with its own star and its own cache
//! rings, so three numbers describe it — nodes per cluster, cache rings
//! per cluster, and the one-way flight of an intra-cluster hop
//! (`optics.flight`). [`Fabric::new`] reads them off
//! [`SysConfig::topo`](crate::config::SysConfig):
//!
//! * `single` — the paper's machine, `(nodes, 1)`: one star, one cache
//!   ring. The **default**, and bit-for-bit identical to the pre-topology
//!   engine (`tests/topology_diff.rs`): every hop and broadcast costs
//!   `flight`, and the ring sees the old probe/insert/update sequence.
//! * `multi-ring` — `(nodes, C)`: C cache rings striped by coherence-block
//!   address (`block mod C`), each with `channels / C` channels, so total
//!   shared-cache capacity is constant while per-ring contention and the
//!   §3.4 window population drop. `C = 1` is the single ring.
//! * `star-of-rings` — `(min(nodes, CLUSTER_MAX), 1)`: clusters joined by
//!   a root star. Intra-cluster hops cost `flight`; cross-cluster hops and
//!   broadcasts cost `3 × flight` (leg up, root crossing, leg down). A
//!   node probes only its own cluster's ring, and a block's home cluster
//!   caches it. At ≤ [`CLUSTER_MAX`] nodes it is the single ring.
//!
//! # Links and attribution
//!
//! The fabric also keeps the per-link ledger, over a fixed link
//! enumeration: one *leg* per node (`leg{n}`, the node's connection into
//! its star), one per cache ring (`ring{r}`), and — multi-cluster fabrics
//! only — one *root* link per cluster (`root{c}`). Each traversal is one
//! call ([`Fabric::hop`], [`Fabric::broadcast`], [`Fabric::ring_access`])
//! that charges **exactly one** link, the first it crosses (the sender's
//! leg intra-cluster, the sender cluster's root link for cross-cluster
//! frames and broadcasts, the ring for ring traffic), with the latency it
//! returns as busy time. So the per-link frames sum to the frames sent,
//! and the timing and the ledger cannot disagree.

use crate::config::{RingConfig, SysConfig, TopoKind};
use desim::time::Time;

/// Largest cluster a star-of-rings root star couples (the paper's
/// validated single-star scale).
pub const CLUSTER_MAX: usize = 16;

/// The configured fabric: its shape, its hop timing and its per-link
/// `(frames, busy)` ledger.
#[derive(Debug, Clone)]
pub struct Fabric {
    nodes: usize,
    /// Nodes per cluster.
    cluster: usize,
    /// Clusters (`nodes / cluster`, rounded up).
    clusters: usize,
    /// Cache rings per cluster.
    stripes: usize,
    /// One-way propagation delay of an intra-cluster hop.
    flight: Time,
    /// Per link, in link-id order: frames sent on it and its busy time.
    ledger: Vec<(u64, u64)>,
}

impl Fabric {
    /// Builds the configured fabric. Call after `cfg.validate()`: the
    /// topology-shape rules (ring count divides channels, cluster
    /// divisibility) live there.
    pub fn new(cfg: &SysConfig) -> Self {
        let nodes = cfg.nodes;
        let (cluster, stripes) = match cfg.topo.kind {
            TopoKind::Single => (nodes, 1),
            TopoKind::MultiRing => (nodes, cfg.topo.rings.max(1)),
            TopoKind::StarOfRings => (nodes.clamp(1, CLUSTER_MAX), 1),
        };
        let clusters = nodes.div_ceil(cluster);
        let roots = if clusters > 1 { clusters } else { 0 };
        Self {
            nodes,
            cluster,
            clusters,
            stripes,
            flight: cfg.optics.flight,
            ledger: vec![(0, 0); nodes + clusters * stripes + roots],
        }
    }

    /// Independent cache rings this fabric carries.
    pub fn rings(&self) -> usize {
        self.clusters * self.stripes
    }

    /// The cluster a node belongs to.
    #[inline]
    fn cluster_of(&self, node: usize) -> usize {
        if self.clusters == 1 {
            0
        } else {
            node / self.cluster
        }
    }

    /// The ring a coherence block circulates on, given its home node: one
    /// of the home cluster's rings, striped by block address.
    #[inline]
    pub fn ring_of(&self, block: u64, home: usize) -> usize {
        let stripe = if self.stripes == 1 {
            0
        } else {
            (block % self.stripes as u64) as usize
        };
        self.cluster_of(home) * self.stripes + stripe
    }

    /// A node's tap index on its cache ring (within-cluster position).
    #[inline]
    pub fn ring_tap(&self, node: usize) -> usize {
        node - self.cluster_of(node) * self.cluster
    }

    /// True when `node` can probe the ring that caches `home`'s blocks
    /// (multi-cluster fabrics cache a block only in its home cluster).
    #[inline]
    pub fn probes_ring(&self, node: usize, home: usize) -> bool {
        self.cluster_of(node) == self.cluster_of(home)
    }

    /// The per-ring cache configuration: a cluster's rings split its
    /// channel budget evenly (total capacity constant).
    pub fn ring_cfg(&self, base: RingConfig) -> RingConfig {
        RingConfig {
            channels: base.channels / self.stripes,
            ..base
        }
    }

    /// Tap count of each cache ring (the cluster size).
    pub fn ring_nodes(&self) -> usize {
        self.cluster
    }

    /// Sends a frame from `src` to `dst`: charges its first link and
    /// returns its one-way latency.
    #[inline]
    pub fn hop(&mut self, src: usize, dst: usize) -> Time {
        let (cs, cd) = (self.cluster_of(src), self.cluster_of(dst));
        if cs == cd {
            self.charge(src, self.flight)
        } else {
            self.charge(self.nodes + self.rings() + cs, 3 * self.flight)
        }
    }

    /// Broadcasts a frame from `src`: charges its first link and returns
    /// the time it takes to reach the farthest node.
    #[inline]
    pub fn broadcast(&mut self, src: usize) -> Time {
        if self.clusters == 1 {
            self.charge(src, self.flight)
        } else {
            let root = self.nodes + self.rings() + src / self.cluster;
            self.charge(root, 3 * self.flight)
        }
    }

    /// Records one access (probe, insert or update) to cache ring `r`.
    #[inline]
    pub fn ring_access(&mut self, r: usize) {
        self.charge(self.nodes + r, 1);
    }

    #[inline]
    fn charge(&mut self, link: usize, latency: Time) -> Time {
        let (frames, busy) = &mut self.ledger[link];
        *frames += 1;
        *busy += latency;
        latency
    }

    /// Per-link `(name, frames, busy)` rows in link-id order: legs, then
    /// rings, then roots.
    pub fn report(&self) -> Vec<(String, u64, u64)> {
        let rings = self.nodes + self.rings();
        self.ledger
            .iter()
            .enumerate()
            .map(|(l, &(frames, busy))| {
                let name = if l < self.nodes {
                    format!("leg{l}")
                } else if l < rings {
                    format!("ring{}", l - self.nodes)
                } else {
                    format!("root{}", l - rings)
                };
                (name, frames, busy)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;

    fn fabric(nodes: usize, kind: TopoKind, rings: usize) -> Fabric {
        let cfg = SysConfig::base(Arch::NetCache)
            .with_nodes(nodes)
            .with_topology(kind)
            .with_rings(rings);
        Fabric::new(&cfg)
    }

    #[test]
    fn single_is_one_flat_cluster() {
        let mut t = fabric(8, TopoKind::Single, 1);
        assert_eq!(t.clusters, 1);
        assert_eq!(t.rings(), 1);
        assert_eq!(t.report().len(), 9); // 8 legs + 1 ring, no root
        for (s, d) in [(0, 7), (3, 3), (5, 1)] {
            assert_eq!(t.hop(s, d), 1);
        }
        assert_eq!(t.broadcast(2), 1);
        assert!(t.probes_ring(0, 7));
        assert_eq!(t.ring_tap(5), 5);
        assert_eq!(t.ring_of(123, 7), 0);
    }

    #[test]
    fn multi_ring_stripes_blocks_evenly() {
        let mut t = fabric(16, TopoKind::MultiRing, 4);
        let mut per_ring = [0u32; 4];
        for block in 0..4000u64 {
            per_ring[t.ring_of(block, 0)] += 1;
        }
        assert_eq!(per_ring, [1000; 4]);
        // Timing is the flat star's: striping changes placement only.
        assert_eq!(t.hop(0, 15), 1);
        assert_eq!(t.broadcast(0), 1);
        assert_eq!(t.report().len(), 16 + 4);
        assert_eq!(t.ring_cfg(RingConfig::base()).channels, 128 / 4);
        assert_eq!(t.ring_nodes(), 16);
    }

    #[test]
    fn star_of_rings_clusters_and_latencies() {
        let mut t = fabric(64, TopoKind::StarOfRings, 1);
        assert_eq!(t.clusters, 4);
        assert_eq!(t.rings(), 4);
        assert_eq!(t.report().len(), 64 + 4 + 4);
        assert_eq!(t.cluster_of(15), 0);
        assert_eq!(t.cluster_of(16), 1);
        assert_eq!(t.ring_tap(17), 1);
        assert_eq!(t.hop(0, 15), 1, "intra-cluster");
        assert_eq!(t.hop(0, 16), 3, "cross-cluster");
        assert_eq!(t.hop(16, 0), 3, "symmetric");
        assert_eq!(t.broadcast(0), 3);
        assert!(t.probes_ring(0, 15));
        assert!(!t.probes_ring(0, 16));
        assert_eq!(t.ring_of(123, 20), 1, "home cluster owns the block");
        assert_eq!(t.ring_nodes(), 16);
        assert_eq!(t.ring_cfg(RingConfig::base()).channels, 128);
    }

    #[test]
    fn single_cluster_star_degenerates_to_single() {
        let mut star = fabric(8, TopoKind::StarOfRings, 1);
        let single = fabric(8, TopoKind::Single, 1);
        assert_eq!(star.clusters, 1);
        assert_eq!(star.rings(), 1);
        assert_eq!(star.hop(0, 7), 1);
        assert_eq!(star.broadcast(0), 1);
        assert_eq!(star.report().len(), single.report().len());
    }

    #[test]
    fn each_traversal_charges_one_link() {
        let mut t = fabric(64, TopoKind::StarOfRings, 1);
        t.hop(0, 5);
        t.hop(0, 40);
        t.broadcast(3);
        t.ring_access(2);
        let rows = t.report();
        assert_eq!(rows.len(), 72);
        assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), 4);
        assert_eq!(rows[0], ("leg0".into(), 1, 1), "intra-cluster on the leg");
        assert_eq!(
            rows[68],
            ("root0".into(), 2, 6),
            "cross-cluster + broadcast"
        );
        assert_eq!(rows[64 + 2], ("ring2".into(), 1, 1));
    }
}
