//! Fabric topologies behind the [`Topology`] trait (ROADMAP item 3).
//!
//! The paper fixes one star coupler + one cache ring at p=16. This module
//! generalizes the fabric: the protocols ask a [`Topology`] for per-hop
//! latencies, ring striping, and per-link accounting instead of reading
//! `optics.flight` directly, and the concrete fabric is chosen at run time
//! from [`SysConfig::topo`](crate::config::SysConfig) via [`Fabric::new`].
//!
//! Three fabrics are provided:
//!
//! * [`SingleRing`] — the paper's machine: one star, one cache ring. The
//!   **default**, and bit-for-bit identical to the pre-trait engine
//!   (`tests/topology_diff.rs` pins this against hard-coded digests): every
//!   hop latency equals `optics.flight`, the single ring sees exactly the
//!   old probe/insert/update sequence, and link counters are pure
//!   bookkeeping outside the report digest.
//! * [`MultiRing`] — C independent cache rings striped by coherence-block
//!   address (`block mod C`), each with `channels / C` channels so total
//!   shared-cache capacity is held constant while per-ring contention and
//!   the §3.4 window population drop. `C = 1` is structurally identical to
//!   [`SingleRing`].
//! * [`StarOfRings`] — hierarchical fabric for >16 nodes: clusters of at
//!   most [`CLUSTER_MAX`] nodes, each with a full-size local star + cache
//!   ring, joined by a root star. Intra-cluster hops cost `flight`;
//!   cross-cluster hops cost `3 × flight` (leg up, root crossing, leg
//!   down). A node probes only its own cluster's ring, and a block's home
//!   cluster caches it. At ≤ [`CLUSTER_MAX`] nodes there is one cluster and
//!   the fabric degenerates to [`SingleRing`] exactly.
//!
//! # Links and attribution
//!
//! Per-link bandwidth/occupancy counters ([`LinkCounters`]) use a fixed
//! link enumeration: one *leg* per node (`leg{n}`, the node's connection
//! into its star), one per cache ring (`ring{r}`), and — hierarchical
//! fabrics only — one *root* link per cluster (`root{c}`). Every injected
//! frame is accounted on **exactly one** link (the first it crosses:
//! sender's leg for intra-cluster traffic, the sender cluster's root link
//! for cross-cluster traffic and broadcasts, the ring for ring traffic),
//! so `Σ frames == injected` holds exactly — a property-tested invariant,
//! not an approximation.

use crate::config::{RingConfig, SysConfig, TopoKind};
use desim::time::Time;

/// Largest cluster a [`StarOfRings`] root star couples (the paper's
/// validated single-star scale).
pub const CLUSTER_MAX: usize = 16;

/// The fabric contract: cluster/ring structure, per-hop timing, route
/// lookup, and the per-link accounting layout. Implementations must keep
/// `hop_latency` symmetric when their physical structure is (all three
/// in-tree fabrics are fully symmetric).
pub trait Topology {
    /// Fabric name as used by `--topology`.
    fn name(&self) -> &'static str;

    /// Total node count.
    fn nodes(&self) -> usize;

    /// Nodes per cluster (== `nodes()` for flat fabrics).
    fn cluster(&self) -> usize;

    /// Independent cache rings this fabric carries.
    fn rings(&self) -> usize;

    /// The ring a coherence block circulates on, given its home node.
    fn ring_of(&self, block: u64, home: usize) -> usize;

    /// One-way propagation delay of an intra-cluster hop, in pcycles.
    fn local_hop(&self) -> Time;

    /// Cluster count (1 for flat fabrics).
    fn clusters(&self) -> usize {
        self.nodes().div_ceil(self.cluster())
    }

    /// The cluster a node belongs to.
    fn cluster_of(&self, node: usize) -> usize {
        node / self.cluster()
    }

    /// A node's tap index on its cache ring (within-cluster position).
    fn ring_tap(&self, node: usize) -> usize {
        node % self.cluster()
    }

    /// True when `node` can probe the ring that caches `home`'s blocks
    /// (hierarchical fabrics cache a block only in its home cluster).
    fn probes_ring(&self, node: usize, home: usize) -> bool {
        self.cluster_of(node) == self.cluster_of(home)
    }

    /// One-way latency of a frame from `src` to `dst`.
    fn hop_latency(&self, src: usize, dst: usize) -> Time {
        if self.cluster_of(src) == self.cluster_of(dst) {
            self.local_hop()
        } else {
            3 * self.local_hop()
        }
    }

    /// Time for a broadcast from `src` to reach the farthest node.
    fn broadcast_latency(&self, src: usize) -> Time {
        let _ = src;
        if self.clusters() > 1 {
            3 * self.local_hop()
        } else {
            self.local_hop()
        }
    }

    /// Number of accounted links: `nodes` legs + `rings` ring links +
    /// (hierarchical only) one root link per cluster.
    fn links(&self) -> usize {
        let roots = if self.clusters() > 1 {
            self.clusters()
        } else {
            0
        };
        self.nodes() + self.rings() + roots
    }

    /// Human-readable link name (`leg{n}` / `ring{r}` / `root{c}`).
    fn link_name(&self, link: usize) -> String {
        let n = self.nodes();
        let r = self.rings();
        if link < n {
            format!("leg{link}")
        } else if link < n + r {
            format!("ring{}", link - n)
        } else {
            format!("root{}", link - n - r)
        }
    }

    /// The ring `r`'s link id.
    fn ring_link(&self, ring: usize) -> usize {
        self.nodes() + ring
    }

    /// The root link of cluster `c` (hierarchical fabrics only).
    fn root_link(&self, c: usize) -> usize {
        self.nodes() + self.rings() + c
    }

    /// The single link a node-originated frame is accounted on: the
    /// sender's leg intra-cluster, the sender cluster's root link
    /// cross-cluster.
    fn frame_link(&self, src: usize, dst: usize) -> usize {
        if self.clusters() > 1 && self.cluster_of(src) != self.cluster_of(dst) {
            self.root_link(self.cluster_of(src))
        } else {
            src
        }
    }

    /// The link a broadcast is accounted on (root link when one exists —
    /// a hierarchical broadcast must cross it — else the sender's leg).
    fn broadcast_link(&self, src: usize) -> usize {
        if self.clusters() > 1 {
            self.root_link(self.cluster_of(src))
        } else {
            src
        }
    }

    /// The ordered link path of a frame: sender's leg first, receiver's
    /// leg last, root links of both clusters in between when the frame
    /// crosses the hierarchy.
    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        if src == dst {
            return vec![src];
        }
        let (cs, cd) = (self.cluster_of(src), self.cluster_of(dst));
        if cs == cd {
            vec![src, dst]
        } else {
            vec![src, self.root_link(cs), self.root_link(cd), dst]
        }
    }
}

/// The paper's fabric: one star coupler, one cache ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleRing {
    /// Node count.
    pub nodes: usize,
    /// One-way star propagation delay.
    pub flight: Time,
}

impl Topology for SingleRing {
    fn name(&self) -> &'static str {
        "single"
    }
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn cluster(&self) -> usize {
        self.nodes
    }
    fn rings(&self) -> usize {
        1
    }
    fn ring_of(&self, _block: u64, _home: usize) -> usize {
        0
    }
    fn local_hop(&self) -> Time {
        self.flight
    }
}

/// C independent cache rings striped by coherence-block address; one star.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiRing {
    /// Node count.
    pub nodes: usize,
    /// Ring count C (≥ 1).
    pub rings: usize,
    /// One-way star propagation delay.
    pub flight: Time,
}

impl Topology for MultiRing {
    fn name(&self) -> &'static str {
        "multi-ring"
    }
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn cluster(&self) -> usize {
        self.nodes
    }
    fn rings(&self) -> usize {
        self.rings
    }
    fn ring_of(&self, block: u64, _home: usize) -> usize {
        (block % self.rings as u64) as usize
    }
    fn local_hop(&self) -> Time {
        self.flight
    }
}

/// Hierarchical fabric: clusters of ≤ [`CLUSTER_MAX`] nodes, each with a
/// local star + cache ring, under a root star.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarOfRings {
    /// Node count.
    pub nodes: usize,
    /// Nodes per cluster.
    pub cluster: usize,
    /// One-way propagation delay of an intra-cluster hop.
    pub flight: Time,
}

impl Topology for StarOfRings {
    fn name(&self) -> &'static str {
        "star-of-rings"
    }
    fn nodes(&self) -> usize {
        self.nodes
    }
    fn cluster(&self) -> usize {
        self.cluster
    }
    fn rings(&self) -> usize {
        self.clusters()
    }
    fn ring_of(&self, _block: u64, home: usize) -> usize {
        self.cluster_of(home)
    }
    fn local_hop(&self) -> Time {
        self.flight
    }
}

/// The runtime-selected fabric: a closed enum over the in-tree topologies
/// (kept monomorphic — protocols sit on the per-event hot path, and a
/// `dyn Topology` would reintroduce the virtual dispatch PR 6 removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The paper's single star + ring.
    Single(SingleRing),
    /// C rings striped by block address.
    Multi(MultiRing),
    /// Clusters of rings under a root star.
    Star(StarOfRings),
}

macro_rules! delegate {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            Fabric::Single($t) => $e,
            Fabric::Multi($t) => $e,
            Fabric::Star($t) => $e,
        }
    };
}

impl Fabric {
    /// Builds the configured fabric. Call after `cfg.validate()`: the
    /// topology-shape rules (ring count divides channels, cluster
    /// divisibility) live there.
    pub fn new(cfg: &SysConfig) -> Self {
        match cfg.topo.kind {
            TopoKind::Single => Fabric::Single(SingleRing {
                nodes: cfg.nodes,
                flight: cfg.optics.flight,
            }),
            TopoKind::MultiRing => Fabric::Multi(MultiRing {
                nodes: cfg.nodes,
                rings: cfg.topo.rings.max(1),
                flight: cfg.optics.flight,
            }),
            TopoKind::StarOfRings => Fabric::Star(StarOfRings {
                nodes: cfg.nodes,
                cluster: cfg.nodes.clamp(1, CLUSTER_MAX),
                flight: cfg.optics.flight,
            }),
        }
    }

    /// The per-ring cache configuration: multi-ring fabrics split the
    /// channel budget evenly across rings (total capacity constant);
    /// every other fabric gives each ring the full budget.
    pub fn ring_cfg(&self, base: RingConfig) -> RingConfig {
        match self {
            Fabric::Multi(m) if m.rings > 1 => RingConfig {
                channels: base.channels / m.rings,
                ..base
            },
            _ => base,
        }
    }

    /// Tap count of each cache ring (the cluster size).
    pub fn ring_nodes(&self) -> usize {
        self.cluster()
    }
}

impl Topology for Fabric {
    fn name(&self) -> &'static str {
        delegate!(self, t => t.name())
    }
    fn nodes(&self) -> usize {
        delegate!(self, t => t.nodes())
    }
    fn cluster(&self) -> usize {
        delegate!(self, t => t.cluster())
    }
    fn rings(&self) -> usize {
        delegate!(self, t => t.rings())
    }
    fn ring_of(&self, block: u64, home: usize) -> usize {
        delegate!(self, t => t.ring_of(block, home))
    }
    fn local_hop(&self) -> Time {
        delegate!(self, t => t.local_hop())
    }
}

/// Per-link bandwidth/occupancy counters. Each recorded frame bumps
/// exactly one link's `frames` (and `busy` by the frame's hop latency)
/// plus the global `injected` count, so `Σ frames == injected` is an
/// exact invariant (property-tested in `tests/properties.rs`).
#[derive(Debug, Clone, Default)]
pub struct LinkCounters {
    frames: Vec<u64>,
    busy: Vec<u64>,
    injected: u64,
}

impl LinkCounters {
    /// Zeroed counters sized for `topo`'s link enumeration.
    pub fn new(topo: &impl Topology) -> Self {
        Self {
            frames: vec![0; topo.links()],
            busy: vec![0; topo.links()],
            injected: 0,
        }
    }

    #[inline]
    fn bump(&mut self, link: usize, busy: Time) {
        self.frames[link] += 1;
        self.busy[link] += busy;
        self.injected += 1;
    }

    /// Records a point-to-point frame from `src` to `dst`.
    #[inline]
    pub fn frame(&mut self, topo: &impl Topology, src: usize, dst: usize) {
        self.bump(topo.frame_link(src, dst), topo.hop_latency(src, dst));
    }

    /// Records a broadcast frame from `src`.
    #[inline]
    pub fn broadcast(&mut self, topo: &impl Topology, src: usize) {
        self.bump(topo.broadcast_link(src), topo.broadcast_latency(src));
    }

    /// Records one ring access (probe, insert, or update) on ring `r`.
    #[inline]
    pub fn ring_frame(&mut self, topo: &impl Topology, ring: usize) {
        self.bump(topo.ring_link(ring), 1);
    }

    /// Total frames injected into the fabric.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Sum of per-link frame counts (== `injected()` by construction).
    pub fn frames_total(&self) -> u64 {
        self.frames.iter().sum()
    }

    /// Per-link `(name, frames, busy)` rows in link-id order.
    pub fn report(&self, topo: &impl Topology) -> Vec<(String, u64, u64)> {
        (0..self.frames.len())
            .map(|l| (topo.link_name(l), self.frames[l], self.busy[l]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Arch, SysConfig, TopoKind};

    fn star64() -> StarOfRings {
        StarOfRings {
            nodes: 64,
            cluster: 16,
            flight: 1,
        }
    }

    #[test]
    fn single_is_one_flat_cluster() {
        let t = SingleRing {
            nodes: 8,
            flight: 1,
        };
        assert_eq!(t.clusters(), 1);
        assert_eq!(t.rings(), 1);
        assert_eq!(t.links(), 9); // 8 legs + 1 ring, no root
        for (s, d) in [(0, 7), (3, 3), (5, 1)] {
            assert_eq!(t.hop_latency(s, d), 1);
        }
        assert_eq!(t.broadcast_latency(2), 1);
        assert!(t.probes_ring(0, 7));
        assert_eq!(t.ring_tap(5), 5);
    }

    #[test]
    fn multi_ring_stripes_blocks_evenly() {
        let t = MultiRing {
            nodes: 16,
            rings: 4,
            flight: 1,
        };
        let mut per_ring = [0u32; 4];
        for block in 0..4000u64 {
            per_ring[t.ring_of(block, 0)] += 1;
        }
        assert_eq!(per_ring, [1000; 4]);
        // Timing is the flat star's: striping changes placement only.
        assert_eq!(t.hop_latency(0, 15), 1);
        assert_eq!(t.broadcast_latency(0), 1);
        assert_eq!(t.links(), 16 + 4);
    }

    #[test]
    fn star_of_rings_clusters_and_latencies() {
        let t = star64();
        assert_eq!(t.clusters(), 4);
        assert_eq!(t.rings(), 4);
        assert_eq!(t.links(), 64 + 4 + 4);
        assert_eq!(t.cluster_of(15), 0);
        assert_eq!(t.cluster_of(16), 1);
        assert_eq!(t.ring_tap(17), 1);
        assert_eq!(t.hop_latency(0, 15), 1, "intra-cluster");
        assert_eq!(t.hop_latency(0, 16), 3, "cross-cluster");
        assert_eq!(t.hop_latency(16, 0), 3, "symmetric");
        assert_eq!(t.broadcast_latency(0), 3);
        assert!(t.probes_ring(0, 15));
        assert!(!t.probes_ring(0, 16));
        assert_eq!(t.ring_of(123, 20), 1, "home cluster owns the block");
    }

    #[test]
    fn routes_start_and_end_at_legs() {
        let t = star64();
        let local = t.route(2, 9);
        assert_eq!(local, vec![2, 9]);
        let far = t.route(2, 50);
        assert_eq!(far[0], 2);
        assert_eq!(*far.last().unwrap(), 50);
        assert_eq!(far.len(), 4);
        assert!(far.iter().all(|&l| l < t.links()));
    }

    #[test]
    fn fabric_selects_by_config() {
        let mut cfg = SysConfig::base(Arch::NetCache);
        assert!(matches!(Fabric::new(&cfg), Fabric::Single(_)));
        cfg.topo.kind = TopoKind::MultiRing;
        cfg.topo.rings = 2;
        let f = Fabric::new(&cfg);
        assert!(matches!(f, Fabric::Multi(_)));
        assert_eq!(f.ring_cfg(cfg.ring).channels, cfg.ring.channels / 2);
        cfg.topo.kind = TopoKind::StarOfRings;
        let cfg = cfg.with_nodes(64);
        let f = Fabric::new(&cfg);
        assert!(matches!(f, Fabric::Star(_)));
        assert_eq!(f.ring_nodes(), 16);
        assert_eq!(f.ring_cfg(cfg.ring).channels, cfg.ring.channels);
    }

    #[test]
    fn single_cluster_star_degenerates_to_single() {
        let mut cfg = SysConfig::base(Arch::NetCache).with_nodes(8);
        cfg.topo.kind = TopoKind::StarOfRings;
        let f = Fabric::new(&cfg);
        assert_eq!(f.clusters(), 1);
        assert_eq!(f.rings(), 1);
        assert_eq!(f.hop_latency(0, 7), cfg.optics.flight);
        assert_eq!(f.broadcast_latency(0), cfg.optics.flight);
        assert_eq!(f.links(), 9);
    }

    #[test]
    fn counters_sum_to_injected() {
        let t = star64();
        let mut c = LinkCounters::new(&t);
        c.frame(&t, 0, 5);
        c.frame(&t, 0, 40);
        c.broadcast(&t, 3);
        c.ring_frame(&t, 2);
        assert_eq!(c.injected(), 4);
        assert_eq!(c.frames_total(), 4);
        let rows = c.report(&t);
        assert_eq!(rows.len(), t.links());
        assert_eq!(rows[0], ("leg0".into(), 1, 1), "intra-cluster on the leg");
        let root0 = &rows[t.root_link(0)];
        assert_eq!(root0.0, "root0");
        assert_eq!(root0.1, 2, "cross-cluster frame + broadcast");
        assert_eq!(root0.2, 6, "3 pcycles each");
        assert_eq!(rows[t.ring_link(2)], ("ring2".into(), 1, 1));
    }
}
