//! System configuration: every knob of the paper's base machine (§4.1) and
//! parameter-space study (§5.3–5.4) in one place.

use crate::topology::CLUSTER_MAX;
use memsys::{CacheCfg, MemoryCfg};
use optics::{OpticalParams, RingGeometry};

/// Which simulated architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// The paper's contribution: star-coupler subnetwork + delay-line ring
    /// shared cache, update-based coherence (§3).
    NetCache,
    /// Goodman et al.'s per-node-channel broadcast star with the paper's
    /// write-update protocol (§2.3) — the non-caching upper bound.
    LambdaNet,
    /// Ha & Pinkston's DMON with the authors' update protocol (§2.2).
    DmonU,
    /// DMON with the I-SPEED invalidate protocol (§2.2).
    DmonI,
}

impl Arch {
    /// All four systems, in the paper's figure order (left to right).
    pub const ALL: [Arch; 4] = [Arch::NetCache, Arch::LambdaNet, Arch::DmonU, Arch::DmonI];

    /// Display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::NetCache => "NetCache",
            Arch::LambdaNet => "LambdaNet",
            Arch::DmonU => "DMON-U",
            Arch::DmonI => "DMON-I",
        }
    }
}

/// Shared-cache (ring) replacement policy (§5.3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// The architecture's native policy: replace whatever frame passes the
    /// home node next. Hardware-free and, per the paper, the best.
    #[default]
    Random,
    /// Least frequently used frame in the channel.
    Lfu,
    /// Least recently used frame in the channel.
    Lru,
    /// Oldest-inserted frame in the channel.
    Fifo,
}

impl Replacement {
    /// All policies in the paper's Fig. 12 order.
    pub const ALL: [Replacement; 4] = [
        Replacement::Random,
        Replacement::Lfu,
        Replacement::Lru,
        Replacement::Fifo,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Replacement::Random => "Random",
            Replacement::Lfu => "LFU",
            Replacement::Lru => "LRU",
            Replacement::Fifo => "FIFO",
        }
    }
}

/// Shared-cache channel associativity (§5.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelAssoc {
    /// A block may occupy any frame of its channel (the architecture's
    /// native organization).
    #[default]
    Fully,
    /// A block maps to exactly one frame of its channel.
    Direct,
}

/// Which interconnect fabric to build (its shape, timing and link
/// ledger live in [`crate::topology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopoKind {
    /// The paper's fabric: one star coupler + one cache ring.
    #[default]
    Single,
    /// C independent cache rings striped by block address, one star.
    MultiRing,
    /// Hierarchical: clusters of ≤16 nodes under a root star, one cache
    /// ring per cluster.
    StarOfRings,
}

impl TopoKind {
    /// All fabrics, default first.
    pub const ALL: [TopoKind; 3] = [TopoKind::Single, TopoKind::MultiRing, TopoKind::StarOfRings];

    /// CLI/emission name.
    pub fn name(&self) -> &'static str {
        match self {
            TopoKind::Single => "single",
            TopoKind::MultiRing => "multi-ring",
            TopoKind::StarOfRings => "star-of-rings",
        }
    }

    /// Parses a `--topology` value.
    pub fn parse(s: &str) -> Option<TopoKind> {
        TopoKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Fabric topology selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopoConfig {
    /// Which fabric.
    pub kind: TopoKind,
    /// Cache-ring count C (multi-ring only; others keep 1).
    pub rings: usize,
}

impl TopoConfig {
    /// The paper's fabric (the default).
    pub fn single() -> Self {
        Self {
            kind: TopoKind::Single,
            rings: 1,
        }
    }
}

impl Default for TopoConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// Ring shared-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingConfig {
    /// Number of cache channels; 0 disables the ring entirely (the §5.1
    /// "NetCache without a shared cache" machine, and the 0 KB point of
    /// Figs. 9–10).
    pub channels: usize,
    /// Frames per channel (base: 4).
    pub frames_per_channel: usize,
    /// Ring roundtrip in pcycles (base: 40 at 10 Gbit/s; the Fig. 14
    /// sweep rescales it inversely with the rate to keep capacity fixed).
    pub roundtrip: u64,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Channel associativity.
    pub assoc: ChannelAssoc,
    /// Shared-cache line (block) size in bytes (base: 64; §5.3.2 evaluates
    /// 128).
    pub block_bytes: u64,
    /// §3.4: start read misses on BOTH subnetworks simultaneously (the
    /// architecture's design). `false` ablates it: the star-coupler
    /// request is sent only after the ring probe concludes — "shared
    /// cache misses would take half a roundtrip longer (on average) to
    /// satisfy than a direct remote memory access".
    pub dual_path_reads: bool,
    /// §3.4: enforce the update-race FIFO window (ring reads of blocks
    /// updated less than two roundtrips ago wait out the window).
    /// `false` ablates the correctness mechanism to measure its cost.
    pub race_window: bool,
}

impl RingConfig {
    /// The paper's base 32 KB shared cache.
    pub fn base() -> Self {
        Self {
            channels: 128,
            frames_per_channel: 4,
            roundtrip: 40,
            replacement: Replacement::Random,
            assoc: ChannelAssoc::Fully,
            block_bytes: 64,
            dual_path_reads: true,
            race_window: true,
        }
    }

    /// Base ring resized to `kb` KBytes (Fig. 8: 16/32/64 KB ↔ 64/128/256
    /// channels). `0` disables the ring. A size too large to count in
    /// channels saturates instead of wrapping, so
    /// [`SysConfig::validate`] sees it and rejects it.
    pub fn sized_kb(kb: u64) -> Self {
        let channels = kb.saturating_mul(1024 / (4 * 64));
        Self {
            channels: usize::try_from(channels).unwrap_or(usize::MAX),
            ..Self::base()
        }
    }

    /// Total data capacity in bytes. Counted in `u128`, saturating: a ring
    /// not yet validated may hold more bytes than a `u64` counts.
    pub fn capacity_bytes(&self) -> u128 {
        (self.channels as u128)
            .saturating_mul(self.frames_per_channel as u128)
            .saturating_mul(u128::from(self.block_bytes))
    }

    /// True if the ring exists.
    pub fn enabled(&self) -> bool {
        self.channels > 0
    }

    /// The geometry object for `nodes` taps.
    pub fn geometry(&self, nodes: usize) -> RingGeometry {
        RingGeometry {
            channels: self.channels.max(1),
            frames_per_channel: self.frames_per_channel,
            roundtrip: self.roundtrip,
            nodes,
            read_overhead: 5,
        }
    }
}

/// The most nodes a machine may have: [`crate::sharers::SharerMap`]
/// keeps one bit per node in a `u64` mask, and coherence walks reach
/// only the nodes whose bit is set.
const MAX_NODES: usize = 64;

/// The largest shared-cache ring, in KB. The ring allocates its tag and
/// frame state (48 B of host memory per 64 B frame) for every frame when
/// the machine is built, and star-of-rings builds one ring per cluster,
/// so this caps a 64-node machine's ring state near 50 MB. It is 256
/// times the largest ring the paper studies (64 KB, Figs. 8–10).
const MAX_RING_KB: u64 = 16 * 1024;

/// The largest private cache (L1 or L2), in bytes. Each node allocates
/// a 16 B tag line for every cache line when the machine is built, so
/// with the paper's 32 B and 64 B lines a cache at this cap costs 8 or
/// 4 MB of host memory per node. It is 256 times the largest L2 the
/// paper studies (64 KB, Fig. 13).
const MAX_CACHE_BYTES: u64 = 16 << 20;

/// The most write-buffer entries: the nest path keeps each write slot's
/// buffer index in a `u8`, which holds the indices 0–255 and no more.
const MAX_WB_ENTRIES: usize = 256;

/// Full machine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SysConfig {
    /// Architecture to simulate.
    pub arch: Arch,
    /// Node count `p` (paper: 16).
    pub nodes: usize,
    /// First-level data cache (paper: 4 KB direct-mapped, 32 B blocks).
    pub l1: CacheCfg,
    /// Second-level data cache (paper: 16 KB direct-mapped, 64 B blocks).
    pub l2: CacheCfg,
    /// L2 read-hit latency in pcycles (paper: 12).
    pub l2_hit_latency: u64,
    /// Coalescing write-buffer entries (paper: 16).
    pub wb_entries: usize,
    /// Memory-module timing.
    pub mem: MemoryCfg,
    /// Optical channel parameters.
    pub optics: OpticalParams,
    /// Ring shared cache (NetCache only; ignored by the baselines).
    pub ring: RingConfig,
    /// Interconnect fabric topology.
    pub topo: TopoConfig,
    /// RNG seed for the simulation's own choices.
    pub seed: u64,
}

impl SysConfig {
    /// The paper's base machine (§4.1) for the given architecture.
    pub fn base(arch: Arch) -> Self {
        Self {
            arch,
            nodes: 16,
            l1: CacheCfg::direct(4 * 1024, 32),
            l2: CacheCfg::direct(16 * 1024, 64),
            l2_hit_latency: 12,
            wb_entries: 16,
            mem: MemoryCfg::base(),
            optics: OpticalParams::base(),
            ring: RingConfig::base(),
            topo: TopoConfig::single(),
            seed: 0x5EED,
        }
    }

    /// Base machine without the ring shared cache (the §5.1 star-only
    /// NetCache, a.k.a. OPTNET).
    pub fn netcache_no_ring() -> Self {
        let mut c = Self::base(Arch::NetCache);
        c.ring.channels = 0;
        c
    }

    /// Sets the node count (builder style).
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Sets the L2 size in KB (Fig. 13 sweep).
    pub fn with_l2_kb(mut self, kb: u64) -> Self {
        self.l2 = CacheCfg::direct(kb * 1024, 64);
        self
    }

    /// Sets the shared-cache size in KB (Figs. 8–10 sweep).
    pub fn with_ring_kb(mut self, kb: u64) -> Self {
        self.ring = RingConfig {
            replacement: self.ring.replacement,
            assoc: self.ring.assoc,
            ..RingConfig::sized_kb(kb)
        };
        self
    }

    /// Sets the optical transmission rate, rescaling the ring roundtrip to
    /// keep capacity constant (Fig. 14: "doubling the transmission rate
    /// was accompanied by halving the length of the ring").
    pub fn with_rate_gbps(mut self, rate: f64) -> Self {
        self.optics = OpticalParams::with_rate(rate);
        self.ring.roundtrip = (40.0 * 10.0 / rate).round() as u64;
        self
    }

    /// Sets the memory block read latency (Fig. 15: 44/76/108).
    pub fn with_mem_latency(mut self, lat: u64) -> Self {
        self.mem = MemoryCfg::with_read_latency(lat);
        self
    }

    /// Sets the shared-cache replacement policy (Fig. 12).
    pub fn with_replacement(mut self, r: Replacement) -> Self {
        self.ring.replacement = r;
        self
    }

    /// Sets the shared-cache channel associativity (Fig. 11).
    pub fn with_assoc(mut self, a: ChannelAssoc) -> Self {
        self.ring.assoc = a;
        self
    }

    /// Selects the fabric topology.
    pub fn with_topology(mut self, kind: TopoKind) -> Self {
        self.topo.kind = kind;
        self
    }

    /// Sets the cache-ring count C (meaningful with
    /// [`TopoKind::MultiRing`] only).
    pub fn with_rings(mut self, c: usize) -> Self {
        self.topo.rings = c;
        self
    }

    /// Validates internal consistency; called by the machine builder.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("need at least one node".into());
        }
        if self.nodes > MAX_NODES {
            return Err(format!(
                "{} nodes exceed the {MAX_NODES}-node limit (one sharer bit per node)",
                self.nodes
            ));
        }
        let ring_bytes = self.ring.capacity_bytes();
        if ring_bytes > u128::from(MAX_RING_KB) * 1024 {
            return Err(format!(
                "a {} KB shared-cache ring exceeds the {MAX_RING_KB} KB limit",
                ring_bytes / 1024
            ));
        }
        if self.ring.enabled() && !self.ring.channels.is_multiple_of(self.nodes) {
            return Err(format!(
                "ring channels ({}) must be a multiple of nodes ({})",
                self.ring.channels, self.nodes
            ));
        }
        if self.ring.enabled() && self.ring.roundtrip == 0 {
            return Err("an enabled ring needs a roundtrip of at least 1 pcycle (got 0)".into());
        }
        if self.ring.enabled()
            && !self
                .ring
                .roundtrip
                .is_multiple_of(self.ring.frames_per_channel as u64)
        {
            return Err("roundtrip must divide evenly into frames".into());
        }
        for (name, c) in [("L1", self.l1), ("L2", self.l2)] {
            if !c.block_bytes.is_power_of_two() {
                return Err(format!(
                    "{name} blocks must be a power of two bytes (got {})",
                    c.block_bytes
                ));
            }
            if c.size_bytes == 0 || !c.size_bytes.is_multiple_of(c.block_bytes) {
                return Err(format!(
                    "the {name} size ({} B) must be a non-zero multiple of its {} B block",
                    c.size_bytes, c.block_bytes
                ));
            }
            if c.size_bytes > MAX_CACHE_BYTES {
                return Err(format!(
                    "a {} KB {name} exceeds the {} KB limit",
                    c.size_bytes / 1024,
                    MAX_CACHE_BYTES / 1024
                ));
            }
        }
        if self.l2_hit_latency == 0 {
            return Err("the L2 hit latency must be at least 1 pcycle (got 0)".into());
        }
        if !(1..=MAX_WB_ENTRIES).contains(&self.wb_entries) {
            return Err(format!(
                "write-buffer entries must lie in 1..={MAX_WB_ENTRIES} (got {})",
                self.wb_entries
            ));
        }
        if self.l2.block_bytes != 64 {
            return Err("L2 blocks must be 64 B (the coherence unit)".into());
        }
        match self.topo.kind {
            TopoKind::Single | TopoKind::StarOfRings => {
                if self.topo.rings != 1 {
                    return Err(format!(
                        "topology {:?} has a fixed ring structure; rings must be 1 (got {})",
                        self.topo.kind, self.topo.rings
                    ));
                }
            }
            TopoKind::MultiRing => {
                if self.topo.rings == 0 {
                    return Err("multi-ring needs at least one ring".into());
                }
                if self.ring.enabled() {
                    if !self.ring.channels.is_multiple_of(self.topo.rings) {
                        return Err(format!(
                            "ring channels ({}) must split evenly across {} rings",
                            self.ring.channels, self.topo.rings
                        ));
                    }
                    if !(self.ring.channels / self.topo.rings).is_multiple_of(self.nodes) {
                        return Err(format!(
                            "per-ring channels ({}) must be a multiple of nodes ({})",
                            self.ring.channels / self.topo.rings,
                            self.nodes
                        ));
                    }
                }
            }
        }
        if self.topo.kind == TopoKind::StarOfRings
            && self.nodes > CLUSTER_MAX
            && !self.nodes.is_multiple_of(CLUSTER_MAX)
        {
            return Err(format!(
                "star-of-rings needs nodes ≤ {CLUSTER_MAX} or a multiple of {CLUSTER_MAX} (got {})",
                self.nodes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_paper() {
        let c = SysConfig::base(Arch::NetCache);
        assert_eq!(c.nodes, 16);
        assert_eq!(c.l1.size_bytes, 4096);
        assert_eq!(c.l2.size_bytes, 16384);
        assert_eq!(c.ring.capacity_bytes(), 32 * 1024);
        assert_eq!(c.mem.read_latency, 76);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ring_size_sweep() {
        assert_eq!(RingConfig::sized_kb(16).channels, 64);
        assert_eq!(RingConfig::sized_kb(32).channels, 128);
        assert_eq!(RingConfig::sized_kb(64).channels, 256);
        assert_eq!(RingConfig::sized_kb(0).channels, 0);
        assert!(!RingConfig::sized_kb(0).enabled());
        // 2^54 KB is 2^64 bytes: a wrapping size computation lands on 0
        // channels, a silently ring-less machine.
        assert!(RingConfig::sized_kb(1 << 54).enabled());
        assert!(RingConfig::sized_kb(u64::MAX).enabled());
    }

    #[test]
    fn rate_sweep_rescales_roundtrip() {
        let c = SysConfig::base(Arch::NetCache).with_rate_gbps(5.0);
        assert_eq!(c.ring.roundtrip, 80);
        let c = SysConfig::base(Arch::NetCache).with_rate_gbps(20.0);
        assert_eq!(c.ring.roundtrip, 20);
        // Capacity is invariant.
        assert_eq!(c.ring.capacity_bytes(), 32 * 1024);
    }

    #[test]
    fn validation_rejects_a_zero_ring_roundtrip() {
        // 400 / 1000 rounds to 0, and the ring's frame-phase arithmetic
        // takes every time modulo the roundtrip.
        let c = SysConfig::base(Arch::NetCache).with_rate_gbps(1000.0);
        assert_eq!(c.ring.roundtrip, 0);
        let e = c.validate().unwrap_err();
        assert!(e.contains("roundtrip"), "{e}");
        // Without a ring the roundtrip is never read.
        let mut no_ring = c;
        no_ring.ring.channels = 0;
        assert!(no_ring.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_channel_counts() {
        let mut c = SysConfig::base(Arch::NetCache);
        c.ring.channels = 100; // not a multiple of 16
        assert!(c.validate().is_err());
        c.ring.channels = 0; // disabled is fine
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_bounds_nodes_and_ring_size() {
        let c = SysConfig::base(Arch::NetCache);
        assert!(c.with_nodes(64).validate().is_ok());
        for nodes in [65, 128] {
            let e = c.with_nodes(nodes).validate().unwrap_err();
            assert!(e.contains("64-node limit"), "{e}");
        }
        assert!(c.with_ring_kb(MAX_RING_KB).validate().is_ok());
        for kb in [MAX_RING_KB + 64, 100_000_000, 1 << 54, u64::MAX] {
            let e = c.with_ring_kb(kb).validate().unwrap_err();
            assert!(e.contains("KB limit"), "{kb} KB: {e}");
        }
    }

    #[test]
    fn validation_names_unusable_node_geometry() {
        // Each of these machines would fail inside the engine: a
        // division by zero in the cache index, a cache or write-buffer
        // constructor assertion, a wrapped read stall, or a write-buffer
        // index that wraps in its `u8`.
        let base = SysConfig::base(Arch::NetCache).with_nodes(4);
        let with = |edit: fn(&mut SysConfig)| {
            let mut c = base;
            edit(&mut c);
            c
        };
        let cases = [
            (base.with_l2_kb(0), "L2 size (0 B)"),
            (with(|c| c.l1.size_bytes = 0), "L1 size (0 B)"),
            (with(|c| c.l1.block_bytes = 48), "L1 blocks"),
            (with(|c| c.l1.size_bytes = 1000), "L1 size (1000 B)"),
            (base.with_l2_kb(32 << 10), "KB L2 exceeds"),
            (with(|c| c.l1.size_bytes = 32 << 20), "KB L1 exceeds"),
            (with(|c| c.wb_entries = 0), "write-buffer entries"),
            (with(|c| c.wb_entries = 320), "1..=256 (got 320)"),
            (with(|c| c.l2_hit_latency = 0), "L2 hit latency"),
        ];
        for (c, needle) in cases {
            let e = c.validate().expect_err(needle);
            assert!(e.contains(needle), "{needle}: {e}");
        }
        // The bounds themselves are usable.
        let mut c = base.with_l2_kb(MAX_CACHE_BYTES / 1024);
        c.l1.size_bytes = MAX_CACHE_BYTES;
        c.wb_entries = MAX_WB_ENTRIES;
        c.l2_hit_latency = 1;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn arch_names() {
        assert_eq!(Arch::ALL.len(), 4);
        assert_eq!(Arch::NetCache.name(), "NetCache");
        assert_eq!(Arch::DmonI.name(), "DMON-I");
    }

    #[test]
    fn topology_validation_rules() {
        // Default is the paper's fabric and always valid.
        let c = SysConfig::base(Arch::NetCache);
        assert_eq!(c.topo, TopoConfig::single());
        // Multi-ring: ring count must be ≥1, divide channels, and leave a
        // per-ring channel count that is a multiple of nodes.
        let c = SysConfig::base(Arch::NetCache).with_topology(TopoKind::MultiRing);
        assert!(c.with_rings(0).validate().is_err());
        assert!(c.with_rings(2).validate().is_ok());
        assert!(c.with_rings(4).validate().is_ok());
        assert!(c.with_rings(3).validate().is_err(), "128 % 3 != 0");
        assert!(
            c.with_rings(16).validate().is_err(),
            "8 channels/ring not a multiple of 16 nodes"
        );
        // A disabled ring ignores the striping rules.
        let mut no_ring = SysConfig::netcache_no_ring().with_topology(TopoKind::MultiRing);
        no_ring.topo.rings = 3;
        assert!(no_ring.validate().is_ok());
        // --rings is meaningless outside multi-ring.
        assert!(SysConfig::base(Arch::NetCache)
            .with_rings(2)
            .validate()
            .is_err());
        let star = SysConfig::base(Arch::NetCache).with_topology(TopoKind::StarOfRings);
        assert!(star.with_rings(2).validate().is_err());
        // Star-of-rings cluster divisibility.
        assert!(star.validate().is_ok(), "16 nodes = one cluster");
        assert!(star.with_nodes(8).validate().is_ok());
        assert!(star.with_nodes(64).validate().is_ok());
        assert!(star.with_nodes(24).validate().is_err());
    }

    #[test]
    fn topo_kind_names_round_trip() {
        for k in TopoKind::ALL {
            assert_eq!(TopoKind::parse(k.name()), Some(k));
        }
        assert_eq!(TopoKind::parse("torus"), None);
    }

    #[test]
    fn builders_compose() {
        let c = SysConfig::base(Arch::DmonU)
            .with_l2_kb(64)
            .with_mem_latency(108)
            .with_nodes(8);
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.mem.read_latency, 108);
        assert_eq!(c.nodes, 8);
        assert!(c.validate().is_ok());
    }
}
