//! The simulated address space.
//!
//! Addresses are byte addresses in a flat 64-bit space. The workload
//! generators place data in two regions:
//!
//! * **private** — per-node data (stacks, locals, node-private arrays).
//!   Private accesses that miss in the caches are served by the node's
//!   local memory and never touch the network.
//! * **shared** — globally visible data, *interleaved across the memories
//!   at the block level* (paper §4.1): block `b` of shared space has home
//!   node `b mod p`.
//!
//! [`AddressMap`] bundles the geometry (block size, node count) with the
//! region layout so every component answers "who is home?", "is this
//! shared?", and "which block/word is this?" identically.

/// A byte address in the simulated machine.
pub type Addr = u64;

/// A block number: `addr / block_size`. Blocks are the coherence unit.
pub type BlockAddr = u64;

/// A node (processor/memory module) identifier, `0..p`.
pub type NodeId = usize;

/// Index of a word within a block.
pub type WordIdx = u32;

/// Base of the shared region. Everything at or above is shared data.
pub const SHARED_BASE: Addr = 1 << 40;

/// Size of each node's private region (1 GiB is far beyond any workload).
pub const PRIVATE_REGION: Addr = 1 << 30;

/// Bytes per machine word (the paper's update masks and memory timings are
/// word-granular; 32-bit words match the mid-90s systems simulated).
pub const WORD_BYTES: u64 = 4;

/// Geometry + layout: the one place address interpretation lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// Number of nodes `p`.
    pub nodes: usize,
    /// Coherence-block size in bytes (the L2/shared-cache block, 64 B).
    pub block_bytes: u64,
}

impl AddressMap {
    /// Creates a map; `block_bytes` must be a power of two.
    pub fn new(nodes: usize, block_bytes: u64) -> Self {
        assert!(nodes > 0);
        assert!(block_bytes.is_power_of_two(), "block size must be 2^k");
        Self { nodes, block_bytes }
    }

    /// Start of node `n`'s private region.
    #[inline]
    pub fn private_base(&self, n: NodeId) -> Addr {
        debug_assert!(n < self.nodes);
        (n as u64 + 1) * PRIVATE_REGION
    }

    /// True if `a` is in the shared region.
    #[inline]
    pub fn is_shared(&self, a: Addr) -> bool {
        a >= SHARED_BASE
    }

    /// The block number containing `a`.
    #[inline]
    pub fn block_of(&self, a: Addr) -> BlockAddr {
        // block_bytes is asserted a power of two; this sits on the
        // simulator's per-reference path, so shift instead of dividing.
        a >> self.block_bytes.trailing_zeros()
    }

    /// The word index of `a` within its block.
    #[inline]
    pub fn word_in_block(&self, a: Addr) -> WordIdx {
        ((a & (self.block_bytes - 1)) / WORD_BYTES) as WordIdx
    }

    /// Home node of `a`: owner of the up-to-date memory copy.
    ///
    /// Shared blocks are interleaved round-robin by block number; private
    /// addresses are homed at the owning node.
    #[inline]
    pub fn home_of(&self, a: Addr) -> NodeId {
        if self.is_shared(a) {
            (self.block_of(a) % self.nodes as u64) as NodeId
        } else {
            // Private regions: region k belongs to node k-1; region 0
            // (below PRIVATE_REGION) is treated as node 0 scratch.
            let region = (a / PRIVATE_REGION) as usize;
            region.saturating_sub(1).min(self.nodes - 1)
        }
    }
}

/// Convenience: byte address of element `i` of a shared array of
/// `elem_bytes`-byte elements starting at `base`.
#[inline]
pub fn elem(base: Addr, i: u64, elem_bytes: u64) -> Addr {
    base + i * elem_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map16() -> AddressMap {
        AddressMap::new(16, 64)
    }

    #[test]
    fn shared_region_detection() {
        let m = map16();
        assert!(!m.is_shared(0));
        assert!(!m.is_shared(m.private_base(7) + 100));
        assert!(m.is_shared(SHARED_BASE));
        assert!(m.is_shared(SHARED_BASE + 12345));
    }

    #[test]
    fn private_regions_do_not_overlap_shared() {
        let m = map16();
        for n in 0..16 {
            let base = m.private_base(n);
            assert!(base + PRIVATE_REGION <= SHARED_BASE);
            assert_eq!(m.home_of(base), n);
            assert_eq!(m.home_of(base + PRIVATE_REGION - 1), n);
        }
    }

    #[test]
    fn block_interleaving_round_robins_homes() {
        let m = map16();
        for b in 0..64u64 {
            let a = SHARED_BASE + b * 64;
            assert_eq!(m.home_of(a), ((SHARED_BASE / 64 + b) % 16) as usize);
        }
        // Consecutive blocks land on different homes.
        let h0 = m.home_of(SHARED_BASE);
        let h1 = m.home_of(SHARED_BASE + 64);
        assert_ne!(h0, h1);
        // Same block, any offset: same home.
        assert_eq!(m.home_of(SHARED_BASE + 1), m.home_of(SHARED_BASE + 63));
    }

    #[test]
    fn word_indexing() {
        let m = map16();
        assert_eq!(m.word_in_block(SHARED_BASE), 0);
        assert_eq!(m.word_in_block(SHARED_BASE + 4), 1);
        assert_eq!(m.word_in_block(SHARED_BASE + 63), 15);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_block_rejected() {
        AddressMap::new(16, 48);
    }
}
