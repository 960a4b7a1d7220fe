//! Exact-negative sharer tracking for coherence walks.
//!
//! Retiring one shared write probes every peer's L1 and L2: an update
//! protocol refreshes or invalidates their copies
//! (`apply_update_to_peers`), and DMON-I invalidates them. That is
//! ~2·(N−1) random tag-array touches per retirement, almost all of which
//! miss — most blocks live in one or two caches. [`SharerMap`] records,
//! per coherence block, the set of nodes that have **ever filled** it, and
//! the machine hands it to [`Protocol::retire_shared_write`], so all four
//! protocols walk only the peers it names.
//!
//! # Why skipping is exact
//!
//! A node's caches can hold a block only after a fill: an update
//! refreshes in place and never allocates. Every L2 fill notes its bit
//! here — the machine's `fill_caches` for misses, and DMON-I for its
//! write-ownership fill — and an L1-only fill copies a block the node's
//! L2 already holds, so its bit is already set. Bits are never cleared:
//! an eviction leaves a stale bit, which is a harmless extra probe (false
//! positive), never a missed one. Hence: bit clear ⇒ the peer's
//! `contains`/`invalidate` calls would all find nothing ⇒ eliding them
//! changes no state and no counter (`remote_l1_invalidates` counts only
//! lines that were present), and simulation results stay bit-for-bit
//! identical.
//!
//! [`Protocol::retire_shared_write`]: crate::proto::Protocol::retire_shared_write

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hasher for block numbers: one multiply per key.
///
/// std's `HashMap` picks a bucket from the hash's *low* bits, where a
/// Fibonacci product is weakest (strided block numbers would cluster), so
/// the product's well-mixed high half is rotated down. The default SipHash
/// would cost far more on this per-event path.
#[derive(Default)]
pub struct BlockHash(u64);

impl Hasher for BlockHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }
}

/// A std `HashMap` keyed by block number, hashed by [`BlockHash`].
pub type BlockMap<V> = HashMap<u64, V, BuildHasherDefault<BlockHash>>;

/// Map from coherence block to the set of nodes that ever filled it.
#[derive(Default)]
pub struct SharerMap(BlockMap<u64>);

impl SharerMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `node` filled `block`.
    #[inline]
    pub fn note(&mut self, node: usize, block: u64) {
        *self.0.entry(block).or_insert(0) |= 1 << node;
    }

    /// The set of nodes that may hold `block` (bit per node). Zero means
    /// certainly nowhere cached.
    #[inline]
    pub fn sharers(&self, block: u64) -> u64 {
        self.0.get(&block).copied().unwrap_or(0)
    }
}

/// The nodes of `mask` other than `writer`, in ascending order: the peers
/// a coherence walk visits.
pub(crate) fn peers(mask: u64, writer: usize) -> impl Iterator<Item = usize> {
    let mut m = mask & !(1u64 << writer);
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_accumulate_and_grow() {
        let mut m = SharerMap::new();
        assert_eq!(m.sharers(42), 0);
        m.note(3, 42);
        m.note(7, 42);
        assert_eq!(m.sharers(42), (1 << 3) | (1 << 7));
        // Force several growths; every earlier note must survive.
        for b in 0..10_000u64 {
            m.note((b % 16) as usize, b * 64 + 1);
        }
        assert_eq!(m.sharers(42), (1 << 3) | (1 << 7));
        for b in (0..10_000u64).step_by(997) {
            assert_eq!(m.sharers(b * 64 + 1), 1 << (b % 16));
        }
        assert_eq!(m.sharers(u64::MAX - 1), 0);
    }

    #[test]
    fn peers_ascend_skip_the_writer_and_reach_bit_63() {
        let mask = (1 << 0) | (1 << 5) | (1 << 9) | (1 << 63);
        assert_eq!(peers(mask, 5).collect::<Vec<_>>(), [0, 9, 63]);
        assert_eq!(peers(mask, 63).collect::<Vec<_>>(), [0, 5, 9]);
        assert_eq!(peers(mask, 2).collect::<Vec<_>>(), [0, 5, 9, 63]);
        assert_eq!(peers(1 << 4, 4).count(), 0);
        assert_eq!(peers(0, 0).count(), 0);
    }
}
