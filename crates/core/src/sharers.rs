//! Exact-negative sharer tracking for update broadcasts.
//!
//! Retiring one shared write under an update protocol probes every peer's
//! L1 and L2 (`apply_update_to_peers`): ~2·(N−1) random tag-array touches
//! per retirement, almost all of which miss — most blocks live in one or
//! two caches. [`SharerMap`] records, per coherence block, the set of
//! nodes that have **ever filled** it, so the broadcast walks only
//! plausible sharers.
//!
//! # Why skipping is exact
//!
//! A node's caches can hold a block only after a fill: an update
//! refreshes in place and never allocates, and every peer-visible fill in
//! the machine routes through one chokepoint that notes the bit here.
//! Bits are never cleared — an eviction leaves a stale bit, which is a
//! harmless extra probe (false positive), never a missed one. Hence: bit
//! clear ⇒ the peer's `contains`/`invalidate` would have returned
//! "absent" ⇒ eliding the probe changes no state and no counter, and
//! simulation results stay bit-for-bit identical.
//!
//! DMON-I is the one protocol that fills a cache outside the machine's
//! chokepoint (its own L2, on a write-ownership fetch), so it ignores the
//! mask and keeps its full walk.

/// Map from coherence block to the set of nodes that ever filled it.
///
/// Open-addressed with power-of-two capacity and linear probing; keys are
/// block addresses (block != `u64::MAX`, which marks an empty slot).
pub struct SharerMap {
    keys: Vec<u64>,
    masks: Vec<u64>,
    len: usize,
}

const EMPTY: u64 = u64::MAX;

impl SharerMap {
    /// An empty map (allocates lazily on first insert).
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            masks: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn slot_of(&self, block: u64) -> usize {
        // Fibonacci hashing: multiply spreads the (often contiguous)
        // block numbers, the mask folds into the table.
        let h = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.keys.len() - 1)
    }

    /// Records that `node` filled `block`.
    #[inline]
    pub fn note(&mut self, node: usize, block: u64) {
        debug_assert_ne!(block, EMPTY);
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mut i = self.slot_of(block);
        loop {
            if self.keys[i] == block {
                self.masks[i] |= 1 << node;
                return;
            }
            if self.keys[i] == EMPTY {
                self.keys[i] = block;
                self.masks[i] = 1 << node;
                self.len += 1;
                return;
            }
            i = (i + 1) & (self.keys.len() - 1);
        }
    }

    /// The set of nodes that may hold `block` (bit per node). Zero means
    /// certainly nowhere cached.
    #[inline]
    pub fn sharers(&self, block: u64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let mut i = self.slot_of(block);
        loop {
            if self.keys[i] == block {
                return self.masks[i];
            }
            if self.keys[i] == EMPTY {
                return 0;
            }
            i = (i + 1) & (self.keys.len() - 1);
        }
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(1024);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; cap]);
        let old_masks = std::mem::take(&mut self.masks);
        self.masks = vec![0; cap];
        for (k, m) in old_keys.into_iter().zip(old_masks) {
            if k == EMPTY {
                continue;
            }
            let mut i = self.slot_of(k);
            while self.keys[i] != EMPTY {
                i = (i + 1) & (self.keys.len() - 1);
            }
            self.keys[i] = k;
            self.masks[i] = m;
        }
    }
}

impl Default for SharerMap {
    fn default() -> Self {
        Self::new()
    }
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
}
