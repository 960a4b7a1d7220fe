//! Tag-array cache model for the per-node L1 and L2.
//!
//! The simulation is timing-only: a cache tracks *which* blocks are
//! present (tag + valid + dirty), never data values. Both private levels
//! are direct-mapped, as in the paper's node (§4.1): a block can live in
//! exactly one line, so a probe is one tag compare and a fill never has a
//! victim to choose.

use crate::addr::{Addr, BlockAddr};

/// Static geometry of a direct-mapped cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCfg {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Block (line) size in bytes; power of two.
    pub block_bytes: u64,
}

impl CacheCfg {
    /// Direct-mapped cache of `size_bytes` with `block_bytes` lines.
    pub fn direct(size_bytes: u64, block_bytes: u64) -> Self {
        Self {
            size_bytes,
            block_bytes,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        (self.size_bytes / self.block_bytes) as usize
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: BlockAddr, // full block number (generous, but simple and correct)
    valid: bool,
    dirty: bool,
}

/// A victim displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block number of the evicted line.
    pub block: BlockAddr,
    /// Whether the line was dirty (needs a writeback under DMON-I).
    pub dirty: bool,
}

/// A direct-mapped timing-model cache: one tag per line.
#[derive(Debug, Clone)]
pub struct Cache {
    // Probe-path constants, precomputed once at construction: the elided
    // fast path probes a cache once or twice per op.
    blk_shift: u32,
    index_mask: u64, // == lines-1 iff lines is a power of two, else u64::MAX
    lines: Vec<Line>,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(cfg: CacheCfg) -> Self {
        assert!(cfg.block_bytes.is_power_of_two());
        assert!(cfg.size_bytes.is_multiple_of(cfg.block_bytes));
        let lines = cfg.lines();
        Self {
            blk_shift: cfg.block_bytes.trailing_zeros(),
            index_mask: if lines.is_power_of_two() {
                lines as u64 - 1
            } else {
                u64::MAX
            },
            lines: vec![Line::default(); lines],
        }
    }

    /// The line `a`'s block maps to, and the block number.
    #[inline]
    fn index(&self, a: Addr) -> (usize, BlockAddr) {
        // block_bytes is asserted to be a power of two: shift, don't
        // divide (probes sit on the simulator's per-operation path).
        let b = a >> self.blk_shift;
        let i = if self.index_mask != u64::MAX {
            b & self.index_mask
        } else {
            b % self.lines.len() as u64
        };
        (i as usize, b)
    }

    /// The line holding `a`'s block, if it is resident.
    #[inline]
    fn resident(&mut self, a: Addr) -> Option<&mut Line> {
        let (i, b) = self.index(a);
        let line = &mut self.lines[i];
        (line.valid && line.tag == b).then_some(line)
    }

    /// Whether `a`'s block is resident. Mutates nothing.
    #[inline]
    pub fn contains(&self, a: Addr) -> bool {
        let (i, b) = self.index(a);
        let line = &self.lines[i];
        line.valid && line.tag == b
    }

    /// Inserts the block containing `a`, returning the victim if a valid
    /// line was displaced. `dirty` marks the new line (DMON-I exclusive
    /// fills; update protocols always fill clean). A block already
    /// resident (e.g. a racing fill) only merges `dirty`.
    pub fn fill(&mut self, a: Addr, dirty: bool) -> Option<Evicted> {
        let (i, b) = self.index(a);
        let line = &mut self.lines[i];
        if line.valid && line.tag == b {
            line.dirty |= dirty;
            return None;
        }
        let evicted = line.valid.then_some(Evicted {
            block: line.tag,
            dirty: line.dirty,
        });
        *line = Line {
            tag: b,
            valid: true,
            dirty,
        };
        evicted
    }

    /// Marks `a`'s block dirty if it is resident (DMON-I's owned line).
    /// Never allocates.
    pub fn mark_dirty(&mut self, a: Addr) {
        if let Some(line) = self.resident(a) {
            line.dirty = true;
        }
    }

    /// Invalidates the block containing `a`; returns the line's dirtiness
    /// if it was present.
    pub fn invalidate(&mut self, a: Addr) -> Option<bool> {
        self.resident(a).map(|line| {
            line.valid = false;
            line.dirty
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_cache() -> Cache {
        // 4 lines of 64 B.
        Cache::new(CacheCfg::direct(256, 64))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm_cache();
        assert!(!c.contains(0));
        assert_eq!(c.fill(0, false), None, "cold fill displaces nothing");
        assert!(c.contains(0));
        assert!(c.contains(63), "same block");
        assert!(!c.contains(64), "next block");
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = dm_cache();
        // Addresses 0 and 256 map to the same line (4 lines * 64 B).
        c.fill(0, false);
        let ev = c.fill(256, false).expect("conflict evicts");
        assert_eq!(ev.block, 0);
        assert!(!c.contains(0));
        assert!(c.contains(256));
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut c = dm_cache();
        c.fill(0, true);
        let ev = c.fill(256, false).unwrap();
        assert!(ev.dirty);
        let ev2 = c.fill(0, false).unwrap();
        assert_eq!(ev2.block, 4); // block 256/64
        assert!(!ev2.dirty);
    }

    #[test]
    fn mark_dirty_only_touches_present_blocks() {
        let mut c = dm_cache();
        c.mark_dirty(0);
        assert!(!c.contains(0), "absent: no allocate");
        c.fill(0, false);
        c.mark_dirty(0);
        let ev = c.fill(256, false).unwrap();
        assert!(ev.dirty, "marked dirty");
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = dm_cache();
        c.fill(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(0), None);
        assert!(!c.contains(0));
        c.fill(0, false);
        assert_eq!(c.invalidate(0), Some(false));
    }

    #[test]
    fn refill_of_present_block_does_not_evict() {
        let mut c = dm_cache();
        c.fill(0, false);
        assert!(c.fill(0, true).is_none());
        // dirty bit was merged in
        let ev = c.fill(256, false).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn paper_l1_geometry() {
        // 4 KB direct-mapped, 32 B blocks -> 128 lines: 128 consecutive
        // blocks all fit, and the 129th lands on block 0's line.
        let cfg = CacheCfg::direct(4 * 1024, 32);
        assert_eq!(cfg.lines(), 128);
        let mut c = Cache::new(cfg);
        for b in 0..128u64 {
            assert_eq!(c.fill(b * 32, false), None, "block {b}");
        }
        assert!((0..128u64).all(|b| c.contains(b * 32)));
        let ev = c.fill(128 * 32, false).expect("wraps onto line 0");
        assert_eq!(ev.block, 0);
    }

    #[test]
    fn non_power_of_two_line_count_maps_by_modulo() {
        // 48 KB of 64 B lines = 768 lines: blocks 0 and 768 collide.
        let mut c = Cache::new(CacheCfg::direct(48 * 1024, 64));
        c.fill(0, false);
        c.fill(767 * 64, false);
        assert_eq!(c.fill(768 * 64, false).map(|e| e.block), Some(0));
        assert!(c.contains(767 * 64));
    }
}
