//! The coalescing write buffer (paper §4.1).
//!
//! Writes cost the processor one cycle and land here; entries retire in
//! FIFO order as coherence transactions (updates, or ownership requests
//! under DMON-I). Consecutive writes to the same *block* coalesce into one
//! entry carrying a word mask, so an update message carries only the words
//! actually modified — the paper's key mechanism for keeping update traffic
//! affordable. The processor stalls only when the buffer is full (release
//! consistency), and reads are allowed to bypass buffered writes.

use crate::addr::{Addr, BlockAddr, WordIdx};
use std::collections::VecDeque;

/// One buffered (possibly coalesced) write: a block plus the mask of words
/// written. Blocks are at most 128 B in any configuration we simulate, so a
/// `u32` mask (32 words of 4 B) always suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEntry {
    /// Block number being written.
    pub block: BlockAddr,
    /// Representative byte address within the block (first write's target).
    pub addr: Addr,
    /// Bitmask of modified words within the block.
    pub mask: u32,
    /// True if the block is in the shared region (decided by the caller at
    /// push time so retirement needs no address map).
    pub shared: bool,
}

impl WriteEntry {
    /// Number of distinct words modified — the payload size of the update
    /// message this entry will generate.
    #[inline]
    pub fn words(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Outcome of pushing a write into the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Merged into an existing entry for the same block.
    Coalesced,
    /// Allocated a fresh entry.
    Allocated,
    /// Buffer full: the processor must stall until an entry retires.
    Full,
}

/// FIFO coalescing write buffer with a fixed entry count.
#[derive(Debug, Clone)]
pub struct CoalescingWriteBuffer {
    entries: VecDeque<WriteEntry>,
    capacity: usize,
    // statistics
    pushes: u64,
    coalesced: u64,
    full_events: u64,
}

impl CoalescingWriteBuffer {
    /// Creates a buffer with room for `capacity` block entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            pushes: 0,
            coalesced: 0,
            full_events: 0,
        }
    }

    /// Attempts to buffer a write of the word at `addr` (block `block`,
    /// word index `word`). Coalesces with *any* existing entry for the same
    /// block, per the paper ("consecutive writes to the same cache block
    /// are coalesced").
    pub fn push(
        &mut self,
        block: BlockAddr,
        addr: Addr,
        word: WordIdx,
        shared: bool,
    ) -> PushOutcome {
        debug_assert!(word < 32);
        self.pushes += 1;
        for e in self.entries.iter_mut() {
            if e.block == block {
                e.mask |= 1 << word;
                self.coalesced += 1;
                return PushOutcome::Coalesced;
            }
        }
        if self.entries.len() == self.capacity {
            self.pushes -= 1; // not accepted
            self.full_events += 1;
            return PushOutcome::Full;
        }
        self.entries.push_back(WriteEntry {
            block,
            addr,
            mask: 1 << word,
            shared,
        });
        PushOutcome::Allocated
    }

    /// Oldest entry, if any (peek; retirement is [`pop`](Self::pop)).
    pub fn front(&self) -> Option<&WriteEntry> {
        self.entries.front()
    }

    /// Retires the oldest entry.
    pub fn pop(&mut self) -> Option<WriteEntry> {
        self.entries.pop_front()
    }

    /// True if a write for `block` is currently buffered (used to let reads
    /// forward from the buffer).
    pub fn holds_block(&self, block: BlockAddr) -> bool {
        self.entries.iter().any(|e| e.block == block)
    }

    /// Index of the entry for `block`, if one is buffered. Indices stay
    /// valid until the next [`pop`](Self::pop); pushes never move
    /// existing entries. Batch retirement probes once and then commits
    /// through [`coalesce_at`](Self::coalesce_at) without rescanning.
    #[inline]
    pub fn find_block(&self, block: BlockAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.block == block)
    }

    /// Batched coalesce: merges `count` writes covering the words in
    /// `mask_bits` into the entry at `idx` (from
    /// [`find_block`](Self::find_block)), with no scan. Equivalent to
    /// `count` scalar [`push`](Self::push) calls that all coalesce —
    /// same mask growth, same `pushes`/`coalesced` accounting. The
    /// engine's nest path uses this to retire a strided write slot with
    /// one buffer probe per block instead of one per element.
    ///
    /// # Panics
    /// In debug builds, if `idx` does not hold `block`.
    #[inline]
    pub fn coalesce_at(&mut self, idx: usize, block: BlockAddr, mask_bits: u32, count: u64) {
        let e = &mut self.entries[idx];
        debug_assert_eq!(e.block, block, "stale write-buffer index");
        e.mask |= mask_bits;
        self.pushes += count;
        self.coalesced += count;
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no writes are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if another distinct-block write would stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Free entry slots remaining.
    pub fn room(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Total writes accepted.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Writes that merged into an existing entry.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Times a push found the buffer full.
    pub fn full_events(&self) -> u64 {
        self.full_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_same_block() {
        let mut wb = CoalescingWriteBuffer::new(4);
        assert_eq!(wb.push(10, 640, 0, true), PushOutcome::Allocated);
        assert_eq!(wb.push(10, 644, 1, true), PushOutcome::Coalesced);
        assert_eq!(wb.push(10, 640, 0, true), PushOutcome::Coalesced);
        assert_eq!(wb.len(), 1);
        let e = wb.front().unwrap();
        assert_eq!(e.words(), 2);
        assert_eq!(e.mask, 0b11);
    }

    #[test]
    fn distinct_blocks_allocate() {
        let mut wb = CoalescingWriteBuffer::new(2);
        wb.push(1, 64, 0, true);
        wb.push(2, 128, 0, true);
        assert!(wb.is_full());
        assert_eq!(wb.push(3, 192, 0, true), PushOutcome::Full);
        // Same-block write still coalesces even when full.
        assert_eq!(wb.push(2, 132, 1, true), PushOutcome::Coalesced);
        assert_eq!(wb.full_events(), 1);
    }

    #[test]
    fn fifo_retirement_order() {
        let mut wb = CoalescingWriteBuffer::new(4);
        wb.push(5, 320, 0, false);
        wb.push(9, 576, 3, true);
        let a = wb.pop().unwrap();
        assert_eq!(a.block, 5);
        assert!(!a.shared);
        let b = wb.pop().unwrap();
        assert_eq!(b.block, 9);
        assert_eq!(b.mask, 1 << 3);
        assert!(wb.pop().is_none());
    }

    #[test]
    fn holds_block_for_read_bypass() {
        let mut wb = CoalescingWriteBuffer::new(4);
        wb.push(7, 448, 2, true);
        assert!(wb.holds_block(7));
        assert!(!wb.holds_block(8));
        wb.pop();
        assert!(!wb.holds_block(7));
    }

    #[test]
    fn coalesce_at_matches_scalar_pushes() {
        let mut bulk = CoalescingWriteBuffer::new(4);
        let mut scalar = CoalescingWriteBuffer::new(4);
        for wb in [&mut bulk, &mut scalar] {
            wb.push(5, 320, 0, true);
            wb.push(3, 192, 0, true);
        }
        // Words 1..=4 of block 3, one write each.
        let idx = bulk.find_block(3).expect("block 3 is buffered");
        assert_eq!(idx, 1);
        bulk.coalesce_at(idx, 3, 0b11110, 4);
        for w in 1..=4u32 {
            assert_eq!(
                scalar.push(3, 192 + w as u64 * 4, w, true),
                PushOutcome::Coalesced
            );
        }
        assert_eq!(bulk.pop(), scalar.pop());
        assert_eq!(bulk.front(), scalar.front());
        assert_eq!(bulk.front().unwrap().mask, 0b11111);
        assert_eq!(bulk.pushes(), scalar.pushes());
        assert_eq!(bulk.coalesced(), scalar.coalesced());
        assert_eq!((bulk.pushes(), bulk.coalesced()), (6, 4));
        // Absent block: nothing to coalesce into.
        assert_eq!(bulk.find_block(9), None);
    }

    #[test]
    fn stats_track_coalescing_rate() {
        let mut wb = CoalescingWriteBuffer::new(16);
        for w in 0..16 {
            wb.push(3, 192 + w * 4, w as WordIdx, true);
        }
        assert_eq!(wb.pushes(), 16);
        assert_eq!(wb.coalesced(), 15);
        assert_eq!(wb.front().unwrap().words(), 16);
    }
}
