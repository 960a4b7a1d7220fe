//! The operation vocabulary the workload front-end feeds the simulator.
//!
//! Two layers. The scalar [`Op`] is the unit of simulated work: one
//! compute cycle bundle, one data reference, one sync operation. The
//! compressed [`MacroOp`] is the unit of *transport*: a scalar op, or a
//! loop nest ([`Nest`]) that stands for a whole regular loop instead of
//! materializing every element, and the engine retires a nest with a
//! handful of block-granular probes. [`MacroOp::expand`] defines the
//! scalar meaning of every macro-op; everything downstream (the stream's
//! `Iterator` impl, the engine's fast path) must agree with it
//! bit-for-bit.

use std::cell::RefCell;

use memsys::Addr;

/// Lock identifier (application-scoped).
pub type LockId = u32;

/// Barrier identifier (application-scoped).
pub type BarrierId = u32;

/// One event in a processor's program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` cycles of local computation (instructions that hit in the L1
    /// I-cache and reference no data — the paper charges 1 pcycle each).
    Compute(u32),
    /// A data read of the word at the given byte address. Blocking: the
    /// processor stalls until the read is satisfied.
    Read(Addr),
    /// A data write of the word at the given byte address. Costs 1 cycle
    /// into the coalescing write buffer; stalls only when the buffer is
    /// full.
    Write(Addr),
    /// Acquire the given lock (release consistency: all prior writes must
    /// be globally performed first).
    Acquire(LockId),
    /// Release the given lock.
    Release(LockId),
    /// Wait at the given barrier until all processors arrive.
    Barrier(BarrierId),
}

impl Op {
    /// True for synchronization operations.
    pub fn is_sync(&self) -> bool {
        matches!(self, Op::Acquire(_) | Op::Release(_) | Op::Barrier(_))
    }

    /// True for data references.
    pub fn is_ref(&self) -> bool {
        matches!(self, Op::Read(_) | Op::Write(_))
    }
}

/// Maximum number of body slots in a [`Nest`] (the widest user is the
/// 3-D 7-point stencil: seven reads, a compute, a write).
pub const MAX_SLOTS: usize = 12;

/// One statement of a [`Nest`] body, instantiated once per iteration.
///
/// Affine slots reference `base + i * stride` at iteration `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `Op::Compute(cost)` every iteration.
    Compute(u32),
    /// `Op::Read(base + i * stride)`.
    Read {
        /// Address at iteration 0.
        base: Addr,
        /// Byte step per iteration.
        stride: u64,
    },
    /// `Op::Write(base + i * stride)`.
    Write {
        /// Address at iteration 0.
        base: Addr,
        /// Byte step per iteration.
        stride: u64,
    },
    /// `Op::Write(base + i * stride)` only on iterations whose bit is set
    /// in the nest's `wmask`; otherwise the slot emits nothing.
    WriteIf {
        /// Address at iteration 0.
        base: Addr,
        /// Byte step per iteration.
        stride: u64,
    },
}

impl Slot {
    /// The op this slot emits at iteration `i`, if any.
    #[inline]
    pub fn op_at(&self, i: u64, wmask: u64) -> Option<Op> {
        match *self {
            Slot::Compute(c) => Some(Op::Compute(c)),
            Slot::Read { base, stride } => Some(Op::Read(base + i * stride)),
            Slot::Write { base, stride } => Some(Op::Write(base + i * stride)),
            Slot::WriteIf { base, stride } => {
                debug_assert!(i < 64);
                ((wmask >> i) & 1 == 1).then(|| Op::Write(base + i * stride))
            }
        }
    }
}

/// A counted loop template: up to [`MAX_SLOTS`] body slots executed in
/// order for each of `n` iterations. This is the macro-op that carries
/// the *loop* instead of its elements: the inner loops of the regular
/// kernels (wavefront, SOR, elimination, ...) interleave reads, compute,
/// and writes per element, and a nest reproduces that exact interleaved
/// scalar order while the engine retires whole block-segments of it at
/// once. A one-slot nest is a flat affine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nest {
    n: u64,
    wmask: u64,
    len: u8,
    slots: [Slot; MAX_SLOTS],
}

impl Nest {
    /// An empty nest of `n > 0` iterations. Push slots with
    /// [`read`](Self::read) / [`write`](Self::write) /
    /// [`write_if`](Self::write_if) / [`compute`](Self::compute).
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "empty nest");
        Self {
            n,
            wmask: 0,
            len: 0,
            slots: [Slot::Compute(0); MAX_SLOTS],
        }
    }

    fn push(&mut self, s: Slot) -> &mut Self {
        assert!((self.len as usize) < MAX_SLOTS, "nest body too long");
        self.slots[self.len as usize] = s;
        self.len += 1;
        self
    }

    /// Appends a compute slot of `cost > 0` cycles.
    pub fn compute(&mut self, cost: u32) -> &mut Self {
        assert!(cost > 0, "zero-cost compute slot");
        self.push(Slot::Compute(cost))
    }

    /// Appends an affine read slot.
    pub fn read(&mut self, base: Addr, stride: u64) -> &mut Self {
        self.push(Slot::Read { base, stride })
    }

    /// Appends an affine write slot.
    pub fn write(&mut self, base: Addr, stride: u64) -> &mut Self {
        self.push(Slot::Write { base, stride })
    }

    /// Appends a masked write slot; set the per-iteration gate bits with
    /// [`set_wmask`](Self::set_wmask). Masked slots cap the nest at 64
    /// iterations (one gate bit per iteration).
    pub fn write_if(&mut self, base: Addr, stride: u64) -> &mut Self {
        assert!(
            self.n <= 64,
            "masked writes need one wmask bit per iteration"
        );
        self.push(Slot::WriteIf { base, stride })
    }

    /// Sets the gate bits for `WriteIf` slots (bit `i` = iteration `i`
    /// writes).
    pub fn set_wmask(&mut self, m: u64) -> &mut Self {
        self.wmask = m;
        self
    }

    /// Iteration count.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The `WriteIf` gate bits.
    #[inline]
    pub fn wmask(&self) -> u64 {
        self.wmask
    }

    /// The body slots, in emission order.
    #[inline]
    pub fn slots(&self) -> &[Slot] {
        &self.slots[..self.len as usize]
    }

    /// Expands the slots `from_slot..` of iteration `i` into `out`,
    /// preserving emission order.
    #[inline]
    pub fn expand_iter_into(&self, i: u64, from_slot: usize, out: &mut Vec<Op>) {
        for s in &self.slots()[from_slot..] {
            if let Some(op) = s.op_at(i, self.wmask) {
                out.push(op);
            }
        }
    }

    /// Total scalar ops this nest expands to.
    pub fn ops_len(&self) -> u64 {
        let masked = self
            .slots()
            .iter()
            .filter(|s| matches!(s, Slot::WriteIf { .. }))
            .count() as u64;
        let unmasked = self.slots().len() as u64 - masked;
        let live_bits = if self.n >= 64 {
            self.wmask.count_ones() as u64
        } else {
            (self.wmask & ((1u64 << self.n) - 1)).count_ones() as u64
        };
        self.n * unmasked + live_bits * masked
    }
}

/// A compressed element of a processor's program order. Every macro-op
/// denotes the exact scalar sequence [`expand`](Self::expand) produces;
/// generators use [`Nest`](Self::Nest) for their regular loops (a flat
/// affine run is a one-slot nest) and [`One`](Self::One) for sync and
/// irregular references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacroOp {
    /// A single scalar op.
    One(Op),
    /// A counted loop template (boxed: nests are rarer and much larger
    /// than a scalar op, which keeps a macro-op at 16 bytes).
    Nest(Box<Nest>),
}

impl MacroOp {
    /// Number of expansion steps (loop iterations; 1 for `One`). The
    /// stream cursor counts iterations in `0..total_iters()`.
    #[inline]
    pub fn total_iters(&self) -> u64 {
        match self {
            MacroOp::One(_) => 1,
            MacroOp::Nest(nest) => nest.n,
        }
    }

    /// Total scalar ops this macro-op expands to.
    pub fn ops_len(&self) -> u64 {
        match self {
            MacroOp::One(_) => 1,
            MacroOp::Nest(nest) => nest.ops_len(),
        }
    }

    /// The defining scalar expansion, in program order.
    pub fn expand(&self) -> Expand<'_> {
        Expand {
            m: self,
            iter: 0,
            slot: 0,
        }
    }
}

/// Iterator over a macro-op's scalar expansion (see [`MacroOp::expand`]).
pub struct Expand<'a> {
    m: &'a MacroOp,
    iter: u64,
    slot: usize,
}

impl Iterator for Expand<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        match self.m {
            MacroOp::One(op) => {
                if self.iter == 0 {
                    self.iter = 1;
                    Some(*op)
                } else {
                    None
                }
            }
            MacroOp::Nest(nest) => loop {
                if self.iter >= nest.n {
                    return None;
                }
                let slots = nest.slots();
                if self.slot >= slots.len() {
                    self.slot = 0;
                    self.iter += 1;
                    continue;
                }
                let s = slots[self.slot];
                self.slot += 1;
                if let Some(op) = s.op_at(self.iter, nest.wmask) {
                    return Some(op);
                }
            },
        }
    }
}

/// A chunk-at-a-time producer of macro-ops feeding an [`OpStream`].
///
/// Fill-in-place: the stream hands over its (cleared) refill buffer, so
/// chunk capacity is recycled across phases and the generator performs no
/// per-phase allocation. The source is consulted only when the buffer
/// drains — once per *phase*, not per op.
pub trait MacroSource: Send {
    /// Appends the next phase's macro-ops into `buf` (handed over
    /// cleared); returns false when the program has ended. May leave
    /// `buf` empty (a phase that emits nothing).
    fn next_chunk(&mut self, buf: &mut Vec<MacroOp>) -> bool;
}

/// A per-processor operation stream, fed one of two ways: a materialized
/// op vector ([`from_ops`](Self::from_ops)) or a [`MacroSource`] drawn on
/// demand ([`from_macro_source`](Self::from_macro_source)).
///
/// Internally a two-level cursor over the macro-op layer. The *macro
/// buffer* (`mbuf`) holds the current chunk with a position and an
/// iteration index into the current macro-op; the *spill buffer* (`sbuf`)
/// holds already-scalarized ops (a nest iteration tail, or a whole
/// `from_ops` program) and is always served first. Iterating the stream
/// yields exactly the concatenation of every macro-op's
/// [`MacroOp::expand`], in order.
///
/// The engine's fast path walks the macro layer directly
/// ([`spill`](Self::spill) / [`macro_run`](Self::macro_run) /
/// [`consume_iters`](Self::consume_iters) and friends); everything else
/// treats the stream as an `Iterator<Item = Op>`.
pub struct OpStream {
    mbuf: Vec<MacroOp>,
    mpos: usize,
    /// Iterations of `mbuf[mpos]` already consumed.
    iter: u64,
    sbuf: Vec<Op>,
    spos: usize,
    source: Option<Box<dyn MacroSource>>,
    /// Built by [`from_ops`](Self::from_ops): `sbuf` is the whole
    /// program, kept for [`spare_ops`] when the stream is dropped.
    materialized: bool,
}

impl OpStream {
    /// A stream over a fully materialized op vector (replays, tests).
    /// Dropped, it leaves `ops`' memory for the next
    /// [`trace::load`](crate::trace::load) on this thread.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        Self {
            mbuf: Vec::new(),
            mpos: 0,
            iter: 0,
            sbuf: ops,
            spos: 0,
            source: None,
            materialized: true,
        }
    }

    /// A stream drawing macro-op chunks from `source` on demand.
    pub fn from_macro_source(source: impl MacroSource + 'static) -> Self {
        Self {
            mbuf: Vec::new(),
            mpos: 0,
            iter: 0,
            sbuf: Vec::new(),
            spos: 0,
            source: Some(Box::new(source)),
            materialized: false,
        }
    }

    /// Re-wraps this stream as a scalar-only stream: every macro-op is
    /// expanded to `One` ops at the source boundary. The expansion oracle
    /// for differential tests — the engine sees the identical op sequence
    /// with the compression stripped.
    pub fn scalarized(self) -> Self {
        struct Scalarize(OpStream);
        impl MacroSource for Scalarize {
            fn next_chunk(&mut self, buf: &mut Vec<MacroOp>) -> bool {
                buf.extend(self.0.by_ref().take(1024).map(MacroOp::One));
                !buf.is_empty()
            }
        }
        Self::from_macro_source(Scalarize(self))
    }

    /// Advances `iter` by one on `mbuf[mpos]` (which has `n` iterations),
    /// stepping to the next macro-op when the last iteration is consumed.
    #[inline]
    fn bump_iter(&mut self, n: u64) {
        self.iter += 1;
        if self.iter >= n {
            self.mpos += 1;
            self.iter = 0;
        }
    }

    /// Ensures the macro cursor points at a macro-op, refilling from the
    /// source as needed. `None` means the stream has ended (the spill
    /// buffer may still hold ops).
    #[inline]
    fn cur(&mut self) -> Option<&MacroOp> {
        while self.mpos >= self.mbuf.len() {
            let src = self.source.as_mut()?;
            self.mbuf.clear();
            self.mpos = 0;
            self.iter = 0;
            if !src.next_chunk(&mut self.mbuf) {
                self.source = None;
                self.mbuf.clear();
                return None;
            }
        }
        Some(&self.mbuf[self.mpos])
    }

    // --- engine-facing macro cursor API ------------------------------

    /// Already-scalarized ops awaiting consumption; always ordered before
    /// the macro cursor. Does not refill.
    #[inline]
    pub fn spill(&self) -> &[Op] {
        &self.sbuf[self.spos..]
    }

    /// Consumes the first `n` ops of [`spill`](Self::spill).
    #[inline]
    pub fn consume_spill(&mut self, n: usize) {
        debug_assert!(self.spos + n <= self.sbuf.len(), "consumed past spill");
        self.spos += n;
    }

    /// The remaining macro-ops of the current chunk, refilling first if
    /// it is drained. Empty only when the stream has ended. The leading
    /// macro-op may be partially consumed — see
    /// [`cur_iter`](Self::cur_iter).
    #[inline]
    pub fn macro_run(&mut self) -> &[MacroOp] {
        if self.cur().is_none() {
            return &[];
        }
        &self.mbuf[self.mpos..]
    }

    /// Iterations of the current (leading) macro-op already consumed.
    #[inline]
    pub fn cur_iter(&self) -> u64 {
        self.iter
    }

    /// Consumes `k` leading macro-ops, all of which must be
    /// [`MacroOp::One`] (the engine's scalar fast loop).
    #[inline]
    pub fn consume_ones(&mut self, k: usize) {
        debug_assert!(self.iter == 0);
        debug_assert!(self.mpos + k <= self.mbuf.len());
        debug_assert!(self.mbuf[self.mpos..self.mpos + k]
            .iter()
            .all(|m| matches!(m, MacroOp::One(_))));
        self.mpos += k;
    }

    /// Consumes `k` iterations of the current macro-op, stepping past it
    /// when fully consumed.
    #[inline]
    pub fn consume_iters(&mut self, k: u64) {
        self.iter += k;
        let n = self.mbuf[self.mpos].total_iters();
        debug_assert!(self.iter <= n, "consumed past macro-op");
        if self.iter >= n {
            self.mpos += 1;
            self.iter = 0;
        }
    }

    /// Scalarizes the slots `from_slot..` of the current nest iteration
    /// into the (drained) spill buffer and advances the iteration cursor.
    /// The engine uses this when it must abandon a nest iteration midway
    /// (a miss or deadline bail): the unretired tail goes through the
    /// general per-op path in exact program order.
    pub fn spill_iter_tail(&mut self, from_slot: usize) {
        debug_assert!(self.spos >= self.sbuf.len(), "spill not drained");
        self.sbuf.clear();
        self.spos = 0;
        let iter = self.iter;
        let n = match &self.mbuf[self.mpos] {
            MacroOp::Nest(nest) => {
                nest.expand_iter_into(iter, from_slot, &mut self.sbuf);
                nest.n
            }
            m => unreachable!("spill_iter_tail on non-nest {m:?}"),
        };
        self.bump_iter(n);
    }
}

impl Iterator for OpStream {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        loop {
            if let Some(&op) = self.sbuf.get(self.spos) {
                self.spos += 1;
                return Some(op);
            }
            self.cur()?;
            let iter = self.iter;
            match &self.mbuf[self.mpos] {
                MacroOp::One(op) => {
                    let op = *op;
                    self.mpos += 1;
                    return Some(op);
                }
                MacroOp::Nest(nest) => {
                    // Scalarize one iteration into the spill buffer and
                    // serve from there (it may be empty: all-masked).
                    self.sbuf.clear();
                    self.spos = 0;
                    nest.expand_iter_into(iter, 0, &mut self.sbuf);
                    let n = nest.n;
                    self.bump_iter(n);
                }
            }
        }
    }
}

/// The most op-vector capacity one thread keeps for [`spare_ops`]:
/// 64 MiB, four times the largest of the replays netbench runs (cg at 16
/// nodes and scale 0.1). What a larger replay drops beyond it is freed.
const SPARE_BYTES: usize = 64 << 20;

thread_local! {
    /// Op vectors of this thread's dropped materialized streams.
    static SPARE: RefCell<Vec<Vec<Op>>> = const { RefCell::new(Vec::new()) };
}

/// An empty op vector for a materialized stream: the memory of one
/// dropped earlier on this thread, if any. A thread that replays trace
/// after trace refills resident pages instead of faulting fresh ones
/// in for every replay, whatever the C allocator did with its heap.
pub(crate) fn spare_ops() -> Vec<Op> {
    SPARE
        .try_with(|spare| spare.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

impl Drop for OpStream {
    /// Keeps a materialized stream's op vector for `spare_ops` while the
    /// thread holds at most `SPARE_BYTES` of them.
    fn drop(&mut self) {
        if !self.materialized || self.sbuf.capacity() == 0 {
            return;
        }
        let mut ops = std::mem::take(&mut self.sbuf);
        ops.clear();
        // During thread teardown the list may be gone; `ops` is freed.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let held: usize = spare.iter().map(Vec::capacity).sum();
            if (held + ops.capacity()) * std::mem::size_of::<Op>() <= SPARE_BYTES {
                spare.push(ops);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`MacroSource`] emitting a fixed schedule of macro chunks, some
    /// of which may be empty (phases that emit nothing).
    struct MacroPhased(std::vec::IntoIter<Vec<MacroOp>>);

    impl MacroSource for MacroPhased {
        fn next_chunk(&mut self, buf: &mut Vec<MacroOp>) -> bool {
            match self.0.next() {
                Some(phase) => {
                    buf.extend(phase);
                    true
                }
                None => false,
            }
        }
    }

    fn phased(phases: Vec<Vec<MacroOp>>) -> OpStream {
        OpStream::from_macro_source(MacroPhased(phases.into_iter()))
    }

    #[test]
    fn stream_from_ops_iterates_in_order() {
        let ops = vec![Op::Compute(1), Op::Read(64), Op::Barrier(0)];
        let got: Vec<Op> = OpStream::from_ops(ops.clone()).collect();
        assert_eq!(got, ops);
    }

    #[test]
    fn empty_chunks_are_skipped() {
        let one = |op| vec![MacroOp::One(op)];
        let got: Vec<Op> = phased(vec![
            Vec::new(), // phases that emit nothing
            one(Op::Compute(7)),
            Vec::new(),
            one(Op::Barrier(1)),
        ])
        .collect();
        assert_eq!(got, vec![Op::Compute(7), Op::Barrier(1)]);
        // The engine's cursor refills across an empty phase too, and
        // stays empty once the source has ended.
        let mut s = phased(vec![Vec::new(), one(Op::Compute(7))]);
        assert_eq!(s.macro_run(), &[MacroOp::One(Op::Compute(7))]);
        s.consume_ones(1);
        assert!(s.macro_run().is_empty());
    }

    #[test]
    fn exhausted_stream_stays_exhausted() {
        let mut s = OpStream::from_ops(vec![Op::Compute(1)]);
        assert_eq!(s.next(), Some(Op::Compute(1)));
        assert_eq!(s.next(), None);
        assert_eq!(s.next(), None);
    }

    #[test]
    fn spill_then_next_walks_a_materialized_stream_once() {
        // The engine's walk of a `from_ops` (replay) stream: partial
        // consumes of the spill interleaved with next() visit every op
        // exactly once, in order.
        let ops: Vec<Op> = (0..3000u64).map(|i| Op::Read(i * 64)).collect();
        let mut s = OpStream::from_ops(ops.clone());
        let mut got = Vec::new();
        while !s.spill().is_empty() {
            let run = s.spill();
            let take = (run.len() / 2).max(1);
            got.extend_from_slice(&run[..take]);
            s.consume_spill(take);
            got.extend(s.next());
        }
        assert_eq!(got, ops);
        assert!(s.macro_run().is_empty());
        assert_eq!(s.next(), None);
    }

    /// A one-slot nest of `n` iterations: the loop form of a flat run.
    fn one_slot(n: u64, slot: impl FnOnce(&mut Nest) -> &mut Nest) -> MacroOp {
        let mut nest = Nest::new(n);
        slot(&mut nest);
        MacroOp::Nest(Box::new(nest))
    }

    fn sample_macros() -> Vec<MacroOp> {
        let mut nest = Nest::new(5);
        nest.read(1 << 20, 4)
            .read((1 << 21) + 8, 64)
            .compute(3)
            .write_if(1 << 22, 4);
        nest.set_wmask(0b10110);
        let mut tail = Nest::new(3);
        tail.compute(2).write(4096, 8);
        vec![
            MacroOp::One(Op::Acquire(1)),
            one_slot(3, |b| b.compute(4)),
            one_slot(6, |b| b.read(640, 4)),
            MacroOp::Nest(Box::new(nest)),
            one_slot(4, |b| b.write(1 << 23, 16)),
            MacroOp::Nest(Box::new(tail)),
            MacroOp::One(Op::Release(1)),
        ]
    }

    #[test]
    fn stream_next_matches_expand_oracle() {
        let macros = sample_macros();
        let oracle: Vec<Op> = macros.iter().flat_map(|m| m.expand()).collect();
        assert_eq!(
            oracle.len() as u64,
            macros.iter().map(|m| m.ops_len()).sum::<u64>()
        );
        // Via the macro source (single chunk).
        let got: Vec<Op> = phased(vec![macros.clone()]).collect();
        assert_eq!(got, oracle);
        // Split across chunks at every boundary.
        for split in 0..=macros.len() {
            let (a, b) = macros.split_at(split);
            let got: Vec<Op> = phased(vec![a.to_vec(), b.to_vec()]).collect();
            assert_eq!(got, oracle, "split at {split}");
        }
        // And scalarized() is an identity on the op sequence.
        let got: Vec<Op> = phased(vec![macros]).scalarized().collect();
        assert_eq!(got, oracle);
    }

    #[test]
    fn run_expansion_visits_exact_affine_addresses() {
        // Property: a one-slot read or write nest expands to exactly
        // base + i*stride for i in 0..n, with no wraparound, for a spread
        // of (base, stride, n) drawn from a deterministic generator.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let base = rng() % (1 << 45);
            let stride = [0u64, 4, 8, 64, 4096][rng() as usize % 5];
            let n = 1 + rng() % 300;
            let reads = one_slot(n, |b| b.read(base, stride));
            let writes = one_slot(n, |b| b.write(base, stride));
            let got_r: Vec<Op> = reads.expand().collect();
            let got_w: Vec<Op> = writes.expand().collect();
            assert_eq!(got_r.len() as u64, n);
            assert_eq!(got_w.len() as u64, n);
            assert_eq!((reads.ops_len(), writes.ops_len()), (n, n));
            for (i, (r, w)) in got_r.iter().zip(&got_w).enumerate() {
                let a = base
                    .checked_add((i as u64).checked_mul(stride).unwrap())
                    .expect("no wraparound");
                assert_eq!(*r, Op::Read(a));
                assert_eq!(*w, Op::Write(a));
            }
        }
    }

    #[test]
    fn nest_masked_writes_follow_wmask() {
        let mut nest = Nest::new(4);
        nest.read(0, 4).write_if(1024, 4);
        nest.set_wmask(0b0101);
        let got: Vec<Op> = MacroOp::Nest(Box::new(nest)).expand().collect();
        assert_eq!(
            got,
            vec![
                Op::Read(0),
                Op::Write(1024),
                Op::Read(4),
                Op::Read(8),
                Op::Write(1032),
                Op::Read(12),
            ]
        );
    }

    #[test]
    fn macro_cursor_crosses_chunk_refill_mid_run() {
        // Start a one-slot nest via next(), leaving the cursor mid-loop:
        // the engine's cursor resumes at that iteration, and consuming
        // the rest refills across the chunk boundary.
        let read = one_slot(5, |b| b.read(0, 4));
        let write = one_slot(4, |b| b.write(1024, 8));
        let mut s = phased(vec![vec![read.clone()], vec![write.clone()]]);
        assert_eq!(s.next(), Some(Op::Read(0)));
        assert_eq!(s.next(), Some(Op::Read(4)));
        assert_eq!(s.macro_run(), &[read]);
        assert_eq!(s.cur_iter(), 2);
        s.consume_iters(2);
        assert_eq!(s.next(), Some(Op::Read(16)));
        // Drained: the next look crosses into the second chunk.
        assert_eq!(s.macro_run(), &[write]);
        assert_eq!(s.cur_iter(), 0);
        s.consume_iters(4);
        assert!(s.macro_run().is_empty());
        assert_eq!(s.next(), None);
    }

    #[test]
    fn engine_cursor_walks_iterations_and_spills_tails() {
        let mut nest = Nest::new(3);
        nest.read(0, 64).compute(2).write(4096, 64);
        let mut s = phased(vec![vec![
            MacroOp::One(Op::Compute(9)),
            MacroOp::Nest(Box::new(nest)),
            one_slot(4, |b| b.read(1 << 20, 4)),
        ]]);
        assert!(s.spill().is_empty());
        assert!(matches!(s.macro_run()[0], MacroOp::One(Op::Compute(9))));
        s.consume_ones(1);
        // Retire iteration 0 wholesale, bail out of iteration 1 after the
        // read slot: the tail (compute, write) must spill.
        assert!(matches!(s.macro_run()[0], MacroOp::Nest(_)));
        s.consume_iters(1);
        assert_eq!(s.cur_iter(), 1);
        s.spill_iter_tail(1);
        assert_eq!(s.spill(), &[Op::Compute(2), Op::Write(4096 + 64)]);
        // The iterator serves the spill, then iteration 2, then the
        // one-slot nest.
        let rest: Vec<Op> = s.collect();
        assert_eq!(
            rest,
            vec![
                Op::Compute(2),
                Op::Write(4096 + 64),
                Op::Read(128),
                Op::Compute(2),
                Op::Write(4096 + 128),
                Op::Read(1 << 20),
                Op::Read((1 << 20) + 4),
                Op::Read((1 << 20) + 8),
                Op::Read((1 << 20) + 12),
            ]
        );
    }

    #[test]
    fn only_materialized_streams_keep_their_ops_within_spare_bytes() {
        // A generator's stream spills nest iterations into the same
        // buffer; dropped (by `count`), it keeps nothing.
        let mut nest = Nest::new(2);
        nest.read(0, 64).write(4096, 64);
        assert_eq!(phased(vec![vec![MacroOp::Nest(Box::new(nest))]]).count(), 4);
        drop(OpStream::from_ops(Vec::new()));
        let cap = SPARE_BYTES / std::mem::size_of::<Op>() / 3;
        for _ in 0..4 {
            drop(OpStream::from_ops(Vec::with_capacity(cap)));
        }
        let kept: Vec<usize> = std::iter::repeat_with(spare_ops)
            .map(|ops| ops.capacity())
            .take_while(|&c| c > 0)
            .collect();
        assert_eq!(kept, [cap; 3], "the fourth would pass SPARE_BYTES");
    }

    #[test]
    fn a_macro_op_is_sixteen_bytes() {
        // A scalar op, or a boxed nest in the op's niche: the refill
        // budget (`gen::REFILL_BYTES`) counts 16 B per macro-op.
        assert_eq!(std::mem::size_of::<MacroOp>(), 16);
    }

    #[test]
    fn op_classification() {
        assert!(Op::Barrier(0).is_sync());
        assert!(Op::Acquire(1).is_sync());
        assert!(!Op::Read(0).is_sync());
        assert!(Op::Read(0).is_ref());
        assert!(Op::Write(4).is_ref());
        assert!(!Op::Compute(3).is_ref());
    }
}
