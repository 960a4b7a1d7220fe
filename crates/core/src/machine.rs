//! The execution-driven simulation back-end.
//!
//! The machine marries the workload front-end (per-processor [`Op`]
//! streams) to a [`Protocol`] (interconnect + coherence) over a set of
//! [`Node`]s (caches, write buffer, memory); [`run_streams`] builds and
//! runs one. It is the moral equivalent of the paper's MINT back-end:
//!
//! * processors are in-order and blocking on reads;
//! * writes cost one cycle into the coalescing write buffer, which retires
//!   entries as coherence transactions serialized by the home's
//!   acknowledgements (flow control, §3.4);
//! * release consistency: synchronization operations wait until the write
//!   buffer is drained and the last update acknowledged;
//! * locks and barriers are simulated, not traced — arrival order and
//!   contention emerge from the timing model.

use std::collections::VecDeque;
use std::time::Instant;

use crate::sharers::SharerMap;
use desim::{EventQueue, Time};
use memsys::{Addr, AddressMap, PushOutcome};
use netcache_apps::{MacroOp, Nest, Op, OpStream, Slot, Workload};

use crate::config::SysConfig;
use crate::metrics::{NodeStats, RunReport};
use crate::proto::{Node, Protocol, ReadKind};

/// Cap on how far a processor may run ahead within one event, to keep
/// cross-processor resource contention honest.
const SLICE: Time = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Running,
    BlockedRead,
    BlockedWbFull,
    BlockedDrain,
    BlockedLock(u32),
    BlockedBarrier(u32),
    Done,
}

struct Proc {
    stream: OpStream,
    pending: Option<Op>,
    state: ProcState,
    /// When the current blocking began (for stall accounting).
    block_start: Time,
    /// A write-buffer retirement is in flight (issued, not yet acked).
    retiring: bool,
    /// Per-processor compute-rate factor in percent (98..=102). Real
    /// executions are never in perfect lockstep — data-dependent branch
    /// and FP timing gives each processor a slightly different pace. The
    /// synthetic streams are identical across processors, so without this
    /// the machine exhibits pathological convoys (all processors hitting
    /// the same home in the same cycle, forever) that no real run shows.
    pace: u64,
}

#[derive(Default)]
struct LockState {
    held_by: Option<usize>,
    waiters: VecDeque<usize>,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    latest: Time,
    waiters: Vec<usize>,
}

/// Which stall bucket a wake charges.
#[derive(Debug, Clone, Copy)]
enum Stall {
    Wb,
    Sync,
}

/// The engine's event vocabulary.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Continue executing a processor.
    Resume(usize),
    /// A write-buffer retirement was acknowledged.
    WbAck(usize),
    /// Start retiring write-buffer entries (issued at the processor's
    /// local time so the retirement acquires resources in global order).
    WbKick(usize),
}

/// The per-processor elision context: disjoint borrows of everything a
/// private op mutates, split out of [`Machine`] (by `elide_env`) so the
/// op stream can be walked while ops are applied.
struct ElideEnv<'a> {
    node: &'a mut Node,
    st: &'a mut NodeStats,
    queue: &'a mut EventQueue<Event>,
    kick_pending: &'a mut bool,
    map: &'a AddressMap,
    l2_lat: Time,
    pace: u64,
    retiring: bool,
    p: usize,
    /// Batch segmentation granularity: the finest private line size
    /// (L1 lines may be smaller than the coherence block), so a segment
    /// never spans two L1 lines and one probe speaks for every address.
    seg_bytes: u64,
}

impl ElideEnv<'_> {
    /// The one definition of a private op (§4.1): a compute costs its
    /// paced cycles, an L1 hit one pcycle, an L2 hit the L2 latency (and
    /// fills the L1), a write-buffer forward two, and a write one cycle
    /// into the coalescing buffer. The elided fast path and `run_proc`
    /// both retire these ops here. Returns `false` — with *nothing*
    /// mutated — for the rest: a sync op, a read missing all node-private
    /// state, or a write into a full buffer.
    #[inline]
    fn apply(&mut self, op: Op, now: &mut Time) -> bool {
        match op {
            Op::Compute(n) => {
                let scaled = (n as Time * self.pace).div_ceil(100);
                *now += scaled;
                self.st.busy += scaled;
                true
            }
            Op::Read(addr) => {
                if self.node.l1.contains(addr) {
                    self.st.reads += 1;
                    self.st.l1_hits += 1;
                    self.st.busy += 1;
                    *now += 1;
                } else if self.node.l2.contains(addr) {
                    self.st.reads += 1;
                    self.st.l2_hits += 1;
                    self.node.l1.fill(addr, false);
                    self.st.busy += 1;
                    self.st.read_stall += self.l2_lat - 1;
                    *now += self.l2_lat;
                } else if self.node.wb.holds_block(self.map.block_of(addr)) {
                    self.st.reads += 1;
                    self.st.wb_forwards += 1;
                    self.st.busy += 1;
                    self.st.read_stall += 1;
                    *now += 2;
                } else {
                    // Private miss: the general path owns the run-ahead
                    // resync and the protocol transaction.
                    return false;
                }
                true
            }
            Op::Write(addr) => {
                let block = self.map.block_of(addr);
                if self.node.wb.is_full() && !self.node.wb.holds_block(block) {
                    // Would stall; the general path pushes (counting the
                    // full event exactly once) and blocks.
                    return false;
                }
                let out = self.node.wb.push(
                    block,
                    addr,
                    self.map.word_in_block(addr),
                    self.map.is_shared(addr),
                );
                debug_assert!(!matches!(out, PushOutcome::Full));
                *now += 1;
                self.st.busy += 1;
                self.st.writes += 1;
                if !self.retiring && !*self.kick_pending {
                    *self.kick_pending = true;
                    schedule_clamped(self.queue, *now, Event::WbKick(self.p));
                }
                true
            }
            // Sync ops: general path.
            _ => false,
        }
    }

    /// Commits a batch of `w` same-block writes whose buffer entry
    /// already exists: one coalescing probe. No stall is possible and no
    /// kick is needed — the push that created the entry scheduled one, or
    /// a retirement is already in flight.
    #[inline]
    fn commit_coalesced(&mut self, idx: usize, a: Addr, mask: u32, w: u64, now: &mut Time) {
        self.node.wb.coalesce_at(idx, self.map.block_of(a), mask, w);
        debug_assert!(self.retiring || *self.kick_pending);
        self.st.writes += w;
        self.st.busy += w;
        *now += w;
    }
}

/// Iterations of an affine walk from `a` with step `stride` that stay
/// inside `a`'s aligned `span`-byte region (a power of two), capped at
/// `rem`. A zero stride never leaves the region. The elided path spans
/// the finest private line (one probe speaks for every address in it) or
/// the coherence block (one write-buffer entry and one L2 tag cover it);
/// L1 lines nest inside L2 blocks, so a line span stays in one block.
#[inline]
fn span_iters(a: Addr, stride: u64, rem: u64, span: u64) -> u64 {
    if stride == 0 {
        return rem;
    }
    let gap = span - (a & (span - 1));
    let iters = if stride.is_power_of_two() {
        (gap + stride - 1) >> stride.trailing_zeros()
    } else {
        gap.div_ceil(stride)
    };
    iters.min(rem)
}

/// Reusable cross-run allocations. A sweep runs thousands of machines
/// back to back; the event queue is the one allocation worth carrying
/// over (its slot table, cell arena, occupancy bitmap and overflow heap,
/// about 70 KB at 64 nodes).
/// Hand one scratch per worker thread to [`run_streams`] or
/// [`run_workload`]; each run parks its reset queue here for the next.
#[derive(Default)]
pub struct EngineScratch {
    /// A reset queue from a completed run, warm capacity intact.
    queue: Option<EventQueue<Event>>,
}

impl EngineScratch {
    /// An empty scratch: the first run allocates, later runs reuse.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A configured machine ready to run one workload.
///
/// Generic over the protocol type: [`run_streams`] instantiates the
/// machine at each concrete protocol, so the event loop and the
/// write-buffer retirement monomorphize — no virtual dispatch per event.
pub(crate) struct Machine<P: Protocol> {
    cfg: SysConfig,
    map: AddressMap,
    queue: EventQueue<Event>,
    procs: Vec<Proc>,
    nodes: Vec<Node>,
    proto: P,
    /// Lock state, indexed directly by lock id (apps use small dense ids).
    locks: Vec<LockState>,
    /// Barrier state, indexed directly by barrier id.
    barriers: Vec<BarrierState>,
    stats: Vec<NodeStats>,
    /// Per processor: a WbKick event is already scheduled.
    kick_pending: Vec<bool>,
    live: usize,
    /// Ops retired across all processors (any path).
    ops_done: u64,
    /// Ops retired inside elided runs.
    elided: u64,
    /// Which nodes ever filled each block (exact-negative update filter).
    sharers: SharerMap,
}

impl<P: Protocol> Machine<P> {
    /// Builds a machine around `build`'s protocol and the caller's op
    /// streams, reusing the event queue parked in `scratch` if any.
    ///
    /// # Panics
    /// If the configuration fails validation, or `streams` is empty or
    /// longer than the node count.
    fn new(
        cfg: &SysConfig,
        streams: Vec<OpStream>,
        build: impl FnOnce(&SysConfig, AddressMap) -> P,
        scratch: &mut EngineScratch,
    ) -> Self {
        cfg.validate().expect("invalid configuration");
        let map = AddressMap::new(cfg.nodes, cfg.l2.block_bytes);
        assert!(
            !streams.is_empty() && streams.len() <= cfg.nodes,
            "need 1..=nodes streams"
        );
        let n = streams.len();
        // Far-future events are rare (one run-ahead wakeup per processor
        // slice), so a small per-processor overflow reservation suffices.
        let mut queue = scratch
            .queue
            .take()
            .unwrap_or_else(|| EventQueue::with_capacity(4 * n));
        let procs = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| {
                let mut mix = desim::SplitMix64::new(cfg.seed ^ (i as u64).wrapping_mul(0x9E37));
                Proc {
                    stream,
                    pending: None,
                    state: ProcState::Running,
                    block_start: 0,
                    retiring: false,
                    pace: 98 + mix.next_u64() % 5,
                }
            })
            .collect();
        for p in 0..n {
            queue.schedule(0, Event::Resume(p));
        }
        let proto = build(cfg, map);
        Self {
            cfg: *cfg,
            map,
            queue,
            procs,
            nodes: (0..cfg.nodes).map(|_| Node::new(cfg)).collect(),
            proto,
            locks: Vec::new(),
            barriers: Vec::new(),
            stats: vec![NodeStats::default(); n],
            kick_pending: vec![false; n],
            live: n,
            ops_done: 0,
            elided: 0,
            sharers: SharerMap::new(),
        }
    }

    /// Runs to completion and returns the report, parking the reset
    /// event queue in `scratch` for the next run.
    ///
    /// # Panics
    /// On deadlock (no events pending while processors are blocked) — which
    /// would indicate a malformed workload (mismatched barriers) or a
    /// simulator bug.
    fn run(mut self, scratch: &mut EngineScratch) -> RunReport {
        let t0 = Instant::now();
        while let Some((_, ev)) = self.queue.pop() {
            match ev {
                Event::Resume(p) => self.run_proc(p),
                Event::WbAck(p) => self.wb_ack(p),
                Event::WbKick(p) => {
                    let t = self.queue.now();
                    self.maybe_start_retire(p, t);
                }
            }
        }
        assert!(
            self.live == 0,
            "deadlock: {} processors stuck ({:?})",
            self.live,
            self.procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.state != ProcState::Done)
                .map(|(i, p)| (i, p.state))
                .collect::<Vec<_>>()
        );
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let cycles = self.stats.iter().map(|s| s.finish).max().unwrap_or(0);
        let memories = self
            .nodes
            .iter()
            .map(|n| (n.mem.reads(), n.mem.busy_total(), n.mem.mean_wait()))
            .collect();
        let report = RunReport {
            arch: self.proto.arch().name(),
            cycles,
            nodes: self.stats,
            proto: *self.proto.counters(),
            ring: self.proto.ring_stats(),
            events: self.queue.scheduled_total(),
            ops: self.ops_done,
            elided_ops: self.elided,
            channels: self.proto.channel_report(),
            links: self.proto.link_report(),
            memories,
            wall_ns,
        };
        self.queue.reset();
        scratch.queue = Some(self.queue);
        report
    }

    /// True once `p` may pass a release-consistency fence.
    fn drained(&self, p: usize) -> bool {
        self.nodes[p].wb.is_empty() && !self.procs[p].retiring
    }

    /// Grows the dense lock table to cover id `l` (ids are small and
    /// dense; after warm-up this is a bounds check that always passes).
    #[inline]
    fn ensure_lock(&mut self, l: u32) -> usize {
        let i = l as usize;
        if i >= self.locks.len() {
            self.locks.resize_with(i + 1, LockState::default);
        }
        i
    }

    /// Grows the dense barrier table to cover id `b`.
    #[inline]
    fn ensure_barrier(&mut self, b: u32) -> usize {
        let i = b as usize;
        if i >= self.barriers.len() {
            self.barriers.resize_with(i + 1, BarrierState::default);
        }
        i
    }

    /// Wakes a blocked processor at global time `at`, charging the stall.
    /// A processor may have blocked at a *local* time ahead of the global
    /// clock (it was running ahead within its slice); it can never resume
    /// before the moment it blocked.
    fn wake(&mut self, w: usize, at: Time, stall: Stall) {
        let t = at.max(self.procs[w].block_start);
        let waited = t - self.procs[w].block_start;
        match stall {
            Stall::Wb => self.stats[w].wb_stall += waited,
            Stall::Sync => self.stats[w].sync_stall += waited,
        }
        self.procs[w].state = ProcState::Running;
        self.schedule_resume(w, t);
    }

    /// Kicks the retirement process if idle and work exists: retires the
    /// head write-buffer entry at local time `t` and schedules its
    /// acknowledgement. One entry retires per `WbKick` or `WbAck`, as the
    /// home's acknowledgements serialize them (§3.4 flow control).
    fn maybe_start_retire(&mut self, p: usize, t: Time) {
        self.kick_pending[p] = false;
        if self.procs[p].retiring || self.nodes[p].wb.is_empty() {
            return;
        }
        self.procs[p].retiring = true;
        let entry = self.nodes[p].wb.pop().expect("non-empty");
        // The freed slot unblocks a stalled writer.
        if self.procs[p].state == ProcState::BlockedWbFull {
            self.wake(p, t, Stall::Wb);
        }
        let ack_at = if entry.shared {
            self.proto.retire_shared_write(
                &mut self.nodes,
                p,
                &entry,
                t,
                self.sharers.sharers(entry.block),
            )
        } else {
            // Private write: drains into the local memory, no coherence.
            let (applied, _) = self.nodes[p].mem.apply_update(t + 1, entry.words());
            applied
        };
        schedule_clamped(&mut self.queue, ack_at, Event::WbAck(p));
    }

    /// An update ack arrived: retire the next entry or complete a drain.
    fn wb_ack(&mut self, p: usize) {
        let t = self.queue.now();
        self.procs[p].retiring = false;
        if !self.nodes[p].wb.is_empty() {
            self.maybe_start_retire(p, t);
        } else if self.procs[p].state == ProcState::BlockedDrain {
            self.wake(p, t, Stall::Sync);
        }
    }

    /// Fills the L2 (routing any eviction through the protocol) and L1.
    fn fill_caches(&mut self, p: usize, addr: u64, t: Time) {
        // Every peer-visible cache allocation funnels through here: note
        // the sharer bit that licenses update broadcasts to probe `p`.
        // (L1-only fills elsewhere copy a block the L2 already holds, so
        // their bit is already set.)
        self.sharers.note(p, self.map.block_of(addr));
        if let Some(ev) = self.nodes[p].l2.fill(addr, false) {
            self.proto
                .evicted_l2(&mut self.nodes, p, ev.block, ev.dirty, t);
        }
        self.nodes[p].l1.fill(addr, false);
    }

    /// Executes a read that missed the L1, the L2 and the write buffer
    /// (those hits retire in [`ElideEnv::apply`]); returns the completion
    /// time.
    fn read_miss(&mut self, p: usize, addr: u64, now: Time) -> Time {
        self.stats[p].reads += 1;
        let t0 = now + 5; // L1 + L2 tag checks
        let shared_remote = self.map.is_shared(addr) && self.map.home_of(addr) != p;
        let done = if shared_remote {
            let r = self.proto.read_remote(&mut self.nodes, p, addr, t0);
            match r.kind {
                ReadKind::SharedHit => self.stats[p].shared_hits += 1,
                ReadKind::SharedCoalesced => self.stats[p].shared_coalesced += 1,
                ReadKind::Forwarded => self.stats[p].forwarded_reads += 1,
                _ => self.stats[p].remote_mem_reads += 1,
            }
            self.stats[p].shared_reads += 1;
            self.stats[p].shared_read_stall += r.done - now;
            r.done
        } else {
            self.stats[p].local_mem_reads += 1;
            self.nodes[p].mem.read_block(t0)
        };
        self.fill_caches(p, addr, done);
        done
    }

    /// `p`'s elision context and op stream, split out of the machine as
    /// disjoint borrows: the one place an [`ElideEnv`] is built.
    fn elide_env(&mut self, p: usize) -> (ElideEnv<'_>, &mut OpStream) {
        let Machine {
            procs,
            nodes,
            stats,
            queue,
            kick_pending,
            map,
            cfg,
            ..
        } = self;
        let proc = &mut procs[p];
        let env = ElideEnv {
            node: &mut nodes[p],
            st: &mut stats[p],
            queue,
            kick_pending: &mut kick_pending[p],
            map,
            l2_lat: cfg.l2_hit_latency,
            pace: proc.pace,
            // No retirement can start while the env lives: a WbKick only
            // fires from the event queue, which the env never pops.
            retiring: proc.retiring,
            p,
            seg_bytes: cfg.l1.block_bytes.min(map.block_bytes),
        };
        (env, &mut proc.stream)
    }

    /// Fast-forwards a run of elision-safe ops inline: compute, reads
    /// that hit node-private state (L1, L2, write-buffer forward), and
    /// write-buffer pushes that cannot stall. These ops touch no shared
    /// resource, so executing them back to back inside the current event
    /// — instead of once per trip around `run_proc`'s general loop — is
    /// invisible to the rest of the machine: the per-op state mutations,
    /// stats, local-time advance, and any WbKick scheduling are replicated
    /// exactly (see DESIGN.md, "Event elision" and "Macro-op streams").
    /// Stops at the first op that may block, miss, or synchronize, leaving
    /// it unconsumed for the general path, or when `now` passes `deadline`
    /// (the slice cap).
    ///
    /// Beyond the scalar per-op path ([`ElideEnv::apply`]), this walks the
    /// stream's *macro* form: an affine [`Nest`] that stays inside
    /// node-private state retires in O(lines touched) — one cache or
    /// buffer probe per distinct private line — instead of O(ops). The
    /// batched commits reproduce the scalar mutations to the bit: counters
    /// and local time are additive, and a cache probe mutates nothing, so
    /// one probe per line speaks for every op in it. Any op the batch
    /// analysis cannot prove safe falls back to the scalar path, which
    /// bails to the general path exactly where the per-op engine did.
    fn elide_run(&mut self, p: usize, now: &mut Time, deadline: Time) {
        // The nest is copied out of the stream borrow on purpose: the
        // retirement loop below consumes the stream mutably, and one
        // copy per nest head amortizes over the whole nest.
        #[allow(clippy::large_enum_variant)]
        enum Head {
            /// Stream exhausted.
            End,
            /// `k` leading scalar ops were applied in place; `bail` means
            /// the next one needs the general path.
            Ones {
                k: usize,
                bail: bool,
            },
            Nested(Nest),
        }
        let (mut env, stream) = self.elide_env(p);
        let mut done = 0u64;
        'run: loop {
            // Scalar spill first: a partial nest iteration left over from
            // an earlier bail or slice boundary.
            let spill = stream.spill();
            if !spill.is_empty() {
                let len = spill.len();
                let mut taken = 0usize;
                for &op in spill {
                    if !env.apply(op, now) {
                        break;
                    }
                    taken += 1;
                    if *now > deadline {
                        break;
                    }
                }
                stream.consume_spill(taken);
                done += taken as u64;
                if taken < len || *now > deadline {
                    break 'run;
                }
                continue;
            }
            // Peek the macro head. `cur_iter` must be read before
            // `macro_run` borrows the stream mutably; it is 0 whenever a
            // refill happens, so the pre-refill value is always right.
            let iter = stream.cur_iter();
            let head = {
                let ms = stream.macro_run();
                match ms.first() {
                    None => Head::End,
                    Some(MacroOp::One(_)) => {
                        // Apply consecutive scalars inside the borrow;
                        // only the count needs to escape it.
                        let mut k = 0usize;
                        let mut bail = false;
                        for m in ms {
                            let MacroOp::One(op) = m else { break };
                            if !env.apply(*op, now) {
                                bail = true;
                                break;
                            }
                            k += 1;
                            if *now > deadline {
                                break;
                            }
                        }
                        Head::Ones { k, bail }
                    }
                    Some(MacroOp::Nest(nest)) => Head::Nested(**nest),
                }
            };
            match head {
                Head::End => break 'run,
                Head::Ones { k, bail } => {
                    stream.consume_ones(k);
                    done += k as u64;
                    if bail || *now > deadline {
                        break 'run;
                    }
                }
                Head::Nested(nest) => {
                    let n = nest.n();
                    let wmask = nest.wmask();
                    let slots = nest.slots();
                    // Worst-case local time per iteration is the same for
                    // every iteration of the nest: pay for it once.
                    let mut cost: Time = 0;
                    for s in slots {
                        cost += match *s {
                            Slot::Compute(c) => (c as Time * env.pace).div_ceil(100),
                            _ => 1,
                        };
                    }
                    let mut it = iter;
                    // Verify-fail memo: the slot that broke the last bulk
                    // attempt. A persistently non-resident slot (e.g. a
                    // read of a line a peer keeps refreshing away) then
                    // costs one probe per scalar iteration instead of a
                    // full verify sweep.
                    let mut hint = usize::MAX;
                    while it < n && *now <= deadline {
                        // A batch spans as many iterations as every slot
                        // can retire with one commit call: write slots stay
                        // inside their current coherence block (one buffer
                        // entry, one L2 tag), and read slots may cross L1
                        // lines as long as every touched line is resident
                        // (probed line by line below).
                        let mut seg = n - it;
                        let mut bulk_ok = true;
                        // Write slots opening a fresh buffer entry this
                        // batch (bit per slot index), and the buffer
                        // index each committing slot coalesces into (one
                        // scan here, none in the commit pass — indices
                        // stay valid because nothing pops inside a batch).
                        let mut push_mask = 0u16;
                        let mut pushes = 0usize;
                        let mut widx = [0u8; 16];
                        if hint != usize::MAX {
                            let still = match slots[hint] {
                                Slot::Read { base, stride } => {
                                    !env.node.l1.contains(base + it * stride)
                                }
                                _ => false,
                            };
                            if still {
                                bulk_ok = false;
                            } else {
                                hint = usize::MAX;
                            }
                        }
                        let mut push_writeif = false;
                        if bulk_ok {
                            // Write-like slots first: they clamp the span
                            // cheaply, so the read pass never probes lines
                            // past the batch.
                            for (si, s) in slots.iter().enumerate() {
                                let (base, stride, gated) = match *s {
                                    Slot::Write { base, stride } => (base, stride, false),
                                    Slot::WriteIf { base, stride } => (base, stride, true),
                                    _ => continue,
                                };
                                let a = base + it * stride;
                                seg = seg.min(span_iters(a, stride, seg, env.map.block_bytes));
                                match env.node.wb.find_block(env.map.block_of(a)) {
                                    Some(i) => widx[si] = i as u8,
                                    None => {
                                        push_mask |= 1 << si;
                                        pushes += 1;
                                        push_writeif |= gated;
                                    }
                                }
                            }
                        }
                        // Fresh entries batch only when the buffer has room
                        // for all of them and a wake-up is already booked
                        // (a retirement in flight or a kick pending), so
                        // the bulk path never stalls and never schedules.
                        // The scalar arm below handles the rare remainder
                        // (first write after a full drain) exactly. A
                        // gated (write-if) slot creates its entry at its
                        // first *set* iteration, not at the batch head, so
                        // two creations in one batch could land in the
                        // buffer out of FIFO order — batch only when the
                        // creation this round is unique.
                        if bulk_ok && pushes > 0 {
                            bulk_ok = (env.retiring || *env.kick_pending)
                                && env.node.wb.room() >= pushes
                                && !(push_writeif && pushes > 1);
                        }
                        if bulk_ok {
                            for (si, s) in slots.iter().enumerate() {
                                if let Slot::Read { base, stride } = *s {
                                    let a = base + it * stride;
                                    if !env.node.l1.contains(a) {
                                        bulk_ok = false;
                                        hint = si;
                                        break;
                                    }
                                    // Extend the verified span line by
                                    // line up to the current clamp.
                                    let mut ok = span_iters(a, stride, seg, env.seg_bytes);
                                    while ok < seg {
                                        let nxt = a + ok * stride;
                                        if !env.node.l1.contains(nxt) {
                                            break;
                                        }
                                        ok += span_iters(nxt, stride, seg - ok, env.seg_bytes);
                                    }
                                    seg = ok;
                                }
                            }
                        }
                        // Only iterations that finish at or before the
                        // deadline batch; the crossing iteration runs
                        // through the scalar arms so it stops exactly
                        // where the per-op engine would.
                        let k = seg.min((deadline - *now) / cost.max(1));
                        if bulk_ok && k > 0 {
                            for (si, s) in slots.iter().enumerate() {
                                match *s {
                                    Slot::Compute(c) => {
                                        let scaled = (c as Time * env.pace).div_ceil(100);
                                        env.st.busy += k * scaled;
                                        *now += k * scaled;
                                        done += k;
                                    }
                                    Slot::Read { base, stride } => {
                                        // Verified above; nothing in a
                                        // batch fills or evicts.
                                        debug_assert!(env.node.l1.contains(base + it * stride));
                                        env.st.reads += k;
                                        env.st.l1_hits += k;
                                        env.st.busy += k;
                                        *now += k;
                                        done += k;
                                    }
                                    Slot::Write { base, stride } => {
                                        let mut a = base + it * stride;
                                        let mut rem = k;
                                        let idx;
                                        if push_mask >> si & 1 == 1 {
                                            // Entry creation goes through
                                            // the exact scalar push; the
                                            // fresh entry lands at the
                                            // back of the buffer.
                                            let ok = env.apply(Op::Write(a), now);
                                            debug_assert!(ok);
                                            idx = env.node.wb.len() - 1;
                                            done += 1;
                                            a += stride;
                                            rem -= 1;
                                        } else {
                                            idx = widx[si] as usize;
                                        }
                                        if rem > 0 {
                                            let mut mask = 0u32;
                                            if stride == 0 {
                                                mask = 1 << env.map.word_in_block(a);
                                            } else {
                                                for i in 0..rem {
                                                    mask |= 1u32
                                                        << env.map.word_in_block(a + i * stride);
                                                }
                                            }
                                            env.commit_coalesced(idx, a, mask, rem, now);
                                            done += rem;
                                        }
                                    }
                                    Slot::WriteIf { base, stride } => {
                                        // Masked writes: `n <= 64` is a
                                        // `write_if` builder invariant, so
                                        // the window fits one shift.
                                        let window =
                                            if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
                                        let bits = (wmask >> it) & window;
                                        let mut w = u64::from(bits.count_ones());
                                        if w > 0 {
                                            let a = base + it * stride;
                                            let mut mask = 0u32;
                                            let mut b = bits;
                                            while b != 0 {
                                                let i = u64::from(b.trailing_zeros());
                                                mask |=
                                                    1u32 << env.map.word_in_block(a + i * stride);
                                                b &= b - 1;
                                            }
                                            let idx;
                                            if push_mask >> si & 1 == 1 {
                                                // The entry opens at the
                                                // first *set* iteration —
                                                // the exact scalar push
                                                // keeps the representative
                                                // address and accounting
                                                // identical.
                                                let j0 = u64::from(bits.trailing_zeros());
                                                let ok = env.apply(Op::Write(a + j0 * stride), now);
                                                debug_assert!(ok);
                                                idx = env.node.wb.len() - 1;
                                                done += 1;
                                                w -= 1;
                                            } else {
                                                idx = widx[si] as usize;
                                            }
                                            if w > 0 {
                                                env.commit_coalesced(idx, a, mask, w, now);
                                                done += w;
                                            }
                                        }
                                    }
                                }
                            }
                            stream.consume_iters(k);
                            it += k;
                            continue;
                        }
                        // One iteration through the exact scalar arms. On
                        // a bail or a deadline crossing, the unretired
                        // tail of the iteration spills to the scalar
                        // buffer and the cursor moves past the iteration.
                        let mut si = 0;
                        while si < slots.len() {
                            if let Some(op) = slots[si].op_at(it, wmask) {
                                if !env.apply(op, now) {
                                    stream.spill_iter_tail(si);
                                    break 'run;
                                }
                                done += 1;
                                if *now > deadline {
                                    stream.spill_iter_tail(si + 1);
                                    break 'run;
                                }
                            }
                            si += 1;
                        }
                        stream.consume_iters(1);
                        it += 1;
                    }
                    if it < n {
                        break 'run; // deadline hit between iterations
                    }
                }
            }
        }
        self.ops_done += done;
        self.elided += done;
    }

    /// The processor execution loop: runs ops until blocking or done.
    /// Every op goes to [`ElideEnv::apply`] first, parked or fresh, so
    /// each class of private op has one definition. What `apply` declines
    /// is a read that missed the L1, the L2 and the write buffer, a write
    /// into a full buffer, or a sync op.
    fn run_proc(&mut self, p: usize) {
        let start = self.queue.now();
        let mut now = start;
        let deadline = start + SLICE;
        loop {
            if self.procs[p].pending.is_none() {
                self.elide_run(p, &mut now, deadline);
                if now > deadline {
                    self.schedule_resume(p, now);
                    return;
                }
            }
            let op = match self.procs[p].pending.take() {
                Some(op) => op,
                None => match self.procs[p].stream.next() {
                    Some(op) => {
                        self.ops_done += 1;
                        op
                    }
                    None => {
                        self.procs[p].state = ProcState::Done;
                        self.stats[p].finish = now;
                        self.live -= 1;
                        return;
                    }
                },
            };
            if !self.elide_env(p).0.apply(op, &mut now) {
                // Private hits may run ahead of the global clock; anything
                // that acquires shared resources (memory, channels, ring,
                // sync broadcasts) must execute in global-time order or
                // later requests would queue behind phantom future
                // reservations. A full-buffer write only blocks.
                if now > self.queue.now() && !matches!(op, Op::Write(_)) {
                    self.procs[p].pending = Some(op);
                    self.schedule_resume(p, now);
                    return;
                }
                // Release consistency: sync waits for the buffer to drain.
                if op.is_sync() && !self.drained(p) {
                    self.block_for_drain(p, op, now);
                    return;
                }
                match self.run_declined(p, op, now) {
                    Some(t) => now = t,
                    None => return,
                }
            }
            if now > deadline {
                self.schedule_resume(p, now);
                return;
            }
        }
    }

    /// Runs an op [`ElideEnv::apply`] declined, once `p` has caught up
    /// with the global clock and, for a sync op, drained its buffer.
    /// Returns `p`'s local time after the op, or `None` if `p` blocked.
    fn run_declined(&mut self, p: usize, op: Op, mut now: Time) -> Option<Time> {
        match op {
            Op::Read(addr) => {
                let done = self.read_miss(p, addr, now);
                self.stats[p].busy += 1;
                self.stats[p].read_stall += done - now - 1;
                if done > now + self.cfg.l2_hit_latency {
                    // A real stall: block and resume at completion.
                    self.procs[p].state = ProcState::BlockedRead;
                    self.procs[p].block_start = now;
                    self.schedule_resume(p, done);
                    return None;
                }
                now = done;
            }
            Op::Write(addr) => {
                // The push counts the full event once. Either a
                // retirement is in flight or the kick event for
                // one is pending; it will wake us when an entry
                // leaves the buffer.
                let out = self.nodes[p].wb.push(
                    self.map.block_of(addr),
                    addr,
                    self.map.word_in_block(addr),
                    self.map.is_shared(addr),
                );
                debug_assert_eq!(out, PushOutcome::Full);
                debug_assert!(self.procs[p].retiring || self.kick_pending[p]);
                self.procs[p].pending = Some(op);
                self.procs[p].state = ProcState::BlockedWbFull;
                self.procs[p].block_start = now;
                return None;
            }
            Op::Acquire(l) => {
                let li = self.ensure_lock(l);
                let lock = &self.locks[li];
                if lock.held_by == Some(p) {
                    // Granted while we were blocked.
                    now += 1;
                } else if lock.held_by.is_none() && lock.waiters.is_empty() {
                    let seen = self.proto.sync_broadcast(p, now);
                    self.locks[li].held_by = Some(p);
                    self.stats[p].sync_stall += seen - now;
                    now = seen;
                } else {
                    let seen = self.proto.sync_broadcast(p, now);
                    let lock = &mut self.locks[li];
                    lock.waiters.push_back(p);
                    self.procs[p].pending = Some(op);
                    self.procs[p].state = ProcState::BlockedLock(l);
                    // The waiter's own broadcast must complete before
                    // it can take the lock: charge [now, seen) as sync
                    // stall up front and block from `seen`, so a grant
                    // arriving earlier (the holder released while our
                    // message was still in flight) cannot resume us —
                    // or be accounted — before the broadcast lands.
                    self.stats[p].sync_stall += seen - now;
                    self.procs[p].block_start = seen;
                    return None;
                }
            }
            Op::Release(l) => {
                let seen = self.proto.sync_broadcast(p, now);
                let li = self.ensure_lock(l);
                let lock = &mut self.locks[li];
                debug_assert_eq!(lock.held_by, Some(p), "release by non-holder");
                lock.held_by = None;
                if let Some(w) = lock.waiters.pop_front() {
                    lock.held_by = Some(w);
                    self.wake(w, seen + 1, Stall::Sync);
                }
                self.stats[p].sync_stall += seen - now;
                now = seen;
            }
            Op::Barrier(b) => {
                let seen = self.proto.sync_broadcast(p, now);
                let expected = self.procs.len();
                let bi = self.ensure_barrier(b);
                let bar = &mut self.barriers[bi];
                bar.arrived += 1;
                bar.latest = bar.latest.max(seen);
                if bar.arrived == expected {
                    let release = bar.latest + 2;
                    let waiters = std::mem::take(&mut bar.waiters);
                    // Reset in place; the id starts fresh for its next
                    // episode, exactly as removing a map entry did.
                    bar.arrived = 0;
                    bar.latest = 0;
                    for w in waiters {
                        self.wake(w, release, Stall::Sync);
                    }
                    self.stats[p].sync_stall += release - now;
                    now = release;
                } else {
                    bar.waiters.push(p);
                    self.procs[p].state = ProcState::BlockedBarrier(b);
                    self.procs[p].block_start = now;
                    return None;
                }
            }
            Op::Compute(_) => unreachable!("apply retires every compute"),
        }
        Some(now)
    }

    fn block_for_drain(&mut self, p: usize, op: Op, now: Time) {
        self.procs[p].pending = Some(op);
        self.procs[p].state = ProcState::BlockedDrain;
        self.procs[p].block_start = now;
        // The in-flight retirement's WbAck will wake us; if retirement has
        // somehow not started (buffer non-empty, idle), kick it. The
        // caller has already synced to the global clock.
        if !self.procs[p].retiring {
            self.maybe_start_retire(p, now);
        }
    }

    #[inline]
    fn schedule_resume(&mut self, p: usize, at: Time) {
        schedule_clamped(&mut self.queue, at, Event::Resume(p));
    }
}

/// Schedules `ev` at `at`, clamped to the global clock. Handlers
/// compute wake-up times in processor-*local* time, which can trail
/// the global clock when the processor blocked while running ahead of
/// it; the queue itself must never be handed a timestamp in the past.
/// Every `schedule` call in the machine goes through here. (A free
/// function, not a method: it carries no protocol type, and call sites
/// such as [`ElideEnv`] have no `P` in scope to name.)
#[inline]
fn schedule_clamped(queue: &mut EventQueue<Event>, at: Time, ev: Event) {
    let t = at.max(queue.now());
    debug_assert!(t >= queue.now(), "event scheduled in the past");
    queue.schedule(t, ev);
}

/// Runs `streams`, one per processor, on the machine `cfg` describes —
/// the engine's one entry point: [`run_workload`], `run_app`, sweeps and
/// `netcache replay` all come through here. The protocol type is chosen
/// statically from `cfg.arch`, so the event loop, the write-buffer
/// retirement and every protocol call inside them monomorphize per
/// protocol.
/// `scratch` carries the event queue's allocations from run to run.
///
/// Streams must obey the front-end contract: identical barrier sequences
/// on every processor, properly nested lock pairs, no lock held at a
/// barrier or at the end, and an acyclic lock order.
/// [`netcache_apps::trace::check_contract`] checks it on materialized
/// traces; `netcache replay` runs that check first.
///
/// ```
/// use netcache_core::{run_streams, Arch, EngineScratch, SysConfig};
/// use netcache_apps::Op;
///
/// let cfg = SysConfig::base(Arch::NetCache).with_nodes(2);
/// let streams = (0..2)
///     .map(|p| {
///         let base = memsys::addr::SHARED_BASE + p * 64;
///         netcache_apps::OpStream::from_ops(
///             (0..100u64)
///                 .flat_map(|i| [Op::Compute(5), Op::Read(base + i * 64)])
///                 .chain([Op::Barrier(0)])
///                 .collect(),
///         )
///     })
///     .collect();
/// let report = run_streams(&cfg, streams, &mut EngineScratch::new());
/// assert!(report.cycles > 0);
/// ```
///
/// # Panics
/// If the configuration fails validation, `streams` is empty or longer
/// than the node count, or the streams deadlock (they break the
/// contract).
pub fn run_streams(
    cfg: &SysConfig,
    streams: Vec<OpStream>,
    scratch: &mut EngineScratch,
) -> RunReport {
    use crate::config::Arch;
    use crate::proto::{DmonI, DmonU, LambdaNet, NetCacheProto};
    match cfg.arch {
        Arch::NetCache => Machine::new(cfg, streams, NetCacheProto::new, scratch).run(scratch),
        Arch::LambdaNet => Machine::new(cfg, streams, LambdaNet::new, scratch).run(scratch),
        Arch::DmonU => Machine::new(cfg, streams, DmonU::new, scratch).run(scratch),
        Arch::DmonI => Machine::new(cfg, streams, DmonI::new, scratch).run(scratch),
    }
}

/// [`run_streams`] for a built-in workload: builds the op streams from
/// the workload and runs them on the monomorphized engine.
pub fn run_workload(
    cfg: &SysConfig,
    workload: &Workload,
    scratch: &mut EngineScratch,
) -> RunReport {
    let map = AddressMap::new(cfg.nodes, cfg.l2.block_bytes);
    run_streams(cfg, workload.streams(&map), scratch)
}

/// [`run_workload`] on a fresh [`EngineScratch`]: one workload on one
/// machine configuration.
pub fn run_app(cfg: &SysConfig, workload: &Workload) -> RunReport {
    run_workload(cfg, workload, &mut EngineScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;
    use netcache_apps::AppId;

    fn run(arch: Arch, app: AppId, procs: usize, scale: f64) -> RunReport {
        let cfg = SysConfig::base(arch).with_nodes(procs.max(1));
        let wl = Workload::new(app, procs).scale(scale);
        run_workload(&cfg, &wl, &mut EngineScratch::new())
    }

    #[test]
    fn run_app_smoke() {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(2);
        let r = run_app(&cfg, &Workload::new(AppId::Water, 2).scale(0.25));
        assert!(r.cycles > 0);
    }

    #[test]
    fn sor_runs_on_all_architectures() {
        for arch in Arch::ALL {
            let r = run(arch, AppId::Sor, 4, 0.02);
            assert!(r.cycles > 10_000, "{}: {} cycles", arch.name(), r.cycles);
            assert!(r.total_reads() > 100_000);
            assert_eq!(r.nodes.len(), 4);
        }
    }

    #[test]
    fn netcache_reports_ring_stats() {
        let r = run(Arch::NetCache, AppId::Gauss, 4, 0.02);
        let ring = r.ring.expect("ring stats");
        assert!(ring.hits + ring.misses > 0);
        // Gauss is the high-reuse archetype: a meaningful hit rate.
        assert!(ring.hit_rate() > 0.2, "hit rate {}", ring.hit_rate());
    }

    #[test]
    fn baselines_have_no_ring() {
        for arch in [Arch::LambdaNet, Arch::DmonU, Arch::DmonI] {
            let r = run(arch, AppId::Sor, 2, 0.02);
            assert!(r.ring.is_none());
        }
    }

    #[test]
    fn update_protocols_send_updates_dmon_i_sends_invalidates() {
        let u = run(Arch::DmonU, AppId::Sor, 4, 0.02);
        assert!(u.proto.updates > 1000);
        assert_eq!(u.proto.invalidations, 0);
        let i = run(Arch::DmonI, AppId::Sor, 4, 0.02);
        assert_eq!(i.proto.updates, 0);
        assert!(i.proto.invalidations > 100);
        assert!(i.proto.writebacks > 0, "dirty evictions must write back");
    }

    #[test]
    fn single_node_run_completes() {
        let r = run(Arch::NetCache, AppId::Fft, 1, 0.02);
        assert!(r.cycles > 0);
        // Single node: everything is local.
        assert_eq!(r.nodes[0].remote_mem_reads, 0);
        assert_eq!(r.nodes[0].shared_hits, 0);
        assert!(r.nodes[0].local_mem_reads > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Arch::NetCache, AppId::Radix, 4, 0.02);
        let b = run(Arch::NetCache, AppId::Radix, 4, 0.02);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_reads(), b.total_reads());
    }

    #[test]
    fn time_accounting_is_consistent() {
        let r = run(Arch::NetCache, AppId::Sor, 4, 0.02);
        for (i, n) in r.nodes.iter().enumerate() {
            let accounted = n.busy + n.read_stall + n.wb_stall + n.sync_stall;
            // Everything a processor did must fit within its finish time;
            // and idle gaps should be small for SOR.
            assert!(
                accounted <= n.finish + 1,
                "proc {i}: accounted {accounted} > finish {}",
                n.finish
            );
            assert!(
                accounted as f64 > 0.9 * n.finish as f64,
                "proc {i}: large unaccounted time ({accounted} of {})",
                n.finish
            );
        }
    }

    #[test]
    fn locks_are_mutually_exclusive_in_time() {
        // CG's reductions exercise locks; a deadlock or double grant
        // would hang or panic.
        let r = run(Arch::DmonI, AppId::Cg, 4, 0.04);
        assert!(r.cycles > 0);
    }

    #[test]
    fn more_processors_do_not_slow_down_parallel_apps() {
        let r1 = run(Arch::NetCache, AppId::Sor, 1, 0.02);
        let r8 = run(Arch::NetCache, AppId::Sor, 8, 0.02);
        let speedup = r1.cycles as f64 / r8.cycles as f64;
        assert!(speedup > 2.0, "8-node speedup only {speedup:.2}");
    }

    fn custom(cfg: &SysConfig, streams: Vec<Vec<Op>>) -> RunReport {
        let streams = streams.into_iter().map(OpStream::from_ops).collect();
        run_streams(cfg, streams, &mut EngineScratch::new())
    }

    #[test]
    fn contended_waiter_stall_includes_broadcast_cost() {
        // Regression test for contended-lock stall accounting. A waiter's
        // own sync broadcast must complete before it can take the lock;
        // the stall window therefore runs from the acquire to
        // max(broadcast completion, grant), not just to the grant.
        //
        // Construction: NetCache splits nodes across two coherence
        // channels by parity, so proc0 (channel 0) and proc1 (channel 1)
        // broadcast independently. Proc3 shares channel 1 with proc1 and
        // jams it with large coalesced update broadcasts — TDMA slots
        // only block across clients for messages longer than one slot,
        // which sync broadcasts are not but multi-word updates are. The
        // holder's release on the clear channel 0 then produces a grant
        // (~cycle 16) long before the waiter's own jammed broadcast
        // lands (~cycle 65). The buggy accounting resumed the waiter at
        // the grant, charging only ~29 cycles of sync stall; correct
        // accounting charges the full ~65.
        let mut cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
        cfg.ring.channels = 0; // node count below 16: simplest valid ring
        let s0 = vec![Op::Acquire(7), Op::Compute(1), Op::Release(7)];
        // Long critical section so proc1's own release happens after the
        // jam drains and doesn't blur the measurement.
        let s1 = vec![
            Op::Compute(2),
            Op::Acquire(7),
            Op::Compute(100),
            Op::Release(7),
        ];
        let s2 = vec![Op::Compute(1)];
        let mut s3 = Vec::new();
        for b in 0..8u64 {
            for w in 0..16u64 {
                s3.push(Op::Write(memsys::addr::SHARED_BASE + b * 64 + w * 4));
            }
        }
        let r = custom(&cfg, vec![s0, s1, s2, s3]);
        // Thresholds sit between the buggy values (29 / 131) and the
        // correct ones (65 / 167), with margin on both sides.
        assert!(
            r.nodes[1].sync_stall >= 50,
            "waiter resumed before its broadcast completed: sync_stall {}",
            r.nodes[1].sync_stall
        );
        assert!(
            r.nodes[1].finish >= 150,
            "waiter finished too early: {}",
            r.nodes[1].finish
        );
    }

    #[test]
    fn contended_lock_serializes_critical_sections() {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
        // Four processors each hold the lock for 500 cycles of compute.
        let streams: Vec<Vec<Op>> = (0..4)
            .map(|_| {
                vec![
                    Op::Acquire(7),
                    Op::Compute(500),
                    Op::Release(7),
                    Op::Barrier(0),
                ]
            })
            .collect();
        let r = custom(&cfg, streams);
        // Mutual exclusion: the four 500-cycle sections cannot overlap.
        assert!(r.cycles >= 4 * 500, "sections overlapped: {}", r.cycles);
        // And the machine didn't serialize them absurdly either.
        assert!(
            r.cycles < 4 * 500 + 2_000,
            "lock overhead too high: {}",
            r.cycles
        );
    }

    #[test]
    fn barrier_stragglers_charge_waiters() {
        let mut cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
        cfg.ring.channels = 0; // node count below 16: simplest valid ring
        let mut streams = vec![
            vec![Op::Compute(10), Op::Barrier(0)],
            vec![Op::Compute(10), Op::Barrier(0)],
        ];
        // The straggler computes 10_000 cycles before arriving.
        streams.push(vec![Op::Compute(10_000), Op::Barrier(0)]);
        let r = custom(&cfg, streams);
        // Everyone finishes just after the straggler (whose 10k compute
        // is scaled by its ±2% pace factor).
        assert!(r.cycles >= 9_600 && r.cycles < 10_600, "{}", r.cycles);
        // The two early arrivers were charged ~10k of sync stall each.
        for n in &r.nodes[..2] {
            assert!(n.sync_stall > 9_000, "sync stall {}", n.sync_stall);
        }

        assert!(r.nodes[2].sync_stall < 300);
    }

    #[test]
    fn write_buffer_full_stalls_the_processor() {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(2);
        // 64 back-to-back writes to distinct shared blocks: only 16 fit
        // the buffer, and each retirement needs a ~41-cycle ack round
        // trip, so the writer must stall.
        let writes: Vec<Op> = (0..64u64)
            .map(|i| Op::Write(memsys::addr::SHARED_BASE + i * 64))
            .chain([Op::Barrier(0)])
            .collect();
        let idle = vec![Op::Compute(1), Op::Barrier(0)];
        let r = custom(&cfg, vec![writes, idle]);
        assert!(
            r.nodes[0].wb_stall > 500,
            "writer should stall on a full buffer: {}",
            r.nodes[0].wb_stall
        );
        // Drain before the barrier: 64 serialized update round trips.
        assert!(r.cycles > 64 * 17, "{}", r.cycles);
    }

    #[test]
    fn release_consistency_drains_before_sync() {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(2);
        // One write, then immediately a barrier: the barrier may not be
        // crossed until the update is acknowledged.
        let streams = vec![
            vec![Op::Write(memsys::addr::SHARED_BASE), Op::Barrier(0)],
            vec![Op::Barrier(0)],
        ];
        let r = custom(&cfg, streams);
        // The update transaction takes ≥25 cycles even with perfectly
        // aligned TDMA slots; without the drain the run would finish in a
        // handful of cycles.
        assert!(r.cycles >= 25, "barrier crossed before drain: {}", r.cycles);
    }
}
