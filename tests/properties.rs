//! Property-based tests on the core data structures and on whole-machine
//! invariants under randomized workloads.
//!
//! The build environment has no access to a crates.io registry, so these
//! use an in-tree harness instead of `proptest`: [`check`] runs each
//! property over many independently seeded cases of the simulator's own
//! deterministic RNG and reports the failing seed, which reproduces the
//! case exactly (re-run with that seed to shrink by hand). The properties
//! themselves are unchanged from the original proptest suite.

use netcache::apps::{Op, OpStream};
use netcache::mem::addr::SHARED_BASE;
use netcache::mem::{Cache, CacheCfg, CoalescingWriteBuffer, ReadOutcome};
use netcache::sim::Xoshiro256StarStar;
use netcache::sim::{EventQueue, FifoServer, SlottedServer};
use netcache::{run_streams, Arch, EngineScratch, RingCache, RingConfig, RingLookup, SysConfig};
use std::collections::{HashSet, VecDeque};

/// Runs `f` over `cases` independently seeded RNGs; a panic inside one
/// case is re-raised tagged with the seed that reproduces it.
fn check(cases: u64, f: impl Fn(&mut Xoshiro256StarStar) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = 0xC0FF_EE00 ^ (case * 0x9E37_79B9);
        let result = std::panic::catch_unwind(|| {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            f(&mut rng);
        });
        if result.is_err() {
            panic!("property failed on case {case} (rng seed {seed:#x}); see panic above");
        }
    }
}

/// Random vector with `len` in `[min_len, max_len)`, elements from `gen`.
fn rand_vec<T>(
    rng: &mut Xoshiro256StarStar,
    min_len: u64,
    max_len: u64,
    mut gen: impl FnMut(&mut Xoshiro256StarStar) -> T,
) -> Vec<T> {
    let len = rng.range(min_len, max_len);
    (0..len).map(|_| gen(rng)).collect()
}

// ---------------------------------------------------------------------
// Event queue: behaves like a stable sort by (time, insertion order).

#[test]
fn event_queue_is_a_stable_time_sort() {
    check(64, |rng| {
        let times = rand_vec(rng, 1, 200, |r| r.below(1000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut reference: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        reference.sort_by_key(|&(t, i)| (t, i));
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        assert_eq!(popped, reference);
    });
}

// ---------------------------------------------------------------------
// FIFO server: starts are monotone, never before arrival, and the
// server is never double-booked.

#[test]
fn fifo_server_never_double_books() {
    check(64, |rng| {
        let mut arrivals = rand_vec(rng, 1, 100, |r| (r.below(100), r.range(1, 50)));
        arrivals.sort_by_key(|&(a, _)| a);
        let mut s = FifoServer::new();
        let mut prev_end = 0u64;
        for &(a, d) in &arrivals {
            let start = s.acquire(a, d);
            assert!(start >= a);
            assert!(start >= prev_end, "overlap: {start} < {prev_end}");
            prev_end = start + d;
        }
    });
}

// ---------------------------------------------------------------------
// TDMA server: grants land on the client's own slot boundaries, never
// overlap a long message, and never exceed one grant per client frame.

#[test]
fn slotted_server_respects_tdma() {
    check(64, |rng| {
        let mut reqs = rand_vec(rng, 1, 100, |r| {
            (r.below(8) as usize, r.below(200), r.range(1, 3))
        });
        reqs.sort_by_key(|&(_, a, _)| a);
        let mut s = SlottedServer::new(8, 1);
        let mut grants: Vec<(usize, u64, u64)> = Vec::new();
        for &(c, a, d) in &reqs {
            let start = s.acquire(c, a, d);
            assert!(start >= a);
            assert_eq!(start % 8, c as u64, "slot phase");
            grants.push((c, start, d));
        }
        // One grant per client per frame.
        let mut per_client: Vec<Vec<u64>> = vec![Vec::new(); 8];
        for &(c, start, _) in &grants {
            per_client[c].push(start);
        }
        for starts in per_client {
            let uniq: HashSet<u64> = starts.iter().copied().collect();
            assert_eq!(uniq.len(), starts.len(), "client reused a slot");
        }
        // Long messages block everything they overlap.
        for &(_, s1, d1) in &grants {
            if d1 <= 1 {
                continue;
            }
            for &(_, s2, _) in &grants {
                assert!(
                    s2 <= s1 || s2 >= s1 + d1,
                    "grant at {s2} inside long message [{s1},{})",
                    s1 + d1
                );
            }
        }
    });
}

// ---------------------------------------------------------------------
// Cache vs. a reference model (set of resident blocks with per-set
// capacity): presence always agrees.

#[test]
fn cache_matches_reference_model() {
    check(64, |rng| {
        let ops = rand_vec(rng, 1, 400, |r| (r.below(64), r.chance(0.5)));
        // 4 sets x 2 ways, 64 B blocks.
        let mut c = Cache::new(CacheCfg {
            size_bytes: 512,
            block_bytes: 64,
            assoc: 2,
        });
        // reference: per set, LRU list of blocks (max 2).
        let mut sets: Vec<VecDeque<u64>> = vec![VecDeque::new(); 4];
        for &(block, is_fill) in &ops {
            let a = block * 64;
            let set = (block % 4) as usize;
            let resident = sets[set].contains(&block);
            assert_eq!(c.contains(a), resident, "block {}", block);
            if is_fill {
                if c.read(a) == ReadOutcome::Miss {
                    c.fill(a, false);
                    if resident {
                        unreachable!();
                    }
                    if sets[set].len() == 2 {
                        sets[set].pop_front();
                    }
                    sets[set].push_back(block);
                } else {
                    // refresh LRU position
                    let pos = sets[set].iter().position(|&b| b == block).unwrap();
                    sets[set].remove(pos);
                    sets[set].push_back(block);
                }
            } else if c.invalidate(a).is_some() {
                let pos = sets[set].iter().position(|&b| b == block).unwrap();
                sets[set].remove(pos);
            }
        }
    });
}

// ---------------------------------------------------------------------
// Write buffer: pop order is FIFO over first-write order; coalescing
// never loses a word.

#[test]
fn write_buffer_preserves_words() {
    check(64, |rng| {
        let writes = rand_vec(rng, 1, 64, |r| (r.below(6), r.below(16) as u32));
        let mut wb = CoalescingWriteBuffer::new(8);
        let mut reference: Vec<(u64, u32)> = Vec::new(); // (block, mask)
        for &(block, word) in &writes {
            match wb.push(block, block * 64 + word as u64 * 4, word, true) {
                netcache::mem::PushOutcome::Full => {
                    // Drain one entry and retry; mirror in the reference.
                    let e = wb.pop().unwrap();
                    let (rb, rm) = reference.remove(0);
                    assert_eq!(e.block, rb);
                    assert_eq!(e.mask, rm);
                    wb.push(block, block * 64 + word as u64 * 4, word, true);
                    push_ref(&mut reference, block, word);
                }
                _ => push_ref(&mut reference, block, word),
            }
        }
        while let Some(e) = wb.pop() {
            let (rb, rm) = reference.remove(0);
            assert_eq!(e.block, rb);
            assert_eq!(e.mask, rm);
        }
        assert!(reference.is_empty());
    });
}

fn push_ref(reference: &mut Vec<(u64, u32)>, block: u64, word: u32) {
    if let Some(e) = reference.iter_mut().find(|(b, _)| *b == block) {
        e.1 |= 1 << word;
    } else {
        reference.push((block, 1 << word));
    }
}

// ---------------------------------------------------------------------
// Ring cache: occupancy bounded by capacity; a hit is always preceded
// by an insert of that block; lookups after insert+roundtrip hit.

#[test]
fn ring_cache_capacity_and_presence() {
    check(64, |rng| {
        let blocks = rand_vec(rng, 1, 300, |r| r.below(512));
        let cfg = RingConfig {
            channels: 16,
            ..RingConfig::base()
        };
        let mut ring = RingCache::new(cfg, 16);
        let mut t = 0u64;
        for &b in &blocks {
            t += 17;
            match ring.lookup(b, (b % 16) as usize, t) {
                RingLookup::Miss => {
                    let valid = ring.insert(b, (b % 16) as usize, t);
                    assert!(valid >= t);
                    assert!(valid <= t + cfg.roundtrip);
                    assert!(ring.contains(b));
                }
                RingLookup::Hit { ready } | RingLookup::InFlight { ready } => {
                    assert!(ring.contains(b));
                    assert!(ready >= t);
                    // One roundtrip + overhead bounds any wait.
                    assert!(ready <= t + 2 * cfg.roundtrip + 45);
                }
            }
            assert!(ring.occupancy() <= ring.capacity());
        }
    });
}

// ---------------------------------------------------------------------
// Whole-machine properties under randomized (but well-formed) workloads.

/// Phases of random reads/writes/compute separated by barriers; every
/// processor gets the same barrier sequence.
fn arb_workload(rng: &mut Xoshiro256StarStar, procs: usize) -> Vec<Vec<Op>> {
    let phases = rand_vec(rng, 1, 5, |r| {
        rand_vec(r, 5, 60, |rr| (rr.below(2048), rr.below(10) as u8))
    });
    (0..procs)
        .map(|p| {
            let mut ops = Vec::new();
            for (bar, phase) in phases.iter().enumerate() {
                for &(loc, kind) in phase {
                    let a = SHARED_BASE + (loc.wrapping_add(p as u64 * 13) % 2048) * 4;
                    match kind {
                        0..=5 => ops.push(Op::Read(a)),
                        6..=8 => ops.push(Op::Write(a)),
                        _ => ops.push(Op::Compute(1 + (loc % 20) as u32)),
                    }
                }
                ops.push(Op::Barrier(bar as u32));
            }
            ops
        })
        .collect()
}

#[test]
fn machine_terminates_and_accounts_time() {
    check(24, |rng| {
        let wl = arb_workload(rng, 4);
        let arch = Arch::ALL[rng.below(4) as usize];
        let cfg = SysConfig::base(arch).with_nodes(4);
        let streams: Vec<OpStream> = wl.into_iter().map(OpStream::from_ops).collect();
        let r = run_streams(&cfg, streams, &mut EngineScratch::new());
        assert!(r.cycles > 0);
        for n in &r.nodes {
            let accounted = n.busy + n.read_stall + n.wb_stall + n.sync_stall;
            assert!(accounted <= n.finish + 1);
        }
    });
}

// ---------------------------------------------------------------------
// Fabric invariants: random fabrics (all three kinds, random shapes),
// random endpoints. Hop latencies must be positive and symmetric, and
// every traversal must charge exactly one link with the latency it
// returns.

use netcache::{Fabric, TopoKind};

/// A random fabric of a random kind and shape (1–64 nodes, 1–8 rings,
/// 1–4 pcycle hops), with its node count.
fn arb_fabric(rng: &mut Xoshiro256StarStar) -> (Fabric, u64) {
    let nodes = rng.range(1, 65);
    let kind = TopoKind::ALL[rng.below(3) as usize];
    let mut cfg = SysConfig::base(Arch::NetCache)
        .with_nodes(nodes as usize)
        .with_topology(kind);
    if kind == TopoKind::MultiRing {
        cfg = cfg.with_rings(rng.range(1, 9) as usize);
    }
    cfg.optics.flight = rng.range(1, 5);
    (Fabric::new(&cfg), nodes)
}

#[test]
fn hop_latencies_are_positive_and_symmetric() {
    check(128, |rng| {
        let (mut t, n) = arb_fabric(rng);
        for _ in 0..32 {
            let (a, b) = (rng.below(n) as usize, rng.below(n) as usize);
            let ab = t.hop(a, b);
            assert!(ab > 0, "hop latency must be positive");
            assert_eq!(ab, t.hop(b, a), "hop latency must be symmetric");
            // A broadcast reaches the farthest node, so it can never be
            // cheaper than any point-to-point hop from the same sender.
            assert!(t.broadcast(a) >= ab, "broadcast cheaper than a hop");
        }
    });
}

#[test]
fn link_counters_sum_to_frames_injected() {
    check(128, |rng| {
        let (mut t, n) = arb_fabric(rng);
        let ops = rng.range(1, 200);
        let mut latency = 0;
        for _ in 0..ops {
            latency += match rng.below(3) {
                0 => t.hop(rng.below(n) as usize, rng.below(n) as usize),
                1 => t.broadcast(rng.below(n) as usize),
                _ => {
                    t.ring_access(rng.below(t.rings() as u64) as usize);
                    1
                }
            };
        }
        let rows = t.report();
        for (name, frames, busy) in &rows {
            // Busy time accumulates at least one pcycle per frame.
            assert!(busy >= frames, "link {name}: busy {busy} < frames {frames}");
        }
        assert_eq!(
            rows.iter().map(|(_, f, _)| f).sum::<u64>(),
            ops,
            "per-link frames must sum to the traversals made"
        );
        assert_eq!(
            rows.iter().map(|(_, _, b)| b).sum::<u64>(),
            latency,
            "per-link busy time must sum to the latencies returned"
        );
    });
}

/// Machine-level closure of the same invariant: a full protocol run's
/// per-link report is shaped by the fabric's enumeration, and remote
/// traffic actually lands on it.
#[test]
fn machine_link_reports_follow_the_fabric() {
    check(8, |rng| {
        let wl = arb_workload(rng, 8);
        let kinds = [
            (TopoKind::Single, 1usize),
            (TopoKind::MultiRing, 2),
            (TopoKind::StarOfRings, 1),
        ];
        let (kind, rings) = kinds[rng.below(3) as usize];
        let cfg = SysConfig::base(Arch::NetCache)
            .with_nodes(8)
            .with_topology(kind)
            .with_rings(rings);
        cfg.validate().expect("valid topology");
        let fabric = Fabric::new(&cfg).report();
        let streams: Vec<OpStream> = wl
            .iter()
            .map(|ops| OpStream::from_ops(ops.clone()))
            .collect();
        let r = run_streams(&cfg, streams, &mut EngineScratch::new());
        assert_eq!(r.links.len(), fabric.len(), "one row per fabric link");
        for ((name, _, _), (link, _, _)) in r.links.iter().zip(&fabric) {
            assert_eq!(name, link, "rows are in link-id order");
        }
        let total: u64 = r.links.iter().map(|(_, f, _)| f).sum();
        assert!(total > 0, "a shared workload must inject fabric frames");
    });
}

#[test]
fn machine_is_deterministic_on_random_workloads() {
    check(24, |rng| {
        let wl = arb_workload(rng, 4);
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
        let mk = |wl: &Vec<Vec<Op>>| {
            let streams: Vec<OpStream> = wl
                .iter()
                .map(|ops| OpStream::from_ops(ops.clone()))
                .collect();
            run_streams(&cfg, streams, &mut EngineScratch::new())
        };
        let a = mk(&wl);
        let b = mk(&wl);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_read_stall(), b.total_read_stall());
        assert_eq!(a.events, b.events);
    });
}
