//! Water — molecular dynamics of water, spatial allocation (paper
//! Table 4: 512 molecules, 4 timesteps).
//!
//! Each timestep computes pairwise forces between every molecule and a
//! fixed spatial neighbor set (cutoff radius ⇒ ~64 neighbors), then
//! updates positions. Force accumulation on a molecule another processor
//! owns is lock-protected. The distinguishing feature in the paper's data
//! is that Water is *compute-bound* — the O(n·K) interactions each cost
//! tens of FLOP-cycles — so read latency is a small fraction of run time
//! (Fig. 7) and every network wins little.
//!
//! Paper reuse class: **Moderate** (the 32 KB molecule arrays fit the
//! shared cache almost exactly).

use crate::gen::{chunked, group, partition, Alloc};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::AddressMap;

/// Molecule record size: positions + velocities of the three atoms (one
/// coherence block).
const MOL: u64 = 64;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Molecule count (paper: 512).
    pub molecules: u64,
    /// Neighbors per molecule inside the cutoff.
    pub neighbors: u64,
    /// Timesteps (paper: 4).
    pub steps: u64,
}

impl Params {
    /// The molecule count keeps its paper size; `scale` shrinks timesteps
    /// (min 1).
    pub fn scaled(scale: f64) -> Self {
        Self {
            molecules: 512,
            neighbors: 48,
            steps: ((4.0 * scale).round() as u64).max(1),
        }
    }
}

/// Heavy FP work per pair interaction (O-O, O-H, H-H terms).
const COMPUTE_PER_PAIR: u32 = 88;
const NLOCKS: u32 = 64;

/// Molecules per phase: 8 × 117 macro-ops at 48 neighbors, 29 KiB of
/// refill.
const MOLECULES_PER_PHASE: u64 = 8;

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let n = prm.molecules;
    let mut alloc = Alloc::new(map);
    let pos = alloc.shared(n, MOL);
    let force = alloc.shared(n, MOL);
    let procs = w.procs;

    (0..procs)
        .map(|me| {
            let mine = partition(n, procs, me);
            // Phases per timestep: the force loop's molecule groups, then
            // the position update. A molecule ends with a lock release, so
            // no compute coalesces across a cut.
            let groups = (mine.end - mine.start).div_ceil(MOLECULES_PER_PHASE);
            chunked(move |phase, c| {
                let (step, g) = (phase / (groups + 1), phase % (groups + 1));
                if step >= prm.steps {
                    return false;
                }
                if g < groups {
                    // Force computation: my molecules against their
                    // spatial neighborhoods (a deterministic mix of nearby
                    // indices — the spatial cell structure of the real
                    // code).
                    for i in group(&mine, MOLECULES_PER_PHASE, g) {
                        c.read(pos, i, MOL);
                        for k in 1..=prm.neighbors {
                            // Alternate close neighbors and a few across
                            // the box (periodic boundary).
                            let j = if k % 8 == 0 {
                                (i + k * 37) % n
                            } else {
                                (i + k) % n
                            };
                            c.read(pos, j, MOL);
                            c.compute(COMPUTE_PER_PAIR);
                        }
                        // Accumulate my own force with a per-molecule lock
                        // (another processor's pair may target it too).
                        let lock = (i % NLOCKS as u64) as u32 + 1;
                        c.acquire(lock);
                        c.read(force, i, MOL);
                        c.compute(3);
                        c.write(force, i, MOL);
                        c.release(lock);
                        // Scatter a few updates into neighbor forces.
                        for k in 1..=prm.neighbors / 16 {
                            let j = (i + k) % n;
                            let lock = (j % NLOCKS as u64) as u32 + 1;
                            c.acquire(lock);
                            c.read(force, j, MOL);
                            c.compute(3);
                            c.write(force, j, MOL);
                            c.release(lock);
                        }
                    }
                    return true;
                }
                let bar = (step as u32) * 2;
                c.barrier(bar);
                // Position update (local to my molecules).
                let (i0, ni) = (mine.start, mine.end - mine.start);
                if ni > 0 {
                    let mut upd = Nest::new(ni);
                    upd.read(force + i0 * MOL, MOL)
                        .read(pos + i0 * MOL, MOL)
                        .compute(12)
                        .write(pos + i0 * MOL, MOL);
                    c.nest(upd);
                }
                c.barrier(bar + 1);
                true
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;

    #[test]
    fn params_match_paper() {
        let p = Params::scaled(1.0);
        assert_eq!(p.molecules, 512);
        assert_eq!(p.steps, 4);
    }

    #[test]
    fn compute_dominates_refs() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Water, 4).scale(0.25);
        let ops: Vec<Op> = streams(&w, &map).remove(0).collect();
        let compute: u64 = ops
            .iter()
            .map(|o| match o {
                Op::Compute(n) => *n as u64,
                _ => 0,
            })
            .sum();
        let refs = ops.iter().filter(|o| o.is_ref()).count() as u64;
        // ~36 cycles of FP per pair read: heavily compute-bound.
        assert!(
            compute > 15 * refs,
            "compute {compute} refs {refs} — Water must be compute-bound"
        );
    }

    #[test]
    fn per_molecule_locks_protect_force_updates() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Water, 4).scale(0.25);
        for s in streams(&w, &map) {
            let ops: Vec<Op> = s.collect();
            // Every force write must happen while a lock is held.
            let mut depth = 0i32;
            let force_base = memsys::addr::SHARED_BASE + 512 * MOL;
            for op in &ops {
                match op {
                    Op::Acquire(_) => depth += 1,
                    Op::Release(_) => depth -= 1,
                    Op::Write(a) if *a >= force_base => {
                        assert!(depth > 0, "unprotected force write");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn shared_footprint_matches_cache_scale() {
        // pos + force = 2 * 512 * 64 B = 64 KB — the same order as the
        // shared cache, the property behind Water's moderate reuse.
        let p = Params::scaled(1.0);
        assert_eq!(2 * p.molecules * MOL, 64 * 1024);
    }
}
