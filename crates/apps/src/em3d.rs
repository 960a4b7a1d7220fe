//! Em3d — electromagnetic wave propagation through 3-D objects (paper
//! Table 4: 8 K nodes, 5% remote edges, 10 iterations; UC Berkeley code).
//!
//! A bipartite graph of E-field and H-field nodes. Each iteration, every
//! E node recomputes its value from its H-node neighbors, then (after a
//! barrier) every H node from its E-node neighbors. 95% of a node's
//! neighbors lie in the owning processor's partition, 5% are uniformly
//! remote. The per-processor value footprint is small but the neighbor
//! (edge) lists are large private arrays that thrash the small caches —
//! the reason the paper sees catastrophic single-node cache behaviour and
//! *superlinear* 16-node speedup.
//!
//! Paper reuse class: **Low** (<32% shared-cache hit rate).

use crate::gen::{chunked, group, partition, stream_rng, Alloc, ELEM, ELEM8};
use crate::ops::OpStream;
use crate::workload::Workload;
use memsys::AddressMap;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Nodes per side of the bipartite graph (paper total: 8 K).
    pub nodes_per_side: u64,
    /// Out-degree of each node.
    pub degree: u64,
    /// Fraction of remote neighbors (paper: 5%).
    pub remote_frac: f64,
    /// Iterations (paper: 10).
    pub iters: u64,
}

impl Params {
    /// The graph keeps its paper size; `scale` shrinks iterations.
    pub fn scaled(scale: f64) -> Self {
        Self {
            nodes_per_side: 4096,
            degree: 6,
            remote_frac: 0.05,
            iters: ((10.0 * scale).round() as u64).max(1),
        }
    }
}

const APP_TAG: u64 = 0xE3;

/// Graph nodes per phase: 32 × 26 macro-ops at degree 6, 26 KiB of
/// refill.
const NODES_PER_PHASE: u64 = 32;

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let n = prm.nodes_per_side;
    let mut alloc = Alloc::new(map);
    let e_vals = alloc.shared(n, ELEM);
    let h_vals = alloc.shared(n, ELEM);
    // The graph itself (neighbor index + coefficient per edge) lives in
    // shared memory, as in the Berkeley code: ~768 KB at paper size — far
    // beyond every cache, so edge-list reads stream with no reuse. This is
    // what makes Em3d a Low-reuse app with terrible cache behaviour.
    // Each processor's edge region is allocated separately with a
    // processor-dependent pad, so the regions' home-node phases differ —
    // real graph builds interleave node and edge storage irregularly; a
    // perfectly block-interleave-aligned layout would send every
    // processor's (identically paced) edge stream to the same sequence of
    // homes in lockstep, a memory convoy no real run exhibits.
    let procs = w.procs;
    let region_elems = 2 * n / procs as u64 * prm.degree * 2;
    let edge_regions: Vec<u64> = (0..procs)
        .map(|p| {
            let _pad = alloc.shared(((p % 16) as u64 + 1) * 16, 4);
            alloc.shared(region_elems, ELEM8)
        })
        .collect();
    let seed = w.seed;

    (0..procs)
        .map(move |me| {
            let mine = partition(n, procs, me);
            // My own shared edge region.
            let edges = edge_regions[me];
            // Phases per iteration: the E half's node groups, then the H
            // half's; each half's last group carries its barrier. A node
            // ends with a write, so no compute coalesces across a cut.
            let groups = (mine.end - mine.start).div_ceil(NODES_PER_PHASE).max(1);
            let mut rng = stream_rng(seed, APP_TAG, me); // re-seeded per iteration
            let mut edge_cursor = 0u64;
            chunked(move |phase, c| {
                let (iter, step) = (phase / (2 * groups), phase % (2 * groups));
                if iter >= prm.iters {
                    return false;
                }
                if step == 0 {
                    // Graph structure must be identical across iterations.
                    rng = stream_rng(seed, APP_TAG, me);
                    edge_cursor = 0;
                }
                // Half 0: E nodes read H neighbors; half 1: vice versa.
                let (half, g) = (step / groups, step % groups);
                let (vals_mine, vals_other) = if half == 0 {
                    (e_vals, h_vals)
                } else {
                    (h_vals, e_vals)
                };
                for _node in group(&mine, NODES_PER_PHASE, g) {
                    for _d in 0..prm.degree {
                        // Read the edge record (private: index+weight).
                        c.read(edges, edge_cursor, ELEM8);
                        c.read(edges, edge_cursor + 1, ELEM8);
                        edge_cursor += 2;
                        // Pick the neighbor: 95% inside my partition of
                        // the other side, 5% uniformly remote.
                        let nb = if rng.chance(prm.remote_frac) {
                            rng.below(n)
                        } else {
                            rng.range(mine.start, mine.end)
                        };
                        c.read(vals_other, nb, ELEM);
                        c.compute(13); // weight multiply-accumulate + pointer arithmetic
                    }
                    let own = rng.range(mine.start, mine.end);
                    c.compute(2);
                    c.write(vals_mine, own, ELEM);
                }
                if g + 1 == groups {
                    c.barrier((iter * 2 + half) as u32);
                }
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
        assert_eq!(2 * p.nodes_per_side, 8192);
        assert_eq!(p.iters, 10);
        assert!((p.remote_frac - 0.05).abs() < 1e-9);
    }

    #[test]
    fn remote_fraction_is_roughly_five_percent() {
        let map = AddressMap::new(8, 64);
        let w = Workload::new(crate::AppId::Em3d, 8).scale(0.1);
        let prm = Params::scaled(0.1);
        let n = prm.nodes_per_side;
        let e_base = memsys::addr::SHARED_BASE;
        let h_base = e_base + ((n * 4 + 63) & !63);
        let mine = partition(n, 8, 3);
        let (lo, hi) = (mine.start, mine.end);
        let mut local = 0u64;
        let mut remote = 0u64;
        for op in streams(&w, &map).remove(3) {
            if let Op::Read(a) = op {
                // Neighbor-value reads land in the shared value arrays.
                let idx = if a >= h_base && a < h_base + n * 4 {
                    Some((a - h_base) / 4)
                } else if a >= e_base && a < e_base + n * 4 {
                    Some((a - e_base) / 4)
                } else {
                    None
                };
                if let Some(i) = idx {
                    if i >= lo && i < hi {
                        local += 1;
                    } else {
                        remote += 1;
                    }
                }
            }
        }
        let frac = remote as f64 / (local + remote) as f64;
        // 5% of picks are uniform over all nodes; 7/8 of those are outside
        // my partition -> expected remote fraction ≈ 4.4%.
        assert!((0.02..0.08).contains(&frac), "remote frac {frac}");
    }

    #[test]
    fn graph_stable_across_iterations() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Em3d, 2).scale(0.2); // 2 iters
        let ops: Vec<Op> = streams(&w, &map).remove(0).collect();
        let reads: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Read(a) => Some(*a),
                _ => None,
            })
            .collect();
        let half = reads.len() / 2;
        assert_eq!(&reads[..half], &reads[half..]);
    }

    #[test]
    fn two_barriers_per_iteration() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Em3d, 2).scale(0.1);
        let prm = Params::scaled(0.1);
        let bars = streams(&w, &map)
            .remove(0)
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count() as u64;
        assert_eq!(bars, 2 * prm.iters);
    }
}
