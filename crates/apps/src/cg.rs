//! CG — NAS conjugate-gradient kernel (paper Table 4: 1400×1400 doubles,
//! 78148 non-zeros).
//!
//! Each iteration: a sparse matrix-vector product `q = A·p` (rows
//! block-partitioned; the gather `p[col[j]]` jumps randomly over the shared
//! `p` vector), two lock-protected global reductions, and axpy updates of
//! the shared vectors. The vectors (1400 doubles ≈ 11 KB each) are read by
//! every processor each iteration and mostly fit the shared cache; the
//! matrix itself streams through with no reuse — the mix that lands CG in
//! the paper's moderate group.
//!
//! Paper reuse class: **Moderate**.

use crate::gen::{chunked, group, partition, stream_rng, Alloc, ELEM8};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::AddressMap;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Matrix dimension (paper: 1400).
    pub n: u64,
    /// Non-zero count (paper: 78148).
    pub nnz: u64,
    /// CG iterations.
    pub iters: u64,
}

impl Params {
    /// The matrix keeps its paper size; `scale` shrinks iterations.
    pub fn scaled(scale: f64) -> Self {
        Self {
            n: 1400,
            nnz: 78148,
            iters: ((25.0 * scale).round() as u64).max(1),
        }
    }

    /// Average non-zeros per row.
    pub fn nnz_per_row(&self) -> u64 {
        self.nnz / self.n
    }
}

const APP_TAG: u64 = 0xC6;
const LOCK_ALPHA: u32 = 0;
const LOCK_RHO: u32 = 1;

/// Spmv rows per phase: 4 × 221 macro-ops at the paper's 55 non-zeros
/// per row, 28 KiB of refill.
const ROWS_PER_PHASE: u64 = 4;

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let n = prm.n;
    let per_row = prm.nnz_per_row();
    let mut alloc = Alloc::new(map);
    // Shared vectors (doubles).
    let p_vec = alloc.shared(n, ELEM8);
    let q_vec = alloc.shared(n, ELEM8);
    let r_vec = alloc.shared(n, ELEM8);
    let z_vec = alloc.shared(n, ELEM8);
    let gsum = alloc.shared(4, ELEM8);
    // Matrix values + column indices: shared, read-only, streamed.
    let a_val = alloc.shared(prm.nnz, ELEM8);
    let a_col = alloc.shared(prm.nnz, 4);
    let procs = w.procs;
    let seed = w.seed;

    (0..procs)
        .map(|me| {
            let rows = partition(n, procs, me);
            // Phases per iteration: the spmv's row groups, then the
            // reductions and vector updates. A row ends with a write, so
            // no compute coalesces across a cut.
            let groups = (rows.end - rows.start).div_ceil(ROWS_PER_PHASE);
            let mut rng = stream_rng(seed, APP_TAG, me); // re-seeded per iteration
            chunked(move |phase, c| {
                let (iter, step) = (phase / (groups + 1), phase % (groups + 1));
                if iter >= prm.iters {
                    return false;
                }
                if step < groups {
                    // The sparsity pattern must be identical every
                    // iteration: re-seed per processor, not per phase.
                    if step == 0 {
                        rng = stream_rng(seed, APP_TAG, me);
                    }
                    // q = A * p over my rows. The p-gather jumps randomly,
                    // so the spmv stays scalar (the index/value streams
                    // ride along in program order).
                    for row in group(&rows, ROWS_PER_PHASE, step) {
                        for j in 0..per_row {
                            let idx = row * per_row + j;
                            c.read(a_col, idx, 4); // column index
                            c.read(a_val, idx, ELEM8); // matrix value
                            let col = rng.below(n); // gather target
                            c.read(p_vec, col, ELEM8);
                            c.compute(8); // index arithmetic + FMA + loop
                        }
                        c.write(q_vec, row, ELEM8);
                    }
                    return true;
                }
                let bar = (iter as u32) * 4;
                let (r0, nrows) = (rows.start, rows.end - rows.start);
                c.barrier(bar);
                // alpha = p . q (local partial sum, then lock-protected
                // accumulation).
                if nrows > 0 {
                    let mut dot = Nest::new(nrows);
                    dot.read(p_vec + r0 * ELEM8, ELEM8)
                        .read(q_vec + r0 * ELEM8, ELEM8)
                        .compute(2);
                    c.nest(dot);
                }
                c.acquire(LOCK_ALPHA);
                c.read(gsum, 0, ELEM8);
                c.compute(2);
                c.write(gsum, 0, ELEM8);
                c.release(LOCK_ALPHA);
                c.barrier(bar + 1);
                // z += alpha p ; r -= alpha q over my rows.
                c.read(gsum, 0, ELEM8);
                if nrows > 0 {
                    let mut axpy = Nest::new(nrows);
                    axpy.read(p_vec + r0 * ELEM8, ELEM8)
                        .read(z_vec + r0 * ELEM8, ELEM8)
                        .compute(2)
                        .write(z_vec + r0 * ELEM8, ELEM8)
                        .read(q_vec + r0 * ELEM8, ELEM8)
                        .read(r_vec + r0 * ELEM8, ELEM8)
                        .compute(2)
                        .write(r_vec + r0 * ELEM8, ELEM8);
                    c.nest(axpy);
                }
                c.barrier(bar + 2);
                // rho = r . r, then p = r + beta p.
                if nrows > 0 {
                    let mut rho = Nest::new(nrows);
                    rho.read(r_vec + r0 * ELEM8, ELEM8).compute(2);
                    c.nest(rho);
                }
                c.acquire(LOCK_RHO);
                c.read(gsum, 1, ELEM8);
                c.compute(2);
                c.write(gsum, 1, ELEM8);
                c.release(LOCK_RHO);
                c.barrier(bar + 3);
                c.read(gsum, 1, ELEM8);
                if nrows > 0 {
                    let mut upd = Nest::new(nrows);
                    upd.read(r_vec + r0 * ELEM8, ELEM8)
                        .read(p_vec + r0 * ELEM8, ELEM8)
                        .compute(2)
                        .write(p_vec + r0 * ELEM8, ELEM8);
                    c.nest(upd);
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
        assert_eq!(p.n, 1400);
        assert_eq!(p.nnz, 78148);
        assert_eq!(p.nnz_per_row(), 55);
    }

    #[test]
    fn sparsity_pattern_stable_across_iterations() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Cg, 2).scale(0.08); // 2 iters
        let ops: Vec<Op> = streams(&w, &map).remove(0).collect();
        // Collect the p-vector gather addresses of each iteration's spmv.
        let p_base = memsys::addr::SHARED_BASE;
        let p_hi = p_base + 1400 * 8;
        let gathers: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Read(a) if *a >= p_base && *a < p_hi => Some(*a),
                _ => None,
            })
            .collect();
        // Two iterations must gather identical sequences (same matrix).
        let half = gathers.len() / 2;
        // spmv gathers dominate; compare the first few hundred.
        assert!(half > 500);
        assert_eq!(&gathers[..500], &gathers[half..half + 500]);
    }

    #[test]
    fn reductions_use_locks() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Cg, 4).scale(0.04);
        let ops: Vec<Op> = streams(&w, &map).remove(1).collect();
        let acquires = ops.iter().filter(|o| matches!(o, Op::Acquire(_))).count() as u64;
        let p = Params::scaled(0.04);
        assert_eq!(acquires, 2 * p.iters);
    }

    #[test]
    fn four_barriers_per_iteration() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Cg, 2).scale(0.04);
        let p = Params::scaled(0.04);
        let bars = streams(&w, &map)
            .remove(0)
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count() as u64;
        assert_eq!(bars, 4 * p.iters);
    }
}
