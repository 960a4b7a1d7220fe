//! LU — SPLASH-2 blocked dense LU factorization (paper Table 4: 512×512
//! floats; 16×16 blocks).
//!
//! Blocks are scattered over processors 2-D round-robin. Step `k`:
//! the diagonal block `(k,k)` is factored by its owner; after a barrier
//! the perimeter blocks of row/column `k` are updated (each reading the
//! diagonal block); after another barrier the interior blocks `(i,j)`,
//! `i,j > k` are updated, each reading perimeter blocks `(i,k)` and
//! `(k,j)`. Every perimeter block is read by a whole row/column of interior
//! owners right after being produced — heavy producer/multi-consumer reuse.
//!
//! Paper reuse class: **High** (~70% shared-cache hit rate).

use crate::gen::{chunked, Alloc, ELEM};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::{Addr, AddressMap};

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Matrix dimension (paper: 512).
    pub n: u64,
    /// Block dimension (SPLASH-2 default: 16).
    pub b: u64,
}

impl Params {
    /// Work is Θ(n³): scale the dimension by its cube root, keeping it a
    /// multiple of the block size.
    pub fn scaled(scale: f64) -> Self {
        let b = 16;
        let n = (512.0 * scale.powf(1.0 / 3.0)).round() as u64;
        Self {
            n: (n / b * b).max(4 * b),
            b,
        }
    }

    /// Blocks per dimension.
    pub fn nb(&self) -> u64 {
        self.n / self.b
    }
}

const COMPUTE_PER_ELEM: u32 = 9;

/// Blocks per phase: 4 blocks of 16 row nests, 22 KiB of refill.
const BLOCKS_PER_PHASE: u64 = 4;

/// Owner of block (i, j): 2-D scatter.
#[inline]
fn owner(i: u64, j: u64, nb: u64, procs: u64) -> u64 {
    (i + j * nb) % procs
}

/// Byte address of element (x, y) of block (bi, bj).
#[inline]
fn elem_addr(a: Addr, n: u64, b: u64, bi: u64, bj: u64, x: u64, y: u64) -> Addr {
    a + (((bi * b + x) * n) + bj * b + y) * ELEM
}

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let (n, b, nb) = (prm.n, prm.b, prm.nb());
    let mut alloc = Alloc::new(map);
    let a = alloc.shared(n * n, ELEM);
    let procs = w.procs as u64;

    (0..w.procs)
        .map(|me| {
            let me64 = me as u64;
            // Cursor: step k, its stage (0 diagonal, 1 perimeter, 2
            // interior), and the stage's next candidate block. A phase
            // takes up to BLOCKS_PER_PHASE of my blocks; every block row
            // nest ends with a write, so no compute coalesces across a cut.
            let mut k = 0;
            let mut stage = 0;
            let mut next = 0u64;
            chunked(move |_, c| {
                if k >= nb {
                    return false;
                }
                if stage == 0 {
                    // Phase 1: factor diagonal block (k,k).
                    if owner(k, k, nb, procs) == me64 {
                        for x in 0..b {
                            let mut body = Nest::new(b);
                            body.read(elem_addr(a, n, b, k, k, x, 0), ELEM)
                                .compute(COMPUTE_PER_ELEM)
                                .write(elem_addr(a, n, b, k, k, x, 0), ELEM);
                            c.nest(body);
                        }
                    }
                    c.barrier(3 * k as u32);
                    stage = 1;
                    return true;
                }
                // Phase 2: perimeter blocks (t,k) and (k,t) for t past k
                // read the diag; phase 3: interior blocks (i,j) read the
                // perimeter blocks (i,k) and (k,j).
                let m = nb - k - 1;
                let total = if stage == 1 { 2 * m } else { m * m };
                let mut taken = 0;
                while next < total && taken < BLOCKS_PER_PHASE {
                    let (bi, bj) = if stage == 1 {
                        let t = k + 1 + next / 2;
                        if next.is_multiple_of(2) {
                            (t, k)
                        } else {
                            (k, t)
                        }
                    } else {
                        (k + 1 + next / m, k + 1 + next % m)
                    };
                    next += 1;
                    if owner(bi, bj, nb, procs) != me64 {
                        continue;
                    }
                    taken += 1;
                    for x in 0..b {
                        let mut body = Nest::new(b);
                        if stage == 1 {
                            // Read the diagonal block (hot) + own elem;
                            // the diag is walked transposed, so its inner
                            // stride is a whole matrix row.
                            body.read(elem_addr(a, n, b, k, k, 0, x), n * ELEM)
                                .read(elem_addr(a, n, b, bi, bj, x, 0), ELEM);
                        } else {
                            body.read(elem_addr(a, n, b, bi, k, x, 0), ELEM) // L block (hot)
                                .read(elem_addr(a, n, b, k, bj, x, 0), ELEM) // U block (hot)
                                .read(elem_addr(a, n, b, bi, bj, x, 0), ELEM);
                        }
                        body.compute(COMPUTE_PER_ELEM)
                            .write(elem_addr(a, n, b, bi, bj, x, 0), ELEM);
                        c.nest(body);
                    }
                }
                if next == total {
                    c.barrier(3 * k as u32 + stage);
                    next = 0;
                    stage = (stage + 1) % 3;
                    if stage == 0 {
                        k += 1;
                    }
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
    fn scaled_dims_are_block_multiples() {
        let p = Params::scaled(1.0);
        assert_eq!(p.n, 512);
        assert_eq!(p.nb(), 32);
        let q = Params::scaled(0.01);
        assert_eq!(q.n % q.b, 0);
        assert!(q.n >= 64);
    }

    #[test]
    fn three_barriers_per_step() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Lu, 2).scale(0.01);
        let nb = Params::scaled(0.01).nb();
        let barriers = streams(&w, &map)
            .remove(0)
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count() as u64;
        assert_eq!(barriers, 3 * nb);
    }

    #[test]
    fn block_scatter_covers_all_owners() {
        let nb = 8;
        let procs = 4;
        let mut counts = vec![0u64; procs as usize];
        for i in 0..nb {
            for j in 0..nb {
                counts[owner(i, j, nb, procs) as usize] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == nb * nb / procs));
    }

    #[test]
    fn interior_dominates_early_steps() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Lu, 4).scale(0.01);
        let ops: Vec<Op> = streams(&w, &map).remove(0).collect();
        // Refs between Barrier(1) and Barrier(2) (interior of step 0)
        // should exceed refs before Barrier(0) (diag of step 0).
        let b0 = ops.iter().position(|o| *o == Op::Barrier(0)).unwrap();
        let b1 = ops.iter().position(|o| *o == Op::Barrier(1)).unwrap();
        let b2 = ops.iter().position(|o| *o == Op::Barrier(2)).unwrap();
        let diag = ops[..b0].iter().filter(|o| o.is_ref()).count();
        let interior = ops[b1..b2].iter().filter(|o| o.is_ref()).count();
        assert!(interior > diag, "interior {interior} diag {diag}");
    }

    #[test]
    fn element_addresses_stay_in_matrix() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Lu, 2).scale(0.01);
        let n = Params::scaled(0.01).n;
        let base = memsys::addr::SHARED_BASE;
        let hi = base + n * n * 4 + 64;
        for s in streams(&w, &map) {
            for op in s {
                if let Op::Read(x) | Op::Write(x) = op {
                    assert!(x >= base && x < hi);
                }
            }
        }
    }
}
