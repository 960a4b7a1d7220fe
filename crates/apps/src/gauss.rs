//! Gauss — unblocked Gaussian elimination without pivoting (paper Table 4:
//! 256×256 floats; locally developed code).
//!
//! Rows are assigned cyclically for load balance. At step `k` the owner
//! normalizes pivot row `k`; after a barrier every processor eliminates
//! its rows below `k`, reading the pivot row once per owned row. The pivot
//! row is therefore read by *all* processors shortly after being produced —
//! the textbook producer/multi-consumer pattern that the ring shared cache
//! is built for.
//!
//! Paper reuse class: **High** (~70% shared-cache hit rate; the paper's
//! representative high-reuse app in Figs. 13–15).

use crate::gen::{chunked, Alloc, ELEM};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::AddressMap;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Matrix dimension (paper: 256).
    pub n: u64,
}

impl Params {
    /// Work is Θ(n³), so `scale` shrinks the dimension by its cube root.
    pub fn scaled(scale: f64) -> Self {
        let n = (256.0 * scale.powf(1.0 / 3.0)).round() as u64;
        Self {
            n: (n / 8 * 8).max(48),
        }
    }
}

const COMPUTE_PER_ELEM: u32 = 4;

/// Rows eliminated per phase: 64 × (2 ops + 1 nest), 26 KiB of refill.
const ROWS_PER_PHASE: u64 = 64;

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let n = prm.n;
    let mut alloc = Alloc::new(map);
    let a = alloc.shared(n * n, ELEM);
    let procs = w.procs as u64;

    (0..w.procs)
        .map(|me| {
            let me64 = me as u64;
            // Cursor: pivot step k, and the next of my rows to eliminate
            // (`None` until the pivot row is out). Each phase takes up to
            // ROWS_PER_PHASE rows; a row opens with a read, so no compute
            // coalesces across a cut.
            let mut k = 0;
            let mut next_row = None;
            chunked(move |_, c| {
                if k >= n - 1 {
                    return false;
                }
                let mut r = match next_row {
                    Some(r) => r,
                    None => {
                        // Owner normalizes the pivot row (divide by
                        // a[k][k]).
                        if k % procs == me64 {
                            c.read(a, k * n + k, ELEM);
                            let mut norm = Nest::new(n - k);
                            norm.read(a + (k * n + k) * ELEM, ELEM)
                                .compute(COMPUTE_PER_ELEM)
                                .write(a + (k * n + k) * ELEM, ELEM);
                            c.nest(norm);
                        }
                        c.barrier(2 * k as u32);
                        // Everyone eliminates their rows below k.
                        k + 1 + ((me64 + procs - (k + 1) % procs) % procs)
                    }
                };
                for _ in 0..ROWS_PER_PHASE {
                    if r >= n {
                        break;
                    }
                    c.read(a, r * n + k, ELEM); // multiplier
                    c.compute(COMPUTE_PER_ELEM);
                    let mut elim = Nest::new(n - k - 1);
                    elim.read(a + (k * n + k + 1) * ELEM, ELEM) // pivot row (hot)
                        .read(a + (r * n + k + 1) * ELEM, ELEM)
                        .compute(COMPUTE_PER_ELEM)
                        .write(a + (r * n + k + 1) * ELEM, ELEM);
                    c.nest(elim);
                    r += procs;
                }
                if r < n {
                    next_row = Some(r);
                } else {
                    c.barrier(2 * k as u32 + 1);
                    k += 1;
                    next_row = None;
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
    fn scaled_dims() {
        assert_eq!(Params::scaled(1.0).n, 256);
        assert!(Params::scaled(0.02).n >= 48);
        assert!(Params::scaled(0.02).n < 100);
    }

    #[test]
    fn every_processor_reads_pivot_row() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Gauss, 4).scale(0.02);
        let n = Params::scaled(0.02).n;
        let base = memsys::addr::SHARED_BASE;
        // During step k=0, all four processors must read from row 0.
        for s in streams(&w, &map) {
            let mut saw_pivot = false;
            for op in s {
                match op {
                    Op::Barrier(1) => break, // end of step 0
                    Op::Read(addr) if addr >= base && addr < base + n * 4 => {
                        saw_pivot = true;
                    }
                    _ => {}
                }
            }
            assert!(saw_pivot);
        }
    }

    #[test]
    fn work_shrinks_with_k() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Gauss, 2).scale(0.02);
        let s: Vec<Op> = streams(&w, &map).remove(0).collect();
        let count_step = |k: u32| {
            let start = if k == 0 {
                0
            } else {
                s.iter().position(|o| *o == Op::Barrier(2 * k - 1)).unwrap()
            };
            let end = s.iter().position(|o| *o == Op::Barrier(2 * k + 1)).unwrap();
            s[start..end].iter().filter(|o| o.is_ref()).count()
        };
        assert!(count_step(0) > count_step(10));
        assert!(count_step(10) > count_step(30));
    }

    #[test]
    fn cyclic_assignment_balances_rows() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Gauss, 4).scale(0.02);
        let counts: Vec<usize> = streams(&w, &map)
            .into_iter()
            .map(|s| s.filter(|o| o.is_ref()).count())
            .collect();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.15, "imbalance {counts:?}");
    }
}
