//! SOR — successive over-relaxation on a 2-D grid (paper Table 4:
//! 256×256 floats, 100 iterations; locally developed code).
//!
//! In-place sweeps over a single grid, **column-band partitioned**: each
//! processor owns a vertical band (16 columns at 16 processors — exactly
//! one 64 B block per row) and all processors sweep the rows top to bottom
//! together, with a barrier per sweep. Each point reads its four neighbors
//! and itself and is written back in place.
//!
//! The sharing pattern this produces is what gives SOR its paper behaviour:
//! at every row, a processor reads the two *boundary columns* owned by its
//! left and right neighbors — blocks those neighbors fetched moments ago —
//! so a system-wide cache sized like the jointly-active window catches a
//! large share of them, and hit rates climb steeply with shared-cache size
//! (Fig. 8: SOR gains more than any other app at 64 KB).
//!
//! Paper reuse class: **Moderate**.

use crate::gen::{chunked, group, partition, Alloc, ELEM};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::AddressMap;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Grid dimension (paper: 256).
    pub n: u64,
    /// Sweep count (paper: 100).
    pub iters: u64,
}

impl Params {
    /// Paper input scaled: the grid keeps its paper size (so reuse
    /// distances are authentic); `scale` shrinks the iteration count.
    pub fn scaled(scale: f64) -> Self {
        Self {
            n: 256,
            iters: ((100.0 * scale).round() as u64).max(2),
        }
    }
}

/// Cycles of FP work per grid point (4 adds, 2 multiplies, loop overhead).
const COMPUTE_PER_POINT: u32 = 11;

/// Grid rows per phase: 64 row nests, 22 KiB of refill.
const ROWS_PER_PHASE: u64 = 64;

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let p = Params::scaled(w.scale);
    let n = p.n;
    let mut alloc = Alloc::new(map);
    let grid = alloc.shared(n * n, ELEM);
    let procs = w.procs;

    (0..procs)
        .map(|me| {
            let cols = partition(n - 2, procs, me);
            let m = cols.end - cols.start;
            let col = cols.start + 1; // interior columns are 1..n-1
            let at = move |row: u64, col: u64| grid + (row * n + col) * ELEM;
            // Phases per sweep: groups of interior rows, the last carrying
            // the barrier. Every row nest ends with a write.
            let rows = 1..n - 1;
            let groups = (n - 2).div_ceil(ROWS_PER_PHASE);
            let iters = p.iters;
            chunked(move |phase, c| {
                let (iter, g) = (phase / groups, phase % groups);
                if iter >= iters {
                    return false;
                }
                for r in group(&rows, ROWS_PER_PHASE, g) {
                    if m == 0 {
                        break;
                    }
                    let mut body = Nest::new(m);
                    body.read(at(r - 1, col), ELEM)
                        .read(at(r + 1, col), ELEM)
                        .read(at(r, col - 1), ELEM)
                        .read(at(r, col + 1), ELEM)
                        .read(at(r, col), ELEM)
                        .compute(COMPUTE_PER_POINT)
                        .write(at(r, col), ELEM);
                    c.nest(body);
                }
                if g + 1 == groups {
                    c.barrier(iter as u32);
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
    fn ref_counts_match_formula() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Sor, 4).scale(0.02);
        let p = Params::scaled(0.02);
        let streams = streams(&w, &map);
        let total_refs: u64 = streams
            .into_iter()
            .map(|s| s.filter(|o| o.is_ref()).count() as u64)
            .sum();
        // 6 refs per interior point per iteration.
        assert_eq!(total_refs, (p.n - 2) * (p.n - 2) * 6 * p.iters);
    }

    #[test]
    fn refs_stay_inside_grid() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Sor, 2).scale(0.02);
        let p = Params::scaled(0.02);
        let hi = memsys::addr::SHARED_BASE + p.n * p.n * 4;
        for s in streams(&w, &map) {
            for op in s {
                if let Op::Read(a) | Op::Write(a) = op {
                    assert!(a >= memsys::addr::SHARED_BASE && a < hi, "addr {a:#x}");
                }
            }
        }
    }

    #[test]
    fn processors_read_neighbor_boundary_columns() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Sor, 4).scale(0.02);
        let p = Params::scaled(0.02);
        // Processor 1 owns columns [1 + 63..1 + 127); its left-boundary
        // read of column 63 falls in processor 0's band.
        let cols1 = partition(p.n - 2, 4, 1);
        let left_col = cols1.start; // + 1 - 1
        let mut saw_left = false;
        for op in streams(&w, &map).remove(1) {
            if let Op::Read(a) = op {
                let off = (a - memsys::addr::SHARED_BASE) / 4;
                if off % p.n == left_col {
                    saw_left = true;
                    break;
                }
            }
        }
        assert!(saw_left, "boundary-column sharing is the point of SOR");
    }

    #[test]
    fn row_major_sweep_order() {
        let map = AddressMap::new(1, 64);
        let w = Workload::new(crate::AppId::Sor, 1).scale(0.02);
        let p = Params::scaled(0.02);
        let writes: Vec<u64> = streams(&w, &map)
            .remove(0)
            .filter_map(|o| match o {
                Op::Write(a) => Some((a - memsys::addr::SHARED_BASE) / 4 / p.n),
                _ => None,
            })
            .take(1000)
            .collect();
        // Row indices of writes must be nondecreasing within a sweep.
        assert!(writes.windows(2).all(|w| w[0] <= w[1]));
    }
}
