//! Ocean — SPLASH-2 large-scale ocean movement simulation (paper Table 4:
//! 66×66 grid).
//!
//! Per timestep: three 5-point-stencil sweeps over the velocity/vorticity
//! grids, then a 2-D multigrid solve of the stream-function equation
//! (down/up over three levels), all row-partitioned with barriers between
//! sweeps. With only a 66×66 grid the per-processor bands are thin, so a
//! large fraction of each band's reads are boundary rows produced by the
//! neighboring processors.
//!
//! Paper reuse class: **Moderate**.

use crate::gen::{chunked, partition, Alloc, Chunk, ELEM};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::{Addr, AddressMap};

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Grid dimension (paper: 66).
    pub n: u64,
    /// Timestep count.
    pub steps: u64,
    /// Multigrid levels in the solver.
    pub levels: usize,
}

impl Params {
    /// The grid keeps its paper size; `scale` shrinks the timestep count.
    pub fn scaled(scale: f64) -> Self {
        Self {
            n: 66,
            steps: ((8.0 * scale).round() as u64).max(1),
            levels: 3,
        }
    }

    /// Dimension of multigrid level `l` (0 = finest = n).
    pub fn dim(&self, l: usize) -> u64 {
        (self.n >> l).max(4)
    }
}

/// 5-point stencil sweep: read 4 neighbors + center of `src`, write `dst`.
/// Each interior row is one affine nest over its columns.
fn sweep(c: &mut Chunk, src: Addr, dst: Addr, n: u64, rows: std::ops::Range<u64>) {
    for r in rows {
        let r = r + 1;
        if r >= n - 1 {
            continue;
        }
        let mut body = Nest::new(n - 2);
        body.read(src + ((r - 1) * n + 1) * ELEM, ELEM)
            .read(src + ((r + 1) * n + 1) * ELEM, ELEM)
            .read(src + (r * n) * ELEM, ELEM)
            .read(src + (r * n + 2) * ELEM, ELEM)
            .read(src + (r * n + 1) * ELEM, ELEM)
            .compute(11)
            .write(dst + (r * n + 1) * ELEM, ELEM);
        c.nest(body);
    }
}

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let n = prm.n;
    let mut alloc = Alloc::new(map);
    // Velocity, vorticity, stream-function, work grid.
    let u = alloc.shared(n * n, ELEM);
    let v = alloc.shared(n * n, ELEM);
    let psi = alloc.shared(n * n, ELEM);
    let work = alloc.shared(n * n, ELEM);
    // Multigrid hierarchy for the solver.
    let mg: Vec<Addr> = (0..prm.levels)
        .map(|l| alloc.shared(prm.dim(l) * prm.dim(l), ELEM))
        .collect();
    let procs = w.procs;

    (0..procs)
        .map(|me| {
            let mg = mg.clone();
            // One phase per stage of a timestep, each closed by its
            // barrier: at most n - 2 = 64 row nests, 22 KiB of refill.
            let levels = prm.levels;
            let stages = 3 + 2 * levels + 1;
            chunked(move |phase, c| {
                let (step, s) = (phase / stages as u64, (phase % stages as u64) as usize);
                if step >= prm.steps {
                    return false;
                }
                if s < 3 {
                    // Three physics sweeps.
                    let (src, dst) = [(u, work), (v, u), (work, v)][s];
                    sweep(c, src, dst, n, partition(n - 2, procs, me));
                } else if s < 3 + levels {
                    // Multigrid solve, down: restrict to level l. The
                    // source row is fixed per r, so the whole column walk
                    // is affine.
                    let l = s - 3;
                    let d = prm.dim(l);
                    let grid = mg[l];
                    let src = if l == 0 { psi } else { mg[l - 1] };
                    let sd = prm.dim(l.saturating_sub(1));
                    for r in partition(d.saturating_sub(2), procs, me) {
                        let r = r + 1;
                        let mut body = Nest::new(d - 2);
                        body.read(src + ((r * 2 % sd) * sd + 1) * ELEM, ELEM)
                            .read(grid + (r * d + 1) * ELEM, ELEM)
                            .compute(4)
                            .write(grid + (r * d + 1) * ELEM, ELEM);
                        c.nest(body);
                    }
                } else if s < 3 + 2 * levels {
                    // Up: smooth level l, coarsest first.
                    let l = 3 + 2 * levels - 1 - s;
                    let d = prm.dim(l);
                    sweep(c, mg[l], mg[l], d, partition(d - 2, procs, me));
                } else {
                    // Copy solution back into psi.
                    for r in partition(n - 2, procs, me) {
                        let r = r + 1;
                        let mut body = Nest::new(n - 2);
                        body.read(mg[0] + (r * n + 1) * ELEM, ELEM)
                            .write(psi + (r * n + 1) * ELEM, ELEM);
                        c.nest(body);
                    }
                }
                c.barrier(step as u32 * 32 + s as u32);
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
    fn paper_grid_dim() {
        let p = Params::scaled(1.0);
        assert_eq!(p.n, 66);
        assert_eq!(p.dim(0), 66);
        assert_eq!(p.dim(1), 33);
        assert_eq!(p.dim(2), 16);
    }

    #[test]
    fn barriers_per_step_constant() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Ocean, 4).scale(0.25); // 2 steps
        let bars = streams(&w, &map)
            .remove(0)
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count();
        // 3 sweeps + 3 down + 3 up + 1 copy = 10 per step, 2 steps.
        assert_eq!(bars, 20);
    }

    #[test]
    fn thin_bands_on_many_procs() {
        let map = AddressMap::new(16, 64);
        let w = Workload::new(crate::AppId::Ocean, 16).scale(0.125);
        let streams = streams(&w, &map);
        assert_eq!(streams.len(), 16);
        // Every processor still produces work (64 interior rows / 16 = 4).
        for s in streams {
            assert!(s.filter(|o| o.is_ref()).count() > 100);
        }
    }

    #[test]
    fn sweep_reads_five_per_point() {
        let mut c = Chunk::default();
        sweep(&mut c, 0, 1 << 20, 6, 0..4);
        let ops: Vec<Op> = c.into_macros().iter().flat_map(|m| m.expand()).collect();
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
        assert_eq!(reads, 4 * 4 * 5);
        assert_eq!(writes, 4 * 4);
    }
}
