//! Mg — NAS 3-D multigrid Poisson solver (paper Table 4: 24×24×64 floats,
//! 6 iterations).
//!
//! V-cycles over a four-level grid hierarchy, z-plane partitioned. Each
//! level runs 7-point-stencil smoothing sweeps, restriction to the next
//! coarser level on the way down and prolongation on the way up, with a
//! barrier after every sweep. The coarse grids are tiny (the coarsest is
//! 3×3×8 points) and are touched by *every* processor each cycle — they
//! live almost permanently in the shared cache, which is where Mg's high
//! reuse comes from.
//!
//! Paper reuse class: **High** (~70% shared-cache hit rate).

use crate::gen::{chunked, group, partition, Alloc, Chunk, ELEM};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::{Addr, AddressMap};

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Finest grid dimensions (paper: 24×24×64).
    pub nx: u64,
    /// Grid dimension y.
    pub ny: u64,
    /// Grid dimension z (the partitioned axis).
    pub nz: u64,
    /// V-cycle count (paper: 6).
    pub iters: u64,
    /// Number of levels (finest is level 0).
    pub levels: usize,
}

impl Params {
    /// The grid keeps its paper size; `scale` shrinks the V-cycle count.
    pub fn scaled(scale: f64) -> Self {
        Self {
            nx: 24,
            ny: 24,
            nz: 64,
            iters: ((6.0 * scale).round() as u64).max(1),
            levels: 4,
        }
    }

    /// Dimensions of level `l` (halved per level, floor 2).
    pub fn dims(&self, l: usize) -> (u64, u64, u64) {
        let s = 1u64 << l;
        (
            (self.nx / s).max(2),
            (self.ny / s).max(2),
            (self.nz / s).max(2),
        )
    }

    /// Points at level `l`.
    pub fn points(&self, l: usize) -> u64 {
        let (x, y, z) = self.dims(l);
        x * y * z
    }
}

const COMPUTE_PER_POINT: u32 = 24;

struct Level {
    u: Addr,
    r: Addr,
    nx: u64,
    ny: u64,
    nz: u64,
}

impl Level {
    #[inline]
    fn at(&self, base: Addr, x: u64, y: u64, z: u64) -> Addr {
        base + ((z * self.ny + y) * self.nx + x) * ELEM
    }
}

/// Rows per phase: 12 rows of at most 72 macro-ops (a finest-level
/// prolongation row), 27 KiB of refill.
const ROWS_PER_PHASE: u64 = 12;

/// One row (y, z) of a 7-point smoothing sweep over level `lv`.
///
/// The interior of the x-row is one affine nest; the clamped boundary
/// points (x = 0 and x = nx-1) stay scalar.
fn smooth_row(c: &mut Chunk, lv: &Level, y: u64, z: u64) {
    let ym = y.saturating_sub(1);
    let yp = (y + 1).min(lv.ny - 1);
    let zm = z.saturating_sub(1);
    let zp = (z + 1).min(lv.nz - 1);
    // One point, boundary-clamped (the scalar body of the original loop).
    let point = |c: &mut Chunk, x: u64| {
        let xm = x.saturating_sub(1);
        let xp = (x + 1).min(lv.nx - 1);
        c.read_at(lv.at(lv.u, xm, y, z));
        c.read_at(lv.at(lv.u, xp, y, z));
        c.read_at(lv.at(lv.u, x, ym, z));
        c.read_at(lv.at(lv.u, x, yp, z));
        c.read_at(lv.at(lv.u, x, y, zm));
        c.read_at(lv.at(lv.u, x, y, zp));
        c.read_at(lv.at(lv.r, x, y, z));
        c.compute(COMPUTE_PER_POINT);
        c.write_at(lv.at(lv.u, x, y, z));
    };
    point(c, 0);
    if lv.nx >= 3 {
        // Interior x in 1..nx-1: no clamping, every operand affine in x.
        let mut body = Nest::new(lv.nx - 2);
        body.read(lv.at(lv.u, 0, y, z), ELEM)
            .read(lv.at(lv.u, 2, y, z), ELEM)
            .read(lv.at(lv.u, 1, ym, z), ELEM)
            .read(lv.at(lv.u, 1, yp, z), ELEM)
            .read(lv.at(lv.u, 1, y, zm), ELEM)
            .read(lv.at(lv.u, 1, y, zp), ELEM)
            .read(lv.at(lv.r, 1, y, z), ELEM)
            .compute(COMPUTE_PER_POINT)
            .write(lv.at(lv.u, 1, y, z), ELEM);
        c.nest(body);
    }
    if lv.nx >= 2 {
        point(c, lv.nx - 1);
    }
}

/// One coarse row (y, z) of the restriction from `fine` to `coarse`.
fn restrict_row(c: &mut Chunk, fine: &Level, coarse: &Level, y: u64, z: u64) {
    let fz = (2 * z).min(fine.nz - 1);
    let fy = (2 * y).min(fine.ny - 1);
    if 2 * coarse.nx - 1 < fine.nx {
        // No x-clamping anywhere in range: both fine reads stride two
        // elements per coarse point.
        let mut body = Nest::new(coarse.nx);
        body.read(fine.at(fine.r, 0, fy, fz), 2 * ELEM)
            .read(fine.at(fine.u, 1, fy, fz), 2 * ELEM)
            .compute(4)
            .write(coarse.at(coarse.r, 0, y, z), ELEM);
        c.nest(body);
    } else {
        for x in 0..coarse.nx {
            // read 2 fine points + write coarse r
            c.read_at(fine.at(fine.r, (2 * x).min(fine.nx - 1), fy, fz));
            c.read_at(fine.at(fine.u, (2 * x + 1).min(fine.nx - 1), fy, fz));
            c.compute(4);
            c.write_at(coarse.at(coarse.r, x, y, z));
        }
    }
}

/// One fine row (y, z) of the prolongation from `coarse` to `fine`.
fn prolong_row(c: &mut Chunk, fine: &Level, coarse: &Level, y: u64, z: u64) {
    for x in 0..fine.nx {
        c.read_at(coarse.at(
            coarse.u,
            (x / 2).min(coarse.nx - 1),
            (y / 2).min(coarse.ny - 1),
            (z / 2).min(coarse.nz - 1),
        ));
        c.compute(2);
        c.write_at(fine.at(fine.u, x, y, z));
    }
}

/// One sweep of a V-cycle; every sweep ends at a barrier.
#[derive(Debug, Clone, Copy)]
enum Sweep {
    /// Smooth level l.
    Smooth(usize),
    /// Restrict the residual of level l to level l + 1.
    Restrict(usize),
    /// Prolong level l + 1 onto level l.
    Prolong(usize),
}

impl Sweep {
    /// The level whose rows the sweep writes.
    fn target(self) -> usize {
        match self {
            Sweep::Smooth(l) | Sweep::Prolong(l) => l,
            Sweep::Restrict(l) => l + 1,
        }
    }
}

/// The sweeps of one V-cycle over `nlev` levels, in order: down, smooth
/// then restrict per level; two smoothing sweeps on the coarsest; up,
/// prolong then smooth per level.
fn v_cycle(nlev: usize) -> Vec<Sweep> {
    let down = (0..nlev - 1).flat_map(|l| [Sweep::Smooth(l), Sweep::Restrict(l)]);
    let up = (0..nlev - 1)
        .rev()
        .flat_map(|l| [Sweep::Prolong(l), Sweep::Smooth(l)]);
    down.chain([Sweep::Smooth(nlev - 1); 2]).chain(up).collect()
}

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let mut alloc = Alloc::new(map);
    let levels: Vec<(Addr, Addr)> = (0..prm.levels)
        .map(|l| {
            let pts = prm.points(l);
            (alloc.shared(pts, ELEM), alloc.shared(pts, ELEM))
        })
        .collect();
    let procs = w.procs;
    let nlev = prm.levels;

    (0..procs)
        .map(|me| {
            let levels = levels.clone();
            let level = move |l: usize| {
                let (nx, ny, nz) = prm.dims(l);
                Level {
                    u: levels[l].0,
                    r: levels[l].1,
                    nx,
                    ny,
                    nz,
                }
            };
            // Cursor: sweeps finished so far, and the current sweep's next
            // group of my rows (z-planes partitioned, every y-row of
            // each). A sweep's last group carries its barrier. Every row
            // ends with a write, so no compute coalesces across a cut.
            let cycle = v_cycle(nlev);
            let per_cycle = cycle.len() as u64;
            let (mut done, mut g) = (0, 0);
            chunked(move |_, c| {
                let (iter, s) = (done / per_cycle, (done % per_cycle) as usize);
                if iter >= prm.iters {
                    return false;
                }
                let sweep = cycle[s];
                let lv = level(sweep.target());
                let zs = partition(lv.nz, procs, me);
                let rows = (zs.end - zs.start) * lv.ny;
                for u in group(&(0..rows), ROWS_PER_PHASE, g) {
                    let (y, z) = (u % lv.ny, zs.start + u / lv.ny);
                    match sweep {
                        Sweep::Smooth(_) => smooth_row(c, &lv, y, z),
                        Sweep::Restrict(l) => restrict_row(c, &level(l), &lv, y, z),
                        Sweep::Prolong(l) => prolong_row(c, &lv, &level(l + 1), y, z),
                    }
                }
                g += 1;
                if g >= rows.div_ceil(ROWS_PER_PHASE) {
                    c.barrier(iter as u32 * (4 * nlev as u32 + 4) + s as u32);
                    g = 0;
                    done += 1;
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
    fn level_dims_halve() {
        let p = Params::scaled(1.0);
        assert_eq!(p.dims(0), (24, 24, 64));
        assert_eq!(p.dims(1), (12, 12, 32));
        assert_eq!(p.dims(3), (3, 3, 8));
        assert_eq!(p.points(0), 36864);
    }

    #[test]
    fn coarse_levels_touched_by_all_procs() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Mg, 4).scale(0.17); // 1 iter
        let p = Params::scaled(0.17);
        // Coarsest level arrays start after the three finer levels.
        let mut coarse_base = memsys::addr::SHARED_BASE;
        for l in 0..3 {
            coarse_base += 2 * ((p.points(l) * 4 + 63) & !63);
        }
        for mut s in streams(&w, &map) {
            let touched = s.any(|op| match op {
                Op::Read(a) | Op::Write(a) => a >= coarse_base,
                _ => false,
            });
            assert!(touched, "every proc works on the coarse grids");
        }
    }

    #[test]
    fn barrier_count_matches_structure() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Mg, 2).scale(0.17);
        let p = Params::scaled(0.17);
        assert_eq!(p.iters, 1);
        let bars = streams(&w, &map)
            .remove(0)
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count();
        // per iter: 2 per down level (3 levels) + 2 coarsest + 2 per up
        // level (3 levels) = 14 (the double pre-smooth shares a barrier).
        assert_eq!(bars, 14);
    }

    #[test]
    fn smoothing_is_seven_point() {
        let mut c = Chunk::default();
        let lv = Level {
            u: 0,
            r: 1 << 20,
            nx: 4,
            ny: 4,
            nz: 4,
        };
        for y in 0..lv.ny {
            smooth_row(&mut c, &lv, y, 0);
        }
        let ops: Vec<Op> = c.into_macros().iter().flat_map(|m| m.expand()).collect();
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
        assert_eq!(reads, 16 * 7);
        assert_eq!(writes, 16);
    }
}
