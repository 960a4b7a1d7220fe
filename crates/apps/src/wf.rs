//! WF — Warshall-Floyd all-pairs shortest paths (paper Table 4: 384
//! vertices, adjacency with 50% edge probability; locally developed code).
//!
//! The distance matrix is row-block-partitioned. At step `k` the owner of
//! row `k` refreshes it (a short serial section); after that every
//! processor relaxes its rows through vertex `k`, reading row `k`
//! repeatedly. One barrier per step — `n` barriers total — which is why
//! the paper sees WF dominated by synchronization: the owner's serial
//! section plus memory contention exposes load imbalance at every one of
//! the 384 barriers. Writes are data-dependent (a path improves or it
//! doesn't); we reproduce the ~40% improvement rate with a deterministic
//! hash so runs stay reproducible.
//!
//! Paper reuse class: **Moderate** (good spatial locality keeps it off the
//! Low group even though the matrix dwarfs the shared cache). The paper's
//! headline WF result: the shared cache cuts its *synchronization* time by
//! 56%, giving NetCache its largest win (105% vs DMON-I, 99% vs DMON-U).

use crate::gen::{chunked, group, partition, Alloc, ELEM};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::AddressMap;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Vertex count (paper: 384).
    pub n: u64,
}

impl Params {
    /// Work is Θ(n³): scale by cube root.
    pub fn scaled(scale: f64) -> Self {
        let n = (384.0 * scale.powf(1.0 / 3.0)).round() as u64;
        Self {
            n: (n / 8 * 8).max(48),
        }
    }
}

/// Rows per phase: 8 rows of at most 6 masked nests (384 columns),
/// 17 KiB of refill.
const ROWS_PER_PHASE: u64 = 8;

/// Deterministic "did the path improve" predicate (~40% of relaxations).
#[inline]
fn improves(i: u64, j: u64, k: u64) -> bool {
    let mut h = i
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(j)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(k);
    h ^= h >> 29;
    h % 10 < 4
}

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let n = prm.n;
    let mut alloc = Alloc::new(map);
    let d = alloc.shared(n * n, ELEM);
    let procs = w.procs;

    (0..procs)
        .map(|me| {
            let rows = partition(n, procs, me);
            // Phases per pivot k: groups of my rows, the first opening
            // with the serial sweep and the last carrying the closing
            // barrier. A row opens with a read, so no compute coalesces
            // across a cut.
            let groups = (rows.end - rows.start).div_ceil(ROWS_PER_PHASE).max(1);
            chunked(move |phase, c| {
                let (k, g) = (phase / groups, phase % groups);
                if k >= n {
                    return false;
                }
                if g == 0 {
                    // Serial section: the owner of row k sweeps it first
                    // (modeling the refresh/broadcast step of the parallel
                    // algorithm). Everyone else arrives at the barrier
                    // early and waits — the paper's load imbalance.
                    if rows.contains(&k) {
                        let mut sweep = Nest::new(n);
                        sweep
                            .read(d + k * n * ELEM, ELEM)
                            .compute(1)
                            .write(d + k * n * ELEM, ELEM);
                        c.nest(sweep);
                    }
                    c.barrier(2 * k as u32);
                }
                for i in group(&rows, ROWS_PER_PHASE, g) {
                    c.read(d, i * n + k, ELEM); // d[i][k]
                    c.compute(1);
                    // Relaxation loop in masked-nest blocks: the gate bit
                    // for column j carries the data-dependent write.
                    let mut j = 0;
                    while j < n {
                        let m = (n - j).min(64);
                        let mut mask = 0u64;
                        for t in 0..m {
                            if improves(i, j + t, k) {
                                mask |= 1 << t;
                            }
                        }
                        let mut body = Nest::new(m);
                        body.read(d + (k * n + j) * ELEM, ELEM) // hot row k
                            .read(d + (i * n + j) * ELEM, ELEM)
                            .compute(5)
                            .write_if(d + (i * n + j) * ELEM, ELEM);
                        body.set_wmask(mask);
                        c.nest(body);
                        j += m;
                    }
                }
                if g + 1 == groups {
                    c.barrier(2 * k as u32 + 1);
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
        assert_eq!(Params::scaled(1.0).n, 384);
        assert!(Params::scaled(0.01).n >= 48);
    }

    #[test]
    fn barrier_per_step() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Wf, 2).scale(0.01);
        let n = Params::scaled(0.01).n;
        let barriers = streams(&w, &map)
            .remove(0)
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count() as u64;
        assert_eq!(barriers, 2 * n);
    }

    #[test]
    fn write_rate_is_roughly_forty_percent() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Wf, 2).scale(0.01);
        let ops: Vec<Op> = streams(&w, &map).remove(0).collect();
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count() as f64;
        let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count() as f64;
        // 2 reads per (i,j) relax + ~0.4 writes -> writes/reads ≈ 0.2.
        let ratio = writes / reads;
        assert!((0.1..0.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn only_owner_runs_serial_section() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Wf, 4).scale(0.01);
        let n = Params::scaled(0.01).n;
        // Count refs before Barrier(0) — only the owner of row 0
        // (processor 0) should have the n-element serial sweep.
        for (p, s) in streams(&w, &map).into_iter().enumerate() {
            let mut pre = 0u64;
            for op in s {
                match op {
                    Op::Barrier(0) => break,
                    o if o.is_ref() => pre += 1,
                    _ => {}
                }
            }
            if p == 0 {
                assert_eq!(pre, 2 * n);
            } else {
                assert_eq!(pre, 0, "proc {p} should wait");
            }
        }
    }
}
