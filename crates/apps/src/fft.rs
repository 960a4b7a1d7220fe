//! FFT — SPLASH-2 six-step 1-D FFT (paper Table 4: 16 K complex points).
//!
//! The √n×√n matrix formulation: transpose, per-row FFTs, twiddle +
//! transpose, per-row FFTs, final transpose. The transposes are all-to-all
//! block exchanges in which every datum is read exactly once by exactly
//! one remote processor — no shared-cache reuse at all — while the row
//! FFTs work on processor-local rows that live happily in the L1/L2.
//!
//! Paper reuse class: **Low** (<32% shared-cache hit rate; one of the
//! three apps where NetCache ≈ LambdaNet).

use crate::gen::{chunked, group, partition, Alloc, Chunk};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::{Addr, AddressMap};
use std::ops::Range;

/// Complex-double element size.
const CPLX: u64 = 16;

/// Transpose patches per phase: 64 nests, 22 KiB of refill.
const PATCHES_PER_PHASE: u64 = 64;

/// Row FFTs per phase: 4 rows of at most 13 nests (m = 128), 17 KiB of
/// refill.
const ROWS_PER_PHASE: u64 = 4;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Matrix edge m (= √n; paper n = 16 K points, m = 128).
    pub m: u64,
}

impl Params {
    /// Work is Θ(n log n) ≈ Θ(m² log m); scale the edge by √scale,
    /// rounded to a power of two.
    pub fn scaled(scale: f64) -> Self {
        let target = 128.0 * scale.sqrt();
        let mut m = 16u64;
        while (m as f64) < target && m < 128 {
            m <<= 1;
        }
        Self { m }
    }

    /// Total points.
    pub fn n(&self) -> u64 {
        self.m * self.m
    }
}

/// One local FFT pass structure over an owned row: log2(m) passes of
/// butterfly read/write pairs. The partner index `j = (i + stride) % m`
/// wraps at most once per pass, so each pass is at most two affine nests
/// (before and after the wrap point).
fn row_fft(c: &mut Chunk, base: Addr, m: u64, row: u64) {
    let passes = 63 - m.leading_zeros() as u64; // log2(m)
    let at = |i: u64| base + (row * m + i) * CPLX;
    for pass in 0..passes {
        let stride = 1u64 << pass;
        // i runs over the evens in 0..m; j wraps once i + stride >= m.
        let n1 = (m - stride).div_ceil(2);
        let mut head = Nest::new(n1);
        head.read(at(0), 2 * CPLX)
            .read(at(stride), 2 * CPLX)
            .compute(12) // complex butterfly: 10 FLOPs + twiddle index
            .write(at(0), 2 * CPLX);
        c.nest(head);
        let n2 = m / 2 - n1;
        if n2 > 0 {
            let i0 = 2 * n1;
            let mut tail = Nest::new(n2);
            tail.read(at(i0), 2 * CPLX)
                .read(at(i0 + stride - m), 2 * CPLX)
                .compute(12)
                .write(at(i0), 2 * CPLX);
            c.nest(tail);
        }
    }
}

/// The source rows of transpose patch `k` for processor `me`.
/// Patch-blocked and **staggered** exactly as SPLASH-2 does it: processor
/// `me` walks the source patches starting at `me + 1`, so at any instant
/// the `p` processors are reading from `p` different sources instead of
/// all stampeding the same rows.
fn source_patch(m: u64, me: usize, procs: usize, k: u64) -> Range<u64> {
    partition(m, procs, (me + 1 + k as usize) % procs)
}

/// Row `r` of a transpose patch: I read a *column* of `src` (striding
/// across the source processor's rows `src_rows`) and write those
/// columns of my row of `dst`.
fn transpose(c: &mut Chunk, src: Addr, dst: Addr, m: u64, src_rows: Range<u64>, r: u64) {
    let (c0, ncols) = (src_rows.start, src_rows.end - src_rows.start);
    if ncols == 0 {
        return;
    }
    // Column read strides a whole source row per step.
    let mut body = Nest::new(ncols);
    body.read(src + (c0 * m + r) * CPLX, m * CPLX)
        .compute(4)
        .write(dst + (r * m + c0) * CPLX, CPLX);
    c.nest(body);
}

/// [`transpose`] with the twiddle multiply folded in: row `r` of `tw`
/// scales the column of `src` on its way into `dst`.
fn twiddle_transpose(
    c: &mut Chunk,
    tw: Addr,
    src: Addr,
    dst: Addr,
    m: u64,
    src_rows: Range<u64>,
    r: u64,
) {
    let (c0, ncols) = (src_rows.start, src_rows.end - src_rows.start);
    if ncols == 0 {
        return;
    }
    let mut body = Nest::new(ncols);
    body.read(tw + (r * m + c0) * CPLX, CPLX)
        .read(src + (c0 * m + r) * CPLX, m * CPLX)
        .compute(10)
        .write(dst + (r * m + c0) * CPLX, CPLX);
    c.nest(body);
}

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let m = prm.m;
    let mut alloc = Alloc::new(map);
    let x = alloc.shared(prm.n(), CPLX);
    let y = alloc.shared(prm.n(), CPLX);
    let twiddle = alloc.shared(prm.n(), CPLX);
    let procs = w.procs;

    (0..procs)
        .map(move |me| {
            let rows = partition(m, procs, me);
            let nrows = rows.end - rows.start;
            // Cursor: the step (0..5, also its barrier id) and the step's
            // next group, the last of which carries the barrier. Every
            // nest ends with a write, so no compute coalesces across a
            // cut.
            let (mut step, mut g) = (0, 0);
            chunked(move |_, c| {
                // The transposes (steps 0, 2, 4) walk (source patch, row)
                // pairs; the row FFTs (steps 1, 3) walk my rows.
                let (units, per) = if step % 2 == 0 {
                    (procs as u64 * nrows, PATCHES_PER_PHASE)
                } else {
                    (nrows, ROWS_PER_PHASE)
                };
                for u in group(&(0..units), per, g) {
                    if step % 2 == 1 {
                        // FFT each of my rows of y, then of x.
                        row_fft(c, if step == 1 { y } else { x }, m, rows.start + u);
                        continue;
                    }
                    let src_rows = source_patch(m, me, procs, u / nrows);
                    let r = rows.start + u % nrows;
                    if step == 2 {
                        // Twiddle multiply + transpose y -> x.
                        twiddle_transpose(c, twiddle, y, x, m, src_rows, r);
                    } else {
                        // Transpose x -> y, first and last.
                        transpose(c, x, y, m, src_rows, r);
                    }
                }
                g += 1;
                if g >= units.div_ceil(per) {
                    c.barrier(step);
                    step += 1;
                    g = 0;
                }
                step < 5
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;

    #[test]
    fn scaled_edges_are_powers_of_two() {
        assert_eq!(Params::scaled(1.0).m, 128);
        assert_eq!(Params::scaled(1.0).n(), 16384);
        for s in [0.01, 0.05, 0.3, 0.9] {
            let m = Params::scaled(s).m;
            assert!(m.is_power_of_two());
            assert!(m >= 16);
        }
    }

    #[test]
    fn five_phases_with_barriers() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Fft, 4).scale(0.02);
        let bars: Vec<u32> = streams(&w, &map)
            .remove(0)
            .filter_map(|o| match o {
                Op::Barrier(b) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(bars, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn transpose_reads_columns_staggered() {
        let mut c = Chunk::default();
        // 1 processor owning all rows degenerates to a plain transpose.
        transpose(&mut c, 0, 1 << 30, 8, source_patch(8, 0, 1, 0), 2);
        let reads: Vec<u64> = c
            .into_macros()
            .iter()
            .flat_map(|m| m.expand())
            .filter_map(|o| match o {
                Op::Read(a) => Some(a),
                _ => None,
            })
            .collect();
        // Reading column 2: addresses 2*16, (8+2)*16, (16+2)*16, ...
        assert_eq!(reads[0], 2 * CPLX);
        assert_eq!(reads[1], 10 * CPLX);
        assert_eq!(reads.len(), 8);

        // With 4 processors, processor 0 starts on processor 1's patch.
        let mut c = Chunk::default();
        transpose(&mut c, 0, 1 << 30, 8, source_patch(8, 0, 4, 0), 0);
        let first = c
            .into_macros()
            .iter()
            .flat_map(|m| m.expand())
            .next()
            .expect("no reads");
        // First source column belongs to processor 1 (columns 2..4).
        assert_eq!(first, Op::Read(2 * 8 * CPLX));
    }

    #[test]
    fn row_fft_is_local_to_row() {
        let mut c = Chunk::default();
        row_fft(&mut c, 0, 16, 3);
        let lo = 3 * 16 * CPLX;
        let hi = 4 * 16 * CPLX;
        for op in c.into_macros().iter().flat_map(|m| m.expand()) {
            if let Op::Read(a) | Op::Write(a) = op {
                assert!(a >= lo && a < hi, "escaped the row: {a}");
            }
        }
    }
}
