//! Radix — SPLASH-2 integer radix sort (paper Table 4: 512 K keys,
//! radix 1024).
//!
//! Three digit passes (30-bit keys, 10 bits per pass). Each pass: build a
//! private histogram from my contiguous key chunk, publish it to the
//! shared histogram matrix, a prefix-sum phase where every processor reads
//! the whole matrix, then the permutation: every key is *written* to a
//! pseudo-random position of the destination array. The permutation is
//! the app's signature: write-dominated, no locality, enormous update
//! traffic — which is why Radix punishes invalidate protocols (writebacks)
//! and saturates coherence channels.
//!
//! Paper reuse class: **Low** (and read latency is a small fraction of run
//! time — the shared cache barely matters; Fig. 7).

use crate::gen::{chunked, group, partition, stream_rng, Alloc, ELEM};
use crate::ops::{Nest, OpStream};
use crate::workload::Workload;
use memsys::AddressMap;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Key count (paper: 512 K).
    pub keys: u64,
    /// Radix (paper: 1024 -> 10-bit digits).
    pub radix: u64,
    /// Digit passes (30-bit keys / 10 bits).
    pub passes: u64,
}

impl Params {
    /// `scale` shrinks the key count (work is Θ(keys · passes)).
    pub fn scaled(scale: f64) -> Self {
        let keys = ((524_288.0 * scale) as u64).max(8_192);
        Self {
            keys: keys / 1024 * 1024,
            radix: 1024,
            passes: 3,
        }
    }
}

const APP_TAG: u64 = 0x5A;

/// Keys per phase: at most 64 × 6 macro-ops, 12 KiB of refill.
const KEYS_PER_PHASE: u64 = 64;

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let nk = prm.keys;
    let mut alloc = Alloc::new(map);
    let src = alloc.shared(nk, ELEM);
    let dst = alloc.shared(nk, ELEM);
    // Shared histogram matrix: procs x radix.
    let ghist = alloc.shared(w.procs as u64 * prm.radix, ELEM);
    // Private per-processor histograms.
    let lhist: Vec<u64> = (0..w.procs)
        .map(|p| alloc.private(p, prm.radix, ELEM))
        .collect();
    let procs = w.procs;
    let seed = w.seed;

    (0..procs)
        .map(|me| {
            let mine = partition(nk, procs, me);
            let lh = lhist[me];
            // Phases per pass: the histogram's key groups, the prefix sum,
            // the permutation's key groups. Every group ends with a
            // write, so no compute coalesces across a cut.
            let groups = (mine.end - mine.start).div_ceil(KEYS_PER_PHASE);
            let per_pass = 2 * groups + 1;
            let mut rng = stream_rng(seed, APP_TAG, me); // re-seeded per pass
            chunked(move |phase, c| {
                let (pass, step) = (phase / per_pass, phase % per_pass);
                if pass >= prm.passes {
                    return false;
                }
                if step == 0 {
                    rng = stream_rng(seed ^ pass, APP_TAG, me);
                }
                let (from, to) = if pass % 2 == 0 {
                    (src, dst)
                } else {
                    (dst, src)
                };
                if step < groups {
                    // Histogram my keys.
                    for i in group(&mine, KEYS_PER_PHASE, step) {
                        c.read(from, i, ELEM);
                        c.compute(3); // digit extraction
                        let bucket = rng.below(prm.radix);
                        c.read(lh, bucket, ELEM);
                        c.compute(1);
                        c.write(lh, bucket, ELEM);
                    }
                } else if step == groups {
                    let bar = (pass as u32) * 3;
                    c.barrier(bar);
                    // Publish my histogram; read everyone's for the prefix
                    // sum.
                    let mut publish = Nest::new(prm.radix);
                    publish.write(ghist + me as u64 * prm.radix * ELEM, ELEM);
                    c.nest(publish);
                    c.barrier(bar + 1);
                    for p in 0..procs as u64 {
                        // Sampled read of p's histogram row: every 4th
                        // counter.
                        let mut body = Nest::new(prm.radix / 4);
                        body.read(ghist + p * prm.radix * ELEM, 4 * ELEM).compute(1);
                        c.nest(body);
                    }
                    c.barrier(bar + 2);
                } else {
                    // Permutation: read my keys in order; look up and bump
                    // the private rank entry for the key's digit; write the
                    // key to its (pseudo-random) destination.
                    for i in group(&mine, KEYS_PER_PHASE, step - groups - 1) {
                        c.read(from, i, ELEM);
                        c.compute(3);
                        let bucket = rng.below(prm.radix);
                        c.read(lh, bucket, ELEM);
                        c.compute(2);
                        c.write(lh, bucket, ELEM);
                        c.write(to, rng.below(nk), ELEM);
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
    fn params_match_paper() {
        let p = Params::scaled(1.0);
        assert_eq!(p.keys, 524_288);
        assert_eq!(p.radix, 1024);
        assert_eq!(p.passes, 3);
    }

    #[test]
    fn write_heavy_permutation() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Radix, 4).scale(0.02);
        let ops: Vec<Op> = streams(&w, &map).remove(0).collect();
        let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count() as f64;
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count() as f64;
        // Roughly one write per 1.6 reads — far more write-intensive than
        // the stencil codes (~0.2).
        assert!(writes / reads > 0.4, "w/r {}", writes / reads);
    }

    #[test]
    fn permutation_writes_spread_over_whole_array() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Radix, 4).scale(0.02);
        let prm = Params::scaled(0.02);
        let dst_base = memsys::addr::SHARED_BASE + ((prm.keys * 4 + 63) & !63);
        let mut blocks = std::collections::HashSet::new();
        for op in streams(&w, &map).remove(2) {
            if let Op::Write(a) = op {
                if a >= dst_base && a < dst_base + prm.keys * 4 {
                    blocks.insert(a / 64);
                }
            }
        }
        // A pass writes keys/procs ≈ 2048 keys over keys/16 = 512 blocks;
        // random scatter should touch most of them.
        assert!(blocks.len() > 300, "only {} blocks", blocks.len());
    }

    #[test]
    fn three_barriers_per_pass() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Radix, 2).scale(0.02);
        let bars = streams(&w, &map)
            .remove(0)
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count() as u64;
        assert_eq!(bars, 3 * Params::scaled(0.02).passes);
    }
}
