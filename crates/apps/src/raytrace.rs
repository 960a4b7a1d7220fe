//! Raytrace — parallel ray tracer on the teapot scene (paper Table 4).
//!
//! The scene (a BVH over triangles) is shared and read-only; rays descend
//! the hierarchy from the root, so the top BVH levels are read by every
//! processor for every ray — hot shared data — while leaf nodes and
//! triangles are touched sparsely. Work is distributed as image tiles
//! through a lock-protected task counter; per-tile cost varies with the
//! (pseudo-random) ray depths, giving the mild imbalance of the real code.
//!
//! Paper reuse class: **Moderate**.

use crate::gen::{chunked, stream_rng, Alloc};
use crate::ops::OpStream;
use crate::workload::Workload;
use memsys::AddressMap;

/// BVH node record size (two AABBs + child indices).
const NODE: u64 = 64;
/// Triangle record size.
const TRI: u64 = 32;

/// Input parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Image edge in pixels.
    pub image: u64,
    /// Tile edge in pixels.
    pub tile: u64,
    /// BVH node count (teapot-scale).
    pub bvh_nodes: u64,
    /// Triangle count.
    pub tris: u64,
    /// Mean secondary rays per primary ray.
    pub bounce: f64,
}

impl Params {
    /// `scale` shrinks the image (work is Θ(pixels)). The floor keeps at
    /// least 36 tiles so a 16-processor machine always has work.
    pub fn scaled(scale: f64) -> Self {
        let img = ((128.0 * scale.sqrt()).round() as u64).max(96);
        Self {
            image: img / 16 * 16,
            tile: 16,
            bvh_nodes: 1024,
            tris: 2048,
            bounce: 0.5,
        }
    }

    /// Number of tiles.
    pub fn tiles(&self) -> u64 {
        (self.image / self.tile) * (self.image / self.tile)
    }
}

const APP_TAG: u64 = 0x47;
const QUEUE_LOCK: u32 = 0;

pub(crate) fn streams(w: &Workload, map: &AddressMap) -> Vec<OpStream> {
    let prm = Params::scaled(w.scale);
    let mut alloc = Alloc::new(map);
    let bvh = alloc.shared(prm.bvh_nodes, NODE);
    let tris = alloc.shared(prm.tris, TRI);
    let counter = alloc.shared(4, 8);
    let image = alloc.shared(prm.image * prm.image, 4);
    let procs = w.procs;
    let seed = w.seed;
    let depth = 63 - prm.bvh_nodes.leading_zeros() as u64; // log2(nodes)

    (0..procs)
        .map(|me| {
            // Static round-robin tile pre-assignment stands in for the
            // dynamic queue (a fixed per-processor stream cannot depend on
            // runtime timing); the queue lock is still exercised per tile.
            // One phase per pixel row: a row ends with the pixel write, so
            // no compute coalesces across a cut.
            let mut rng = stream_rng(seed, APP_TAG, me); // re-seeded per tile
            chunked(move |phase, c| {
                let (t, py) = (phase / prm.tile, phase % prm.tile);
                let tile = me as u64 + t * procs as u64;
                if tile >= prm.tiles() {
                    c.barrier(0); // final frame barrier
                    return false;
                }
                if py == 0 {
                    rng = stream_rng(seed ^ tile, APP_TAG, me);
                    // Grab the next tile from the shared queue.
                    c.acquire(QUEUE_LOCK);
                    c.read(counter, 0, 8);
                    c.compute(2);
                    c.write(counter, 0, 8);
                    c.release(QUEUE_LOCK);
                }
                // Trace the row's rays.
                let tpe = prm.image / prm.tile;
                let (tx, ty) = (tile % tpe, tile / tpe);
                for px in 0..prm.tile {
                    let mut rays = 1u64;
                    if rng.chance(prm.bounce) {
                        rays += 1;
                    }
                    for _ in 0..rays {
                        // Descend the BVH root-to-leaf: node index at
                        // level l lives in [2^l - 1, 2^(l+1) - 1).
                        let mut node = 0u64;
                        for _l in 0..depth {
                            c.read(bvh, node, NODE);
                            c.compute(14); // two AABB slab tests + traversal logic
                            node = (2 * node + 1 + rng.below(2)).min(prm.bvh_nodes - 1);
                        }
                        // Intersect a couple of leaf triangles.
                        for _ in 0..2 {
                            c.read(tris, rng.below(prm.tris), TRI);
                            c.compute(40); // Möller-Trumbore + shading terms
                        }
                    }
                    c.compute(30); // shading + pixel accumulation
                    let pix = (ty * prm.tile + py) * prm.image + tx * prm.tile + px;
                    c.write(image, pix, 4);
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
    fn scaled_image_is_tileable() {
        for s in [0.01, 0.1, 1.0] {
            let p = Params::scaled(s);
            assert_eq!(p.image % p.tile, 0);
        }
        assert_eq!(Params::scaled(1.0).tiles(), 64);
    }

    #[test]
    fn bvh_root_is_hottest_node() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Raytrace, 4).scale(0.05);
        let bvh_base = memsys::addr::SHARED_BASE;
        let prm = Params::scaled(0.05);
        let mut counts = vec![0u64; prm.bvh_nodes as usize];
        for s in streams(&w, &map) {
            for op in s {
                if let Op::Read(a) = op {
                    if a >= bvh_base && a < bvh_base + prm.bvh_nodes * NODE {
                        counts[((a - bvh_base) / NODE) as usize] += 1;
                    }
                }
            }
        }
        let root = counts[0];
        let deep_max = counts[512..].iter().max().copied().unwrap_or(0);
        assert!(root > 10 * deep_max.max(1), "root {root}, deep {deep_max}");
    }

    #[test]
    fn every_pixel_written_once() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(crate::AppId::Raytrace, 2).scale(0.05);
        let prm = Params::scaled(0.05);
        let img_base = memsys::addr::SHARED_BASE
            + ((prm.bvh_nodes * NODE + 63) & !63)
            + ((prm.tris * TRI + 63) & !63)
            + 64; // counter block
        let mut written = std::collections::HashSet::new();
        for s in streams(&w, &map) {
            for op in s {
                if let Op::Write(a) = op {
                    if a >= img_base {
                        assert!(written.insert(a), "pixel written twice: {a:#x}");
                    }
                }
            }
        }
        assert_eq!(written.len() as u64, prm.image * prm.image);
    }

    #[test]
    fn tile_queue_lock_taken_once_per_tile() {
        let map = AddressMap::new(4, 64);
        let w = Workload::new(crate::AppId::Raytrace, 4).scale(0.05);
        let prm = Params::scaled(0.05);
        let total_acquires: u64 = streams(&w, &map)
            .into_iter()
            .map(|s| s.filter(|o| matches!(o, Op::Acquire(_))).count() as u64)
            .sum();
        assert_eq!(total_acquires, prm.tiles());
    }
}
