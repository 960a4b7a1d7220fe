//! Delay-line ring geometry (paper §3.3).
//!
//! The ring subnetwork's cache channels carry block *frames* that circulate
//! forever. Storage is positional: a frame is readable at a node only when
//! it physically passes that node's tap. This module is the pure geometry —
//! given a roundtrip time, a frame count, and node positions, it answers:
//!
//! * when does frame `f` of some channel next finish passing node `n`?
//! * which frame is the *next to pass* node `n` (the paper's "random"
//!   replacement victim)?
//! * which cache channel does a block live on? (`block mod C`, which is
//!   exactly the paper's round-robin interleave of channels over homes,
//!   since `C` is a multiple of `p` and homes are `block mod p`.)
//!
//! Frame phases are deterministic functions of the clock, so reads that
//! arrive at "random" program times see uniformly distributed waits in
//! `[0, roundtrip)` — reproducing the paper's *average* 20-cycle ring wait
//! (plus the fixed tag-check/access-register overhead) without any RNG in
//! the timing path.

use desim::time::{Duration, Time};

/// Identifies one block frame on one cache channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingSlot {
    /// Cache-channel index, `0..channels`.
    pub channel: usize,
    /// Frame index within the channel, `0..frames_per_channel`.
    pub frame: usize,
}

/// Static ring geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingGeometry {
    /// Number of cache channels `C` (paper base: 128). Must be a multiple
    /// of the node count.
    pub channels: usize,
    /// Frames (shared-cache lines) per channel (paper base: 4).
    pub frames_per_channel: usize,
    /// Ring roundtrip time in pcycles (paper base: 40 at 10 Gbit/s, 45 m).
    pub roundtrip: Duration,
    /// Number of nodes tapping the ring.
    pub nodes: usize,
    /// Fixed overhead after a frame has fully passed: tag check plus the
    /// move from shift register to access register. 5 cycles makes the
    /// *average* shared-cache delay 25, matching Table 1.
    pub read_overhead: Duration,
}

impl RingGeometry {
    /// Cycles between consecutive frame boundaries on a channel.
    #[inline]
    pub fn frame_spacing(&self) -> Duration {
        self.roundtrip / self.frames_per_channel as u64
    }

    /// The cache channel storing `block` (paper §3.3: channels and blocks
    /// are interleaved over homes round-robin, which reduces to
    /// `block mod C`).
    #[inline]
    pub fn channel_of_block(&self, block: u64) -> usize {
        (block % self.channels as u64) as usize
    }

    /// A node's angular position on the ring, as a time offset.
    #[inline]
    pub fn node_offset(&self, node: usize) -> Duration {
        debug_assert!(node < self.nodes);
        node as u64 * self.roundtrip / self.nodes as u64
    }

    /// Phase (time mod roundtrip, at node 0) at which frame `f` finishes
    /// passing. Frames are evenly spaced around the ring.
    #[inline]
    pub fn frame_phase(&self, frame: usize) -> Duration {
        debug_assert!(frame < self.frames_per_channel);
        (frame as u64 + 1) * self.frame_spacing() % self.roundtrip
    }

    /// Earliest time `>= now` at which frame `f` has fully passed node `n`
    /// and its contents are in the access register.
    pub fn frame_ready_at(&self, slot: RingSlot, node: usize, now: Time) -> Time {
        let r = self.roundtrip;
        let target = (self.frame_phase(slot.frame) + self.node_offset(node)) % r;
        let cur = now % r;
        let wait = (target + r - cur) % r;
        now + wait + self.read_overhead
    }

    /// Wait component only (no overhead): uniform in `[0, roundtrip)`.
    pub fn wait_for_frame(&self, slot: RingSlot, node: usize, now: Time) -> Duration {
        self.frame_ready_at(slot, node, now) - now - self.read_overhead
    }

    /// The frame on `channel` that next passes node `n` after `now` — the
    /// paper's replacement victim ("the block contained in the next shared
    /// cache line to pass through the node").
    ///
    /// This sits on the miss path of every NetCache insertion, so it is
    /// computed arithmetically instead of scanning the channel: in
    /// node-local phase `c`, frame boundaries sit at multiples of the
    /// frame spacing, so the next boundary is the smallest multiple
    /// `m·spacing ≥ c` and the victim is frame `m-1` (frame `fpc-1` wraps
    /// to phase 0). Boundary phases are distinct, so no tie-break is
    /// needed. The geometry must have frames that divide a non-zero
    /// roundtrip evenly, as every machine `SysConfig::validate` accepts
    /// does.
    pub fn next_frame_at(&self, channel: usize, node: usize, now: Time) -> (RingSlot, Time) {
        let r = self.roundtrip;
        let sp = self.frame_spacing();
        debug_assert!(
            sp > 0 && sp * self.frames_per_channel as u64 == r,
            "frames must divide a non-zero roundtrip evenly"
        );
        let c = (now % r + r - self.node_offset(node)) % r;
        if c == 0 {
            let frame = self.frames_per_channel - 1;
            (RingSlot { channel, frame }, now)
        } else {
            let m = c.div_ceil(sp);
            let frame = (m - 1) as usize;
            (RingSlot { channel, frame }, now + m * sp - c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's base ring: 128 channels × 4 frames × 64 B = 32 KB,
    /// 40-cycle roundtrip, 16 nodes.
    fn base() -> RingGeometry {
        RingGeometry {
            channels: 128,
            frames_per_channel: 4,
            roundtrip: 40,
            nodes: 16,
            read_overhead: 5,
        }
    }

    #[test]
    fn frame_phases_evenly_spaced() {
        let g = base();
        assert_eq!(g.frame_spacing(), 10);
        assert_eq!(g.frame_phase(0), 10);
        assert_eq!(g.frame_phase(1), 20);
        assert_eq!(g.frame_phase(3), 0); // wraps
    }

    #[test]
    fn channel_mapping_respects_homes() {
        let g = base();
        // home(block) = block % 16; the channel must belong to that home:
        // channel % 16 == block % 16.
        for block in 0..1024u64 {
            let ch = g.channel_of_block(block);
            assert_eq!(ch % 16, (block % 16) as usize);
        }
    }

    #[test]
    fn frame_ready_waits_less_than_roundtrip() {
        let g = base();
        for now in 0..200u64 {
            for frame in 0..4 {
                let slot = RingSlot { channel: 0, frame };
                let ready = g.frame_ready_at(slot, 3, now);
                assert!(ready >= now);
                assert!(ready - now < g.roundtrip + g.read_overhead);
            }
        }
    }

    #[test]
    fn frame_ready_is_periodic() {
        let g = base();
        let slot = RingSlot {
            channel: 5,
            frame: 2,
        };
        let t0 = g.frame_ready_at(slot, 0, 0);
        let t1 = g.frame_ready_at(slot, 0, t0 + 1 - g.read_overhead);
        assert_eq!(t1 - t0, g.roundtrip);
    }

    #[test]
    fn average_wait_is_half_roundtrip() {
        let g = base();
        let slot = RingSlot {
            channel: 7,
            frame: 1,
        };
        let mut total = 0u64;
        let n = 40 * 100;
        for now in 0..n {
            total += g.wait_for_frame(slot, 2, now);
        }
        let mean = total as f64 / n as f64;
        // waits cycle deterministically over 0..40 -> mean 19.5
        assert!((mean - 19.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn table1_average_shared_cache_delay() {
        // Average ring wait (19.5) + read_overhead (5) ≈ the paper's
        // "Avg. shared cache delay 25" (Table 1).
        let g = base();
        let slot = RingSlot {
            channel: 0,
            frame: 0,
        };
        let mut total = 0u64;
        let n = 40 * 50;
        for now in 0..n {
            total += g.frame_ready_at(slot, 0, now) - now;
        }
        let mean = total as f64 / n as f64;
        assert!((mean - 24.5).abs() < 0.6, "mean {mean}");
    }

    #[test]
    fn next_frame_at_picks_soonest() {
        let g = base();
        // At node 0, frame ends at phases 10,20,30,0. At now=12 the next
        // boundary is 20 -> frame 1.
        let (slot, t) = g.next_frame_at(0, 0, 12);
        assert_eq!(slot.frame, 1);
        assert_eq!(t, 20);
        // At now=31 the next is 40 (phase 0) -> frame 3.
        let (slot, t) = g.next_frame_at(0, 0, 31);
        assert_eq!(slot.frame, 3);
        assert_eq!(t, 40);
    }

    /// The oracle for `next_frame_at`: checks every frame's boundary time
    /// and keeps the soonest (first wins on a tie).
    fn next_frame_scan(
        g: &RingGeometry,
        channel: usize,
        node: usize,
        now: Time,
    ) -> (RingSlot, Time) {
        let mut best: Option<(RingSlot, Time)> = None;
        for frame in 0..g.frames_per_channel {
            let slot = RingSlot { channel, frame };
            let t = g.frame_ready_at(slot, node, now) - g.read_overhead;
            match best {
                Some((_, bt)) if bt <= t => {}
                _ => best = Some((slot, t)),
            }
        }
        best.expect("frames_per_channel > 0")
    }

    #[test]
    fn next_frame_closed_form_matches_scan() {
        // The closed form must agree with the exhaustive scan at every
        // clock phase, node, and frame count that divides the roundtrip.
        for nodes in [4usize, 16] {
            for fpc in [1usize, 2, 4, 8] {
                let g = RingGeometry {
                    frames_per_channel: fpc,
                    nodes,
                    ..base()
                };
                for node in 0..nodes {
                    for now in 0..(2 * g.roundtrip + 3) {
                        assert_eq!(
                            g.next_frame_at(0, node, now),
                            next_frame_scan(&g, 0, node, now),
                            "fpc {fpc} node {node} now {now}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn node_offsets_shift_arrival_times() {
        let g = base();
        let slot = RingSlot {
            channel: 0,
            frame: 0,
        };
        let t0 = g.frame_ready_at(slot, 0, 0);
        let t1 = g.frame_ready_at(slot, 4, 0);
        // Node 4 sits a quarter-ring away: 10-cycle shift.
        assert_eq!((t1 + g.roundtrip - t0) % g.roundtrip, 10);
    }

    #[test]
    fn fig14_roundtrip_scaling() {
        // Doubling the rate halves ring length for constant capacity:
        // roundtrip 20 at 20 Gbit/s, 80 at 5 Gbit/s. Geometry stays valid.
        for (rt, spacing) in [(20u64, 5u64), (80, 20)] {
            let g = RingGeometry {
                roundtrip: rt,
                ..base()
            };
            assert_eq!(g.frame_spacing(), spacing);
        }
    }
}
