//! Contention-free latency breakdowns — the reproduction of the paper's
//! Tables 1, 2 and 3.
//!
//! These functions compute each table row from the configuration (so the
//! parameter-space sweeps change them consistently) and are asserted
//! against the paper's published totals in this module's tests. The
//! protocols use the same primitive costs; keeping the authoritative
//! breakdown here keeps the two from drifting apart.

use crate::config::SysConfig;

/// Fixed path constants shared by all architectures (paper §4.1 tables).
pub mod consts {
    /// L1 tag check.
    pub const L1_TAG: u64 = 1;
    /// L2 tag check.
    pub const L2_TAG: u64 = 4;
    /// Moving a received block from the NI into the L2 (and on to the L1).
    pub const NI_TO_L2: u64 = 16;
    /// Transferring a block from the L2 to the NI for an update message.
    pub const L2_TO_NI: u64 = 10;
    /// Transferring just a command/address to the NI (DMON-I invalidates).
    pub const CMD_TO_NI: u64 = 2;
    /// Bits in a single-slot message (address + command): determines the
    /// slot width at a given transmission rate.
    pub const SLOT_BITS: u64 = 50;
    /// Words written per coherence transaction in Table 3's example.
    pub const TABLE3_WORDS: u32 = 8;
    /// Header bits on a NetCache/DMON-U update message.
    pub const UPDATE_HEADER_BITS: u64 = 112;
    /// Header bits on a LambdaNet update message.
    pub const LAMBDA_UPDATE_HEADER_BITS: u64 = 80;
    /// Bits in a DMON-I invalidate (address + command).
    pub const INVALIDATE_BITS: u64 = 80;
    /// Header bits on a DMON block reply.
    pub const DMON_BLOCK_HEADER_BITS: u64 = 64;
    /// DMON memory-request message bits (address + type, 2 slots at base
    /// rate).
    pub const DMON_REQUEST_BITS: u64 = 80;
    /// Final local write after a DMON-I ownership acquisition.
    pub const DMONI_LOCAL_WRITE: u64 = 8;
}

use consts::*;

/// A named latency component.
pub type Component = (&'static str, u64);

/// Sums a breakdown.
pub fn total(components: &[Component]) -> u64 {
    components.iter().map(|(_, v)| v).sum()
}

/// Average TDMA wait on a `clients × slot` channel: half a frame.
fn avg_tdma(clients: usize, slot: u64) -> u64 {
    clients as u64 * slot / 2
}

/// Width of a minimum TDMA slot at the configured rate: the cycles needed
/// to carry a [`consts::SLOT_BITS`] message (1 at the base 10 Gbit/s).
pub fn slot_width(optics: &optics::OpticalParams) -> u64 {
    optics.transfer_bits(consts::SLOT_BITS).max(1)
}

/// Table 1 (top): NetCache shared-cache read **hit**.
pub fn netcache_hit(cfg: &SysConfig) -> Vec<Component> {
    vec![
        ("1st-level tag check", L1_TAG),
        ("2nd-level tag check", L2_TAG),
        (
            "Avg. shared cache delay",
            cfg.ring.roundtrip / 2 + cfg.ring.geometry(cfg.nodes).read_overhead,
        ),
        ("NI to 2nd-level cache", NI_TO_L2),
    ]
}

/// Table 1 (bottom): NetCache shared-cache read **miss**.
pub fn netcache_miss(cfg: &SysConfig) -> Vec<Component> {
    let w = slot_width(&cfg.optics);
    vec![
        ("1st-level tag check", L1_TAG),
        ("2nd-level tag check", L2_TAG),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes, w)),
        ("Memory request", w),
        ("Flight", cfg.optics.flight),
        ("Memory read", cfg.mem.read_latency),
        ("Block transfer", cfg.optics.transfer(cfg.l2.block_bytes, 0)),
        ("Flight", cfg.optics.flight),
        ("NI to 2nd-level cache", NI_TO_L2),
    ]
}

/// Table 2 (left): LambdaNet 2nd-level read miss.
pub fn lambdanet_miss(cfg: &SysConfig) -> Vec<Component> {
    let w = slot_width(&cfg.optics);
    vec![
        ("1st-level tag check", L1_TAG),
        ("2nd-level tag check", L2_TAG),
        ("Memory request", w),
        ("Flight", cfg.optics.flight),
        ("Memory read", cfg.mem.read_latency),
        ("Block transfer", cfg.optics.transfer(cfg.l2.block_bytes, 0)),
        ("Flight", cfg.optics.flight),
        ("NI to 2nd-level cache", NI_TO_L2),
    ]
}

/// Table 2 (right): DMON 2nd-level read miss (either protocol).
pub fn dmon_miss(cfg: &SysConfig) -> Vec<Component> {
    let w = slot_width(&cfg.optics);
    vec![
        ("1st-level tag check", L1_TAG),
        ("2nd-level tag check", L2_TAG),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes, w)),
        ("Reservation", w),
        ("Tuning delay", cfg.optics.tuning_delay),
        (
            "Memory request",
            cfg.optics.transfer_bits(DMON_REQUEST_BITS),
        ),
        ("Flight", cfg.optics.flight),
        ("Memory read", cfg.mem.read_latency),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes, w)),
        ("Reservation", w),
        (
            "Block transfer",
            cfg.optics
                .transfer(cfg.l2.block_bytes, DMON_BLOCK_HEADER_BITS),
        ),
        ("Flight", cfg.optics.flight),
        ("NI to 2nd-level cache", NI_TO_L2),
    ]
}

/// Table 3 column 1: NetCache coherence (update) transaction, 8 words.
pub fn netcache_update(cfg: &SysConfig) -> Vec<Component> {
    let words = TABLE3_WORDS as u64;
    let w = slot_width(&cfg.optics);
    vec![
        ("2nd-level tag check", L2_TAG),
        ("Write to NI", L2_TO_NI),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes / 2, 2 * w)),
        (
            "Update",
            cfg.optics.transfer_bits(words * 32 + UPDATE_HEADER_BITS),
        ),
        ("Flight", cfg.optics.flight),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes, w)),
        ("Ack", w),
        ("Flight", cfg.optics.flight),
    ]
}

/// Table 3 column 2: LambdaNet coherence transaction.
pub fn lambdanet_update(cfg: &SysConfig) -> Vec<Component> {
    let words = TABLE3_WORDS as u64;
    vec![
        ("2nd-level tag check", L2_TAG),
        ("Write to NI", L2_TO_NI),
        (
            "Update",
            cfg.optics
                .transfer_bits(words * 32 + LAMBDA_UPDATE_HEADER_BITS),
        ),
        ("Flight", cfg.optics.flight),
        ("Ack", slot_width(&cfg.optics)),
        ("Flight", cfg.optics.flight),
    ]
}

/// Table 3 column 3: DMON-U coherence transaction.
pub fn dmon_u_update(cfg: &SysConfig) -> Vec<Component> {
    let words = TABLE3_WORDS as u64;
    let w = slot_width(&cfg.optics);
    vec![
        ("2nd-level tag check", L2_TAG),
        ("Write to NI", L2_TO_NI),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes / 2, 2 * w)),
        ("Reservation", w),
        (
            "Update",
            cfg.optics.transfer_bits(words * 32 + UPDATE_HEADER_BITS),
        ),
        ("Flight", cfg.optics.flight),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes, w)),
        ("Reservation", w),
        ("Ack", w),
        ("Flight", cfg.optics.flight),
    ]
}

/// Table 3 column 4: DMON-I coherence (invalidate) transaction.
pub fn dmon_i_invalidate(cfg: &SysConfig) -> Vec<Component> {
    let w = slot_width(&cfg.optics);
    vec![
        ("2nd-level tag check", L2_TAG),
        ("Write to NI", CMD_TO_NI),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes, w)),
        ("Reservation", w),
        ("Invalidate", cfg.optics.transfer_bits(INVALIDATE_BITS)),
        ("Flight", cfg.optics.flight),
        ("Avg. TDMA delay", avg_tdma(cfg.nodes, w)),
        ("Reservation", w),
        ("Ack", w),
        ("Flight", cfg.optics.flight),
        ("Write", DMONI_LOCAL_WRITE),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;

    fn base() -> SysConfig {
        SysConfig::base(Arch::NetCache)
    }

    #[test]
    fn table1_hit_totals_46() {
        assert_eq!(total(&netcache_hit(&base())), 46);
    }

    #[test]
    fn table1_miss_totals_119() {
        assert_eq!(total(&netcache_miss(&base())), 119);
    }

    #[test]
    fn table2_lambdanet_totals_111() {
        assert_eq!(total(&lambdanet_miss(&base())), 111);
    }

    #[test]
    fn table2_dmon_totals_135() {
        assert_eq!(total(&dmon_miss(&base())), 135);
    }

    #[test]
    fn table3_totals() {
        assert_eq!(total(&netcache_update(&base())), 41);
        assert_eq!(total(&lambdanet_update(&base())), 24);
        assert_eq!(total(&dmon_u_update(&base())), 43);
        assert_eq!(total(&dmon_i_invalidate(&base())), 37);
    }

    #[test]
    fn paper_ratio_dmon_vs_lambdanet() {
        // §5.1: "the contention-free 2nd-level read-miss latency in the
        // DMON-U system is 22% higher than in the LambdaNet system".
        let d = total(&dmon_miss(&base())) as f64;
        let l = total(&lambdanet_miss(&base())) as f64;
        assert!((d / l - 1.22).abs() < 0.01, "{}", d / l);
    }

    #[test]
    fn paper_ratio_netcache_vs_dmon_u() {
        // §5.1: "their contention-free 2nd-level read miss latencies only
        // differ by 13%".
        let d = total(&dmon_miss(&base())) as f64;
        let n = total(&netcache_miss(&base())) as f64;
        assert!((d / n - 1.13).abs() < 0.02, "{}", d / n);
    }

    #[test]
    fn fig14_hit_miss_gap_by_rate() {
        // §5.4.2: at 5 Gbit/s a shared read hit takes 68 and a miss 140
        // pcycles (factor 2); at 10 Gbit/s the miss is 2.6× the hit.
        let slow = SysConfig::base(Arch::NetCache).with_rate_gbps(5.0);
        let hit = total(&netcache_hit(&slow));
        let miss = total(&netcache_miss(&slow));
        assert!((66..=70).contains(&hit), "hit {hit}");
        assert!((135..=145).contains(&miss), "miss {miss}");
        let base_ratio =
            total(&netcache_miss(&base())) as f64 / total(&netcache_hit(&base())) as f64;
        assert!((base_ratio - 2.6).abs() < 0.1, "{base_ratio}");
    }

    #[test]
    fn fig15_miss_latency_scales_with_memory() {
        for (mem, expect) in [(44u64, 87u64), (76, 119), (108, 151)] {
            let cfg = SysConfig::base(Arch::NetCache).with_mem_latency(mem);
            assert_eq!(total(&netcache_miss(&cfg)), expect);
        }
    }
}
