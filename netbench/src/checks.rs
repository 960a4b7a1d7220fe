//! Correctness checks: every pass's outputs are checked, and a cell that
//! fails any check counts toward `failed`.

use netcache_core::RunReport;

/// The base configuration's simulation seed; the pinned digests below
/// hold only under it.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// `RunReport::digest` of every `fig6-grid` and `scale-64` cell under
/// [`DEFAULT_SEED`], by label. Regenerate with `netbench --print-digests`
/// after a change that is meant to alter simulated results.
pub const PINNED: &[(&str, u64)] = &[
    ("netcache/cg/p16/s0.1", 0x1e3b3f0fcceb5414),
    ("netcache/em3d/p16/s0.1", 0xa87442f9be464cee),
    ("netcache/fft/p16/s0.1", 0xaaf1197bde1018ae),
    ("netcache/gauss/p16/s0.1", 0x4937e7816db6f2a2),
    ("netcache/lu/p16/s0.1", 0xd80041b740ee87d6),
    ("netcache/mg/p16/s0.1", 0x6e1f3bd1849d7dd1),
    ("netcache/ocean/p16/s0.1", 0xc629f9f916566903),
    ("netcache/radix/p16/s0.1", 0x964d2dc16c777348),
    ("netcache/raytrace/p16/s0.1", 0xd167a052ca319ed6),
    ("netcache/sor/p16/s0.1", 0xf41b8e2113a4c286),
    ("netcache/water/p16/s0.1", 0x47b249ed4a3d3321),
    ("netcache/wf/p16/s0.1", 0x986272a9bdb162b0),
    ("lambdanet/cg/p16/s0.1", 0xc86c2c8c112ed3a1),
    ("lambdanet/em3d/p16/s0.1", 0xb0e825da44894d0d),
    ("lambdanet/fft/p16/s0.1", 0x9434f6972295c3a6),
    ("lambdanet/gauss/p16/s0.1", 0xdc98a2abc59e7d58),
    ("lambdanet/lu/p16/s0.1", 0x222568af5a446c1b),
    ("lambdanet/mg/p16/s0.1", 0x59268b50bccd7d24),
    ("lambdanet/ocean/p16/s0.1", 0x9e96a056b3cb7871),
    ("lambdanet/radix/p16/s0.1", 0x909b28290e1b810f),
    ("lambdanet/raytrace/p16/s0.1", 0xd256ac26726c57dc),
    ("lambdanet/sor/p16/s0.1", 0x181bcc958ab013f3),
    ("lambdanet/water/p16/s0.1", 0xf12f5ee923a83228),
    ("lambdanet/wf/p16/s0.1", 0x79af27a1f812f37f),
    ("dmon-u/cg/p16/s0.1", 0x5ad83b069e94a21e),
    ("dmon-u/em3d/p16/s0.1", 0x7912098558f38aef),
    ("dmon-u/fft/p16/s0.1", 0x30805164d8871a22),
    ("dmon-u/gauss/p16/s0.1", 0xf518debad3b425ad),
    ("dmon-u/lu/p16/s0.1", 0x13483dddbe3d8617),
    ("dmon-u/mg/p16/s0.1", 0x1279a711b9c20ec6),
    ("dmon-u/ocean/p16/s0.1", 0xc28fc0e1afa04ad6),
    ("dmon-u/radix/p16/s0.1", 0x9457952ee308f5fb),
    ("dmon-u/raytrace/p16/s0.1", 0x6d8e4cc37e2c31b4),
    ("dmon-u/sor/p16/s0.1", 0x4cd5efc55612829f),
    ("dmon-u/water/p16/s0.1", 0x540334abb23b3d9d),
    ("dmon-u/wf/p16/s0.1", 0x9f6e890a3c3572fe),
    ("dmon-i/cg/p16/s0.1", 0x39feccf3e1687029),
    ("dmon-i/em3d/p16/s0.1", 0x93e3b8b939f7a399),
    ("dmon-i/fft/p16/s0.1", 0x17d229c1afb7a115),
    ("dmon-i/gauss/p16/s0.1", 0x2a9a47918cfcfc2c),
    ("dmon-i/lu/p16/s0.1", 0x5b350b7641d2e79e),
    ("dmon-i/mg/p16/s0.1", 0x9f63ce26bc643f96),
    ("dmon-i/ocean/p16/s0.1", 0xad8cf1a08f795148),
    ("dmon-i/radix/p16/s0.1", 0x863050ae644606cd),
    ("dmon-i/raytrace/p16/s0.1", 0x1fd9ca8ccb4c2c42),
    ("dmon-i/sor/p16/s0.1", 0x285bc90dd35cc378),
    ("dmon-i/water/p16/s0.1", 0xd593e2a0bcca7ebb),
    ("dmon-i/wf/p16/s0.1", 0x79acb45fea1d004f),
    ("netcache/cg/p64/s0.1", 0x0e8fb5e146958c38),
    ("netcache/cg/p64/s0.1/sor", 0x1d988fbf2ff6fcce),
    ("netcache/em3d/p64/s0.1", 0x3c24ae1b68b41272),
    ("netcache/em3d/p64/s0.1/sor", 0x805fccaaac50fb69),
    ("netcache/fft/p64/s0.1", 0xdd075fdf4f22ca77),
    ("netcache/fft/p64/s0.1/sor", 0xdbcbc883af5f77c3),
    ("netcache/gauss/p64/s0.1", 0x9a8f8c0d59933b1c),
    ("netcache/gauss/p64/s0.1/sor", 0xd5a87a2d54a29688),
    ("netcache/lu/p64/s0.1", 0x3c3a5b05f7a44a8b),
    ("netcache/lu/p64/s0.1/sor", 0x9e3bfb0491185f23),
    ("netcache/mg/p64/s0.1", 0xce5fa7c029199d36),
    ("netcache/mg/p64/s0.1/sor", 0xa95110c59d232142),
    ("netcache/ocean/p64/s0.1", 0x114f7f67a84b368e),
    ("netcache/ocean/p64/s0.1/sor", 0xef8d2aee585e373b),
    ("netcache/radix/p64/s0.1", 0x8824626eac2cac00),
    ("netcache/radix/p64/s0.1/sor", 0x5d1e7b6d40743d79),
    ("netcache/raytrace/p64/s0.1", 0x91ec8e1fdc2c25b7),
    ("netcache/raytrace/p64/s0.1/sor", 0xe8a9ca993d5f8ea8),
    ("netcache/sor/p64/s0.1", 0xdf5f654beca591d2),
    ("netcache/sor/p64/s0.1/sor", 0x572200195afa7626),
    ("netcache/water/p64/s0.1", 0xd884df185fbbf02b),
    ("netcache/water/p64/s0.1/sor", 0x23a010ff5b0fbd6c),
    ("netcache/wf/p64/s0.1", 0x4b9ac452b220e2bb),
    ("netcache/wf/p64/s0.1/sor", 0x4ff11fdcbabbf775),
];

/// The pinned digest for `label`, if the cell is pinned.
pub fn pinned(label: &str) -> Option<u64> {
    PINNED.iter().find(|(l, _)| *l == label).map(|&(_, d)| d)
}

/// Checks one simulated cell of a sweep workload: the pinned digest (if
/// any), the digest of the cell's first pass (if any), the op count the
/// generators stand for, and that the ring shed no orphaned windows.
pub fn check_cell(
    report: &RunReport,
    pin: Option<u64>,
    first: Option<u64>,
    expected_ops: u64,
) -> Result<(), String> {
    let digest = report.digest();
    if let Some(pin) = pin.filter(|&p| p != digest) {
        return Err(format!("digest {digest:#018x} != pinned {pin:#018x}"));
    }
    if let Some(first) = first.filter(|&f| f != digest) {
        return Err(format!("digest {digest:#018x} != first pass {first:#018x}"));
    }
    if report.ops != expected_ops {
        return Err(format!(
            "report.ops {} != generated ops {expected_ops}",
            report.ops
        ));
    }
    check_orphans(report)
}

/// The ring must never shed a live orphaned window in a trusted run.
pub fn check_orphans(report: &RunReport) -> Result<(), String> {
    match report.ring.map_or(0, |r| r.orphans_dropped) {
        0 => Ok(()),
        n => Err(format!("ring dropped {n} orphaned windows")),
    }
}

/// Failures found in one pass: `None` marks a failure of the whole pass.
pub type Failures = Vec<(Option<usize>, String)>;

/// Running tally of checked cells.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Ledger {
    /// Books one pass of `cells` cells.
    pub fn book(&mut self, cells: usize, failures: Failures) {
        self.attempted += cells as u64;
        let failed = if failures.iter().any(|(c, _)| c.is_none()) {
            cells
        } else {
            let mut ids: Vec<usize> = failures.iter().filter_map(|(c, _)| *c).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        self.failed += failed as u64;
        for (_, msg) in failures {
            if self.messages.len() < 20 {
                self.messages.push(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache_apps::{AppId, Workload};
    use netcache_core::{run_app, Arch, SysConfig};

    fn small_report() -> RunReport {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(2);
        run_app(&cfg, &Workload::new(AppId::Fft, 2).scale(0.01))
    }

    #[test]
    fn a_wrong_pinned_digest_counts_as_a_failure() {
        let r = small_report();
        let ok = check_cell(&r, Some(r.digest()), Some(r.digest()), r.ops);
        assert_eq!(ok, Ok(()));
        let wrong = check_cell(&r, Some(r.digest() ^ 1), None, r.ops);
        assert!(wrong.unwrap_err().contains("pinned"));
        let mut ledger = Ledger::default();
        ledger.book(
            3,
            vec![(
                Some(1),
                check_cell(&r, Some(r.digest() ^ 1), None, r.ops).unwrap_err(),
            )],
        );
        assert_eq!((ledger.attempted, ledger.failed), (3, 1));
    }

    #[test]
    fn op_count_and_cross_pass_digest_are_checked() {
        let r = small_report();
        assert!(check_cell(&r, None, Some(r.digest() ^ 1), r.ops).is_err());
        assert!(check_cell(&r, None, None, r.ops + 1).is_err());
    }

    #[test]
    fn a_whole_pass_failure_fails_every_cell() {
        let mut ledger = Ledger::default();
        ledger.book(48, vec![(None, "panicked".into()), (Some(3), "x".into())]);
        assert_eq!((ledger.attempted, ledger.failed), (48, 48));
        ledger.book(48, Vec::new());
        assert_eq!((ledger.attempted, ledger.failed), (96, 48));
    }

    #[test]
    fn every_cell_of_both_grids_is_pinned_once() {
        let mut labels: Vec<&str> = PINNED.iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        // fig6-grid's 48 cells and scale-64's 24.
        assert_eq!(labels.len(), 48 + 24);
        assert_eq!(PINNED.len(), labels.len());
    }
}
