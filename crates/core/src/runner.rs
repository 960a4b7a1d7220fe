//! One-call experiment helpers used by the examples and tests.

use crate::config::SysConfig;
use crate::machine::{run_workload, EngineScratch};
use crate::metrics::RunReport;
use crate::sweep::{Sweep, SweepPoint};
use netcache_apps::{AppId, Workload};

/// Runs one workload on one machine configuration (statically-dispatched
/// engine; see [`crate::machine::run_streams`]).
pub fn run_app(cfg: &SysConfig, workload: &Workload) -> RunReport {
    run_workload(cfg, workload, &mut EngineScratch::new())
}

/// Runs `app` across a set of configurations (e.g., the four
/// architectures) in parallel and returns the reports in input order.
/// Each configuration runs its own node count's workload, as a sweep
/// cell does, on every host core.
pub fn compare<'a>(
    cfgs: impl IntoIterator<Item = &'a SysConfig>,
    app: AppId,
    scale: f64,
) -> Vec<RunReport> {
    let points = cfgs
        .into_iter()
        .map(|&cfg| SweepPoint::new(cfg, app, scale))
        .collect();
    let jobs = std::thread::available_parallelism().map_or(1, |p| p.get());
    Sweep::from_points(points)
        .run(jobs)
        .runs
        .into_iter()
        .map(|r| r.report)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Arch;

    #[test]
    fn run_app_smoke() {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(2);
        let r = run_app(&cfg, &Workload::new(AppId::Water, 2).scale(0.25));
        assert!(r.cycles > 0);
    }

    #[test]
    fn compare_returns_all_systems() {
        let cfgs: Vec<SysConfig> = Arch::ALL
            .iter()
            .map(|&a| SysConfig::base(a).with_nodes(2))
            .collect();
        let rs = compare(cfgs.iter(), AppId::Fft, 0.02);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].arch, "NetCache");
        assert_eq!(rs[3].arch, "DMON-I");
    }
}
