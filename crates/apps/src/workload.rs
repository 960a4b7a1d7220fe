//! Workload selection and dispatch.

use crate::ops::OpStream;
use memsys::AddressMap;

/// The twelve applications of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// NAS conjugate-gradient kernel.
    Cg,
    /// Electromagnetic wave propagation on a bipartite graph (Berkeley).
    Em3d,
    /// SPLASH-2 1-D six-step FFT.
    Fft,
    /// Unblocked Gaussian elimination (local code).
    Gauss,
    /// SPLASH-2 blocked dense LU factorization.
    Lu,
    /// NAS 3-D multigrid Poisson solver.
    Mg,
    /// SPLASH-2 ocean simulation (stencils + multigrid).
    Ocean,
    /// SPLASH-2 integer radix sort.
    Radix,
    /// Parallel ray tracer (teapot scene).
    Raytrace,
    /// Red-black successive over-relaxation (local code).
    Sor,
    /// Water simulation, spatial allocation.
    Water,
    /// Warshall-Floyd all-pairs shortest paths (local code).
    Wf,
}

/// Shared-cache data-reuse class observed in the paper (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseClass {
    /// <32% shared-cache hit rate: Em3d, FFT, Radix.
    Low,
    /// Intermediate hit rates: CG, Ocean, Raytrace, SOR, Water, WF.
    Moderate,
    /// ~70% hit rates: Gauss, LU, Mg.
    High,
}

impl AppId {
    /// All twelve applications, in the paper's figure order.
    pub const ALL: [AppId; 12] = [
        AppId::Cg,
        AppId::Em3d,
        AppId::Fft,
        AppId::Gauss,
        AppId::Lu,
        AppId::Mg,
        AppId::Ocean,
        AppId::Radix,
        AppId::Raytrace,
        AppId::Sor,
        AppId::Water,
        AppId::Wf,
    ];

    /// Lower-case display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Cg => "cg",
            AppId::Em3d => "em3d",
            AppId::Fft => "fft",
            AppId::Gauss => "gauss",
            AppId::Lu => "lu",
            AppId::Mg => "mg",
            AppId::Ocean => "ocean",
            AppId::Radix => "radix",
            AppId::Raytrace => "raytrace",
            AppId::Sor => "sor",
            AppId::Water => "water",
            AppId::Wf => "wf",
        }
    }

    /// The paper's observed reuse class (used by tests and EXPERIMENTS.md
    /// to check reproduction shape, never by the simulator itself).
    pub fn reuse_class(&self) -> ReuseClass {
        match self {
            AppId::Em3d | AppId::Fft | AppId::Radix => ReuseClass::Low,
            AppId::Gauss | AppId::Lu | AppId::Mg => ReuseClass::High,
            _ => ReuseClass::Moderate,
        }
    }
}

/// A fully specified workload: which program, how many processors, what
/// input scale, which seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Which application.
    pub app: AppId,
    /// Number of processors the program is written for.
    pub procs: usize,
    /// Input scale: 1.0 reproduces the paper's Table 4 inputs; smaller
    /// values shrink iteration counts / problem dimensions proportionally
    /// (each app documents its interpretation).
    pub scale: f64,
    /// Seed for data-dependent structure (graphs, keys, rays).
    pub seed: u64,
}

impl Workload {
    /// A paper-scale workload.
    pub fn new(app: AppId, procs: usize) -> Self {
        Self {
            app,
            procs,
            scale: 1.0,
            seed: 0xC0FF_EE11,
        }
    }

    /// Adjusts the input scale (builder style).
    pub fn scale(mut self, s: f64) -> Self {
        assert!(s > 0.0 && s <= 1.0, "scale must be in (0, 1]");
        self.scale = s;
        self
    }

    /// Adjusts the seed (builder style).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Generates the per-processor operation streams.
    pub fn streams(&self, map: &AddressMap) -> Vec<OpStream> {
        assert!(self.procs >= 1);
        assert!(
            map.nodes >= self.procs,
            "machine has {} nodes but workload wants {}",
            map.nodes,
            self.procs
        );
        match self.app {
            AppId::Cg => crate::cg::streams(self, map),
            AppId::Em3d => crate::em3d::streams(self, map),
            AppId::Fft => crate::fft::streams(self, map),
            AppId::Gauss => crate::gauss::streams(self, map),
            AppId::Lu => crate::lu::streams(self, map),
            AppId::Mg => crate::mg::streams(self, map),
            AppId::Ocean => crate::ocean::streams(self, map),
            AppId::Radix => crate::radix::streams(self, map),
            AppId::Raytrace => crate::raytrace::streams(self, map),
            AppId::Sor => crate::sor::streams(self, map),
            AppId::Water => crate::water::streams(self, map),
            AppId::Wf => crate::wf::streams(self, map),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use crate::trace::check_contract;

    fn map() -> AddressMap {
        AddressMap::new(16, 64)
    }

    /// Cross-app invariants: every application must satisfy these for the
    /// simulator to be able to run it. The synchronization structure is
    /// the front-end contract `replay` checks on imported traces.
    fn check_invariants(app: AppId) {
        let m = map();
        let w = Workload::new(app, 4).scale(0.02);
        let traces: Vec<Vec<Op>> = w.streams(&m).into_iter().map(Iterator::collect).collect();
        assert_eq!(traces.len(), 4);
        if let Err(e) = check_contract(&traces) {
            panic!("{}: {e}", app.name());
        }
        for ops in &traces {
            let mut refs = 0u64;
            for op in ops {
                match op {
                    Op::Read(_) | Op::Write(_) => refs += 1,
                    Op::Compute(n) => assert!(*n > 0, "empty compute op"),
                    Op::Acquire(_) | Op::Release(_) | Op::Barrier(_) => {}
                }
            }
            assert!(refs > 100, "{}: suspiciously few refs ({refs})", app.name());
        }
        assert!(
            traces[0].iter().any(|op| matches!(op, Op::Barrier(_))),
            "{}: parallel program with no barriers",
            app.name()
        );
    }

    #[test]
    fn invariants_cg() {
        check_invariants(AppId::Cg);
    }
    #[test]
    fn invariants_em3d() {
        check_invariants(AppId::Em3d);
    }
    #[test]
    fn invariants_fft() {
        check_invariants(AppId::Fft);
    }
    #[test]
    fn invariants_gauss() {
        check_invariants(AppId::Gauss);
    }
    #[test]
    fn invariants_lu() {
        check_invariants(AppId::Lu);
    }
    #[test]
    fn invariants_mg() {
        check_invariants(AppId::Mg);
    }
    #[test]
    fn invariants_ocean() {
        check_invariants(AppId::Ocean);
    }
    #[test]
    fn invariants_radix() {
        check_invariants(AppId::Radix);
    }
    #[test]
    fn invariants_raytrace() {
        check_invariants(AppId::Raytrace);
    }
    #[test]
    fn invariants_sor() {
        check_invariants(AppId::Sor);
    }
    #[test]
    fn invariants_water() {
        check_invariants(AppId::Water);
    }
    #[test]
    fn invariants_wf() {
        check_invariants(AppId::Wf);
    }

    #[test]
    fn single_proc_streams_work() {
        let m = map();
        for app in AppId::ALL {
            let w = Workload::new(app, 1).scale(0.01);
            let streams = w.streams(&m);
            assert_eq!(streams.len(), 1);
            let n = streams.into_iter().next().unwrap().take(2_000_000).count();
            assert!(n > 50, "{}: tiny single-proc stream", app.name());
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let m = map();
        for app in [AppId::Radix, AppId::Raytrace, AppId::Em3d] {
            let w = Workload::new(app, 2).scale(0.01);
            let a: Vec<Op> = w.streams(&m).remove(0).take(10_000).collect();
            let b: Vec<Op> = w.streams(&m).remove(0).take(10_000).collect();
            assert_eq!(a, b, "{} not deterministic", app.name());
        }
    }

    #[test]
    fn seeds_change_data_dependent_apps() {
        let m = map();
        let a: Vec<Op> = Workload::new(AppId::Radix, 2)
            .scale(0.01)
            .seed(1)
            .streams(&m)
            .remove(0)
            .take(50_000)
            .collect();
        let b: Vec<Op> = Workload::new(AppId::Radix, 2)
            .scale(0.01)
            .seed(2)
            .streams(&m)
            .remove(0)
            .take(50_000)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn names_and_classes() {
        assert_eq!(AppId::ALL.len(), 12);
        assert_eq!(AppId::Gauss.reuse_class(), ReuseClass::High);
        assert_eq!(AppId::Fft.reuse_class(), ReuseClass::Low);
        assert_eq!(AppId::Sor.reuse_class(), ReuseClass::Moderate);
        let names: Vec<_> = AppId::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names[0], "cg");
        assert_eq!(names[11], "wf");
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        let _ = Workload::new(AppId::Sor, 4).scale(0.0);
    }
}
