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
    use crate::gen::{refill_bytes, REFILL_BYTES};
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

    /// Processor counts the stream checks below cover: Fig. 5's
    /// one-node baseline up to the largest machine `validate` accepts.
    const PROCS: [usize; 4] = [1, 4, 16, 64];

    /// FNV-1a over every processor's scalar op sequence, in processor
    /// order, each stream closed by its length (the hashing of
    /// `RunReport::digest`).
    fn stream_digest(w: &Workload) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut put = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for s in w.streams(&AddressMap::new(w.procs, 64)) {
            let mut len = 0u64;
            for op in s {
                let (tag, v) = match op {
                    Op::Compute(n) => (0, u64::from(n)),
                    Op::Read(a) => (1, a),
                    Op::Write(a) => (2, a),
                    Op::Acquire(id) => (3, u64::from(id)),
                    Op::Release(id) => (4, u64::from(id)),
                    Op::Barrier(id) => (5, u64::from(id)),
                };
                put(tag);
                put(v);
                len += 1;
            }
            put(len);
        }
        h
    }

    /// Each app's [`stream_digest`] at [`PROCS`] = 1, 4, 16, 64, pinned
    /// from the generators before their phases were cut into bounded
    /// refills. Where a generator cuts its refills must never show here.
    #[rustfmt::skip]
    const STREAM_GOLDEN_002: [(AppId, [u64; 4]); 12] = [
        (AppId::Cg, [0x9a67ead970d6df20, 0xbf7f7599fa467967, 0x6778e4c95dac01b5, 0x68c1fef5658dc663]),
        (AppId::Em3d, [0xac9884b338713abd, 0xb12d47b73daed444, 0x4448e5978623c0c5, 0x0b11b3fddfe5068f]),
        (AppId::Fft, [0x1c6e9efcbcd42009, 0x588714b500df5425, 0x0531626a382e7ba5, 0xc062dbb185a47925]),
        (AppId::Gauss, [0x25f61810741071ad, 0x61862e1b088763c5, 0xbb3573ad6b0775d2, 0x44b554ba56823412]),
        (AppId::Lu, [0xdb35ccbe780b25fa, 0xe1964304c3e0a4d5, 0xe44efd237df0a6dd, 0xf25194c4246e201d]),
        (AppId::Mg, [0x18d369c55ffa7af5, 0xf15e6b471c382dd7, 0x57db5ce947d43a8b, 0xe60005f4b19bb943]),
        (AppId::Ocean, [0xfd0a5cfe52af3438, 0x8ca6cf9570b1fe0f, 0x0a4c5b5edbd835ab, 0x7a55d176918c16c3]),
        (AppId::Radix, [0x0eec87a93221908d, 0xa9ef6742f533fd2d, 0xed3dec26cb22c0e3, 0x2454fd4522808d19]),
        (AppId::Raytrace, [0x61b9205543856139, 0xb17ae099f2577a6f, 0xb9162c3d94a381dd, 0x37cca16b2d89f518]),
        (AppId::Sor, [0xe97bd71ad775ab4b, 0x79dacc944d265665, 0xa32864b75430d869, 0x0daa99bbaf1a5f39]),
        (AppId::Water, [0xa4c553bb0980c100, 0xbe90febea355f395, 0x65148a8532e3c145, 0x453dc8cedf1844a5]),
        (AppId::Wf, [0x567b8d00883d2892, 0x40b80ca3bf05fd74, 0x625345c81b32b2a2, 0x3c8771e7dc6469eb]),
    ];

    /// [`STREAM_GOLDEN_002`] at scale 0.1 (netbench's scale).
    #[rustfmt::skip]
    const STREAM_GOLDEN_010: [(AppId, [u64; 4]); 12] = [
        (AppId::Cg, [0x266d6399a2f4ca99, 0x23d5e9e16c5096ab, 0x695e6ac3eb42be85, 0x27b2d40cbd6b2787]),
        (AppId::Em3d, [0xac9884b338713abd, 0xb12d47b73daed444, 0x4448e5978623c0c5, 0x0b11b3fddfe5068f]),
        (AppId::Fft, [0xc4f5384de2c38493, 0x740f3641e93ea605, 0xd1bd004958884225, 0x6b07a9b21a4d5625]),
        (AppId::Gauss, [0x5230aab92c4ace0b, 0xacab8631347c4864, 0x6f2c372b8837a4e2, 0x2461cf72f88eb069]),
        (AppId::Lu, [0xfbecec912cef7492, 0x5a97861d7edb3245, 0x6206bfed70abd116, 0xafc58bb290940c5a]),
        (AppId::Mg, [0x18d369c55ffa7af5, 0xf15e6b471c382dd7, 0x57db5ce947d43a8b, 0xe60005f4b19bb943]),
        (AppId::Ocean, [0xfd0a5cfe52af3438, 0x8ca6cf9570b1fe0f, 0x0a4c5b5edbd835ab, 0x7a55d176918c16c3]),
        (AppId::Radix, [0x41ab2d0cf8b61d35, 0xe0113ff35f9e9fec, 0x79644f95366466a3, 0xf3b45579f926865e]),
        (AppId::Raytrace, [0x61b9205543856139, 0xb17ae099f2577a6f, 0xb9162c3d94a381dd, 0x37cca16b2d89f518]),
        (AppId::Sor, [0xd4ccee44bb7a3e65, 0xe241ab82ddfc4c7d, 0x06ca7b154a3aff91, 0x06faef7b60f91e49]),
        (AppId::Water, [0xa4c553bb0980c100, 0xbe90febea355f395, 0x65148a8532e3c145, 0x453dc8cedf1844a5]),
        (AppId::Wf, [0xb4ca7b4c1dd3af15, 0x84efadec1544d45c, 0x768c7b274e29e48b, 0xef9d32af2e855801]),
    ];

    fn check_stream_goldens(scale: f64, golden: &[(AppId, [u64; 4]); 12]) {
        let mut wrong = Vec::new();
        for &(app, want) in golden {
            for (procs, want) in PROCS.into_iter().zip(want) {
                let got = stream_digest(&Workload::new(app, procs).scale(scale));
                if got != want {
                    wrong.push(format!(
                        "{} procs {procs}: {got:#018x}, pinned {want:#018x}",
                        app.name()
                    ));
                }
            }
        }
        assert!(
            wrong.is_empty(),
            "op streams changed at scale {scale}:\n{}",
            wrong.join("\n")
        );
    }

    #[test]
    fn op_streams_match_their_goldens() {
        check_stream_goldens(0.02, &STREAM_GOLDEN_002);
    }

    #[test]
    #[ignore = "slow in a debug build; CI runs it in release"]
    fn op_streams_match_their_goldens_at_scale_0_1() {
        check_stream_goldens(0.1, &STREAM_GOLDEN_010);
    }

    /// The largest refill any processor's stream of `w` makes, drained
    /// through the engine's macro cursor.
    fn max_refill_bytes(w: &Workload) -> usize {
        let mut worst = 0;
        for mut s in w.streams(&AddressMap::new(w.procs, 64)) {
            loop {
                let run = s.macro_run();
                if run.is_empty() {
                    break;
                }
                worst = worst.max(refill_bytes(run));
                for _ in 0..run.len() {
                    let n = s.macro_run()[0].total_iters();
                    s.consume_iters(n);
                }
            }
        }
        worst
    }

    fn check_refill_budget(scales: &[f64]) {
        let mut over = Vec::new();
        for app in AppId::ALL {
            for procs in PROCS {
                for &scale in scales {
                    let worst = max_refill_bytes(&Workload::new(app, procs).scale(scale));
                    if worst > REFILL_BYTES {
                        over.push(format!(
                            "{} procs {procs} scale {scale}: {worst} B",
                            app.name()
                        ));
                    }
                }
            }
        }
        assert!(
            over.is_empty(),
            "refills over {REFILL_BYTES} B:\n{}",
            over.join("\n")
        );
    }

    #[test]
    fn refills_fit_the_budget() {
        check_refill_budget(&[0.02, 0.1]);
    }

    #[test]
    #[ignore = "paper-scale inputs; CI runs it in release"]
    fn refills_fit_the_budget_at_paper_scale() {
        check_refill_budget(&[1.0]);
    }
}
