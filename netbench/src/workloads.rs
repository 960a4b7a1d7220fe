//! The four workloads: set-up, one pass, and the checks on its outputs.
//!
//! Every call into the simulator goes through its public, long-lived
//! entry points (`Sweep::run_observed`/`run_stored`, `run_streams`,
//! `run_workload`, `Store`, `trace`), so engine-internal refactors do
//! not have to touch the benchmark.

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use memsys::AddressMap;
use netcache_apps::{trace, AppId, MacroOp, Workload};
use netcache_core::sweep::{NoopObserver, SweepObserver};
use netcache_core::{
    point_key, run_streams, run_workload, Arch, EngineScratch, RunReport, Store, StoreStats, Sweep,
    SweepPoint, SysConfig, TopoKind,
};

use crate::checks::{self, Failures};
use crate::spans::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig6Grid,
    Scale64,
    TraceReplay,
    StoreResume,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig6Grid,
        Kind::Scale64,
        Kind::TraceReplay,
        Kind::StoreResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig6Grid => "fig6-grid",
            Kind::Scale64 => "scale-64",
            Kind::TraceReplay => "trace-replay",
            Kind::StoreResume => "store-resume",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Passes run and discarded before measuring: one lets the page
    /// cache and allocator settle; a store pass is ~2 ms, so it takes 20.
    pub fn warmup(self) -> usize {
        match self {
            Kind::StoreResume => 20,
            _ => 1,
        }
    }
}

/// Sizes and seed every workload is built from.
pub struct Params {
    /// Node count of `fig6-grid`, `trace-replay` and `store-resume`.
    pub procs: usize,
    /// Node count of `scale-64`.
    pub procs_large: usize,
    /// Input scale of the simulated workloads.
    pub scale: f64,
    /// Input scale of the reports `store-resume` stores and serves.
    pub store_scale: f64,
    /// `SysConfig::seed` of every cell (and `Workload::seed` of the
    /// replayed traces).
    pub seed: u64,
    /// Worker threads of the closed-loop workloads.
    pub jobs: usize,
    /// Scratch directory for trace files and stores.
    pub tmp: PathBuf,
}

impl Params {
    /// The measured configuration.
    pub fn full(seed: u64, jobs: usize, tmp: PathBuf) -> Params {
        Params {
            procs: 16,
            procs_large: 64,
            scale: 0.1,
            store_scale: 0.02,
            seed,
            jobs,
            tmp,
        }
    }

    /// A seconds-long configuration for the smoke test.
    pub fn smoke(seed: u64, jobs: usize, tmp: PathBuf) -> Params {
        Params {
            procs: 4,
            procs_large: 4,
            scale: 0.02,
            store_scale: 0.02,
            seed,
            jobs,
            tmp,
        }
    }
}

/// One grid cell's identity.
pub struct Cell {
    pub label: String,
    pub arch: Arch,
    pub app: AppId,
    pub topo: TopoKind,
}

/// What one pass produced.
pub struct Pass {
    /// Host time of the pass's calls into the simulator.
    pub wall: Duration,
    /// One report per cell, in cell order.
    pub reports: Vec<RunReport>,
}

/// A set-up workload, ready to run passes.
pub trait Bench {
    fn cells(&self) -> &[Cell];
    /// Runs one pass; with a recorder, records its spans under `parent`.
    fn pass(&mut self, trace: Option<(&Recorder, u64)>) -> Pass;
    /// Checks the outputs of the pass just run.
    fn check(&mut self, pass: &Pass) -> Failures;
}

/// Builds a workload's inputs (the work `setup_s` times).
pub fn setup(kind: Kind, p: &Params) -> Box<dyn Bench> {
    match kind {
        Kind::Fig6Grid => {
            let points = Arch::ALL
                .into_iter()
                .flat_map(|arch| {
                    AppId::ALL
                        .map(|app| point(arch, app, p.procs, p.scale, TopoKind::Single, p.seed))
                })
                .collect();
            Box::new(SweepBench::new(points, p.jobs, p.seed))
        }
        Kind::Scale64 => {
            let points = AppId::ALL
                .into_iter()
                .flat_map(|app| {
                    [TopoKind::Single, TopoKind::StarOfRings].map(|topo| {
                        point(Arch::NetCache, app, p.procs_large, p.scale, topo, p.seed)
                    })
                })
                .collect();
            Box::new(SweepBench::new(points, 1, p.seed))
        }
        Kind::TraceReplay => Box::new(ReplayBench::new(p)),
        Kind::StoreResume => Box::new(StoreBench::new(p)),
    }
}

fn point(
    arch: Arch,
    app: AppId,
    nodes: usize,
    scale: f64,
    topo: TopoKind,
    seed: u64,
) -> SweepPoint {
    let mut cfg = SysConfig::base(arch).with_nodes(nodes).with_topology(topo);
    cfg.seed = seed;
    SweepPoint::new(cfg, app, scale)
}

fn cell_of(p: &SweepPoint) -> Cell {
    Cell {
        label: p.label.clone(),
        arch: p.cfg.arch,
        app: p.app,
        topo: p.cfg.topo.kind,
    }
}

/// The workload a sweep cell runs and the address map it runs under
/// (as `SweepPoint::run_with` builds them).
fn point_workload(p: &SweepPoint) -> (Workload, AddressMap) {
    (
        Workload::new(p.app, p.cfg.nodes).scale(p.scale),
        AddressMap::new(p.cfg.nodes, p.cfg.l2.block_bytes),
    )
}

/// Generates every stream of `wl` and drains it through the macro
/// cursor, the way the engine's bulk path reads it. Returns the scalar
/// ops the streams stand for (Σ `MacroOp::ops_len`) and the macro-ops.
fn drain(wl: &Workload, map: &AddressMap) -> (u64, u64) {
    let (mut ops, mut macros) = (0, 0);
    for mut s in wl.streams(map) {
        loop {
            let (len, iters, one) = match s.macro_run().first() {
                None => break,
                Some(m) => (m.ops_len(), m.total_iters(), matches!(m, MacroOp::One(_))),
            };
            if one {
                s.consume_ones(1);
            } else {
                s.consume_iters(iters);
            }
            ops += len;
            macros += 1;
        }
    }
    (ops, macros)
}

/// A grid run through the sweep engine: `fig6-grid` on the worker pool,
/// `scale-64` on one thread.
struct SweepBench {
    cells: Vec<Cell>,
    sweep: Sweep,
    jobs: usize,
    /// Σ ops of each cell's generated streams, drained once in set-up.
    expected_ops: Vec<u64>,
    /// Each cell's digest in the first pass.
    first: Vec<Option<u64>>,
    pins: bool,
}

impl SweepBench {
    fn new(points: Vec<SweepPoint>, jobs: usize, seed: u64) -> SweepBench {
        // Streams depend only on the app, node count and scale (one per
        // grid), so cells that differ in architecture or fabric share a
        // drain.
        let mut drained: Vec<((AppId, usize), u64)> = Vec::new();
        let expected_ops = points
            .iter()
            .map(|p| {
                let key = (p.app, p.cfg.nodes);
                if let Some(&(_, ops)) = drained.iter().find(|(k, _)| *k == key) {
                    return ops;
                }
                let (wl, map) = point_workload(p);
                let ops = drain(&wl, &map).0;
                drained.push((key, ops));
                ops
            })
            .collect();
        SweepBench {
            cells: points.iter().map(cell_of).collect(),
            first: vec![None; points.len()],
            sweep: Sweep::from_points(points),
            jobs,
            expected_ops,
            pins: seed == checks::DEFAULT_SEED,
        }
    }
}

impl Bench for SweepBench {
    fn cells(&self) -> &[Cell] {
        &self.cells
    }

    fn pass(&mut self, trace: Option<(&Recorder, u64)>) -> Pass {
        let t0 = Instant::now();
        let result = match trace {
            None => self.sweep.run_observed(self.jobs, &NoopObserver),
            Some((rec, parent)) => {
                let obs = CellSpans::new(rec, parent, self.sweep.points(), None);
                self.sweep.run_observed(self.jobs, &obs)
            }
        };
        Pass {
            wall: t0.elapsed(),
            reports: result.runs.into_iter().map(|r| r.report).collect(),
        }
    }

    fn check(&mut self, pass: &Pass) -> Failures {
        let mut failures = Failures::new();
        for (i, r) in pass.reports.iter().enumerate() {
            let label = &self.cells[i].label;
            let pin = self.pins.then(|| checks::pinned(label)).flatten();
            if let Err(e) = checks::check_cell(r, pin, self.first[i], self.expected_ops[i]) {
                failures.push((Some(i), format!("{label}: {e}")));
            }
            self.first[i].get_or_insert(r.digest());
        }
        failures
    }
}

/// Records a `sweep.cell` span per cell from the sweep's observer hooks,
/// with the cell's engine call (`machine.run`) or, when serving from
/// `store`, its record load (`store.load`) as a child span timed by the
/// wall time the sweep measured. Before an engine call, the cell's
/// streams are generated and drained on the worker as an `apps.gen`
/// span: a traced-only estimate of the generation share of `machine.run`.
struct CellSpans<'a> {
    rec: &'a Recorder,
    parent: u64,
    points: &'a [SweepPoint],
    store: Option<&'a Store>,
    /// Per cell: the cell span's reserved id and start.
    open: Vec<Mutex<(u64, u64)>>,
}

impl<'a> CellSpans<'a> {
    fn new(
        rec: &'a Recorder,
        parent: u64,
        points: &'a [SweepPoint],
        store: Option<&'a Store>,
    ) -> Self {
        CellSpans {
            rec,
            parent,
            points,
            store,
            open: points.iter().map(|_| Mutex::new((0, 0))).collect(),
        }
    }
}

impl SweepObserver for CellSpans<'_> {
    fn on_start(&self, idx: usize, _total: usize, _label: &str) {
        let (rec, id, start) = (self.rec, self.rec.reserve(), self.rec.now());
        if self.store.is_none() {
            rec.time("apps.gen", id, Some(idx), |_| {
                let (wl, map) = point_workload(&self.points[idx]);
                let (ops, macros) = drain(&wl, &map);
                ((), vec![("ops", ops), ("macros", macros)])
            });
        }
        *self.open[idx].lock().expect("a cell span writer panicked") = (id, start);
    }

    fn on_finish(&self, idx: usize, _total: usize, _label: &str, wall: Duration, r: &RunReport) {
        let rec = self.rec;
        let end = rec.now();
        let (id, start) = *self.open[idx].lock().expect("a cell span writer panicked");
        let inner_start = end.saturating_sub(wall.as_nanos() as u64);
        let (inner, counts) = match self.store {
            None => (
                "machine.run",
                vec![
                    ("events", r.events),
                    ("ops", r.ops),
                    ("elided", r.elided_ops),
                ],
            ),
            Some(store) => {
                let path = store.record_path(point_key(&self.points[idx]));
                let bytes = fs::metadata(path).map_or(0, |m| m.len());
                ("store.load", vec![("bytes", bytes)])
            }
        };
        rec.record(
            rec.reserve(),
            inner,
            Some(id),
            Some(idx),
            inner_start,
            end,
            counts,
        );
        let start = start.min(inner_start);
        rec.record(
            id,
            "sweep.cell",
            Some(self.parent),
            Some(idx),
            start,
            end,
            Vec::new(),
        );
    }
}

/// Scalar text traces, parsed and replayed every pass.
struct ReplayBench {
    cells: Vec<Cell>,
    cfgs: Vec<SysConfig>,
    /// Per cell: index into `traces`.
    trace_of: Vec<usize>,
    /// Per app: its per-processor trace files and their total op lines.
    traces: Vec<(Vec<PathBuf>, u64)>,
    /// Per cell: the direct `run_workload` report of the same workload.
    reference: Vec<RunReport>,
    scratch: EngineScratch,
}

const REPLAY_APPS: [AppId; 5] = [
    AppId::Cg,
    AppId::Em3d,
    AppId::Fft,
    AppId::Raytrace,
    AppId::Water,
];

impl ReplayBench {
    fn new(p: &Params) -> ReplayBench {
        let dir = p.tmp.join("traces");
        fs::create_dir_all(&dir).expect("create the trace directory");
        let map = AddressMap::new(p.procs, SysConfig::base(Arch::NetCache).l2.block_bytes);
        let workload = |app| Workload::new(app, p.procs).scale(p.scale).seed(p.seed);
        let traces = REPLAY_APPS
            .iter()
            .map(|&app| {
                let mut lines = 0;
                let files = workload(app)
                    .streams(&map)
                    .into_iter()
                    .enumerate()
                    .map(|(proc, stream)| {
                        let path = dir.join(format!("{}.{proc:02}.trace", app.name()));
                        let text = trace::dump(stream);
                        lines += text.lines().count() as u64;
                        fs::write(&path, text).expect("write a trace file");
                        path
                    })
                    .collect();
                (files, lines)
            })
            .collect();
        let mut scratch = EngineScratch::new();
        let (mut cells, mut cfgs, mut trace_of, mut reference) = (vec![], vec![], vec![], vec![]);
        for arch in [Arch::NetCache, Arch::DmonI] {
            for (t, &app) in REPLAY_APPS.iter().enumerate() {
                let mut cfg = SysConfig::base(arch).with_nodes(p.procs);
                cfg.seed = p.seed;
                cells.push(Cell {
                    label: format!(
                        "{}/{}/p{}/s{}/replay",
                        arch.name().to_lowercase(),
                        app.name(),
                        p.procs,
                        p.scale
                    ),
                    arch,
                    app,
                    topo: TopoKind::Single,
                });
                reference.push(run_workload(&cfg, &workload(app), &mut scratch));
                cfgs.push(cfg);
                trace_of.push(t);
            }
        }
        ReplayBench {
            cells,
            cfgs,
            trace_of,
            traces,
            reference,
            scratch,
        }
    }
}

impl Bench for ReplayBench {
    fn cells(&self) -> &[Cell] {
        &self.cells
    }

    fn pass(&mut self, trace: Option<(&Recorder, u64)>) -> Pass {
        let t0 = Instant::now();
        let mut reports = Vec::with_capacity(self.cells.len());
        for i in 0..self.cells.len() {
            let (files, lines) = &self.traces[self.trace_of[i]];
            let load = || {
                files
                    .iter()
                    .map(|path| {
                        let f = fs::File::open(path).expect("open a trace file");
                        trace::into_stream(trace::load(f).expect("parse a trace file"))
                    })
                    .collect::<Vec<_>>()
            };
            let (cfg, scratch) = (&self.cfgs[i], &mut self.scratch);
            let report = match trace {
                None => run_streams(cfg, load(), scratch),
                Some((rec, parent)) => rec.time("cell", parent, Some(i), |id| {
                    let streams = rec.time("apps.trace_load", id, Some(i), |_| {
                        (load(), vec![("lines", *lines)])
                    });
                    let r = rec.time("machine.run", id, Some(i), |_| {
                        let r = run_streams(cfg, streams, scratch);
                        let counts = vec![
                            ("events", r.events),
                            ("ops", r.ops),
                            ("elided", r.elided_ops),
                        ];
                        (r, counts)
                    });
                    (r, Vec::new())
                }),
            };
            reports.push(report);
        }
        Pass {
            wall: t0.elapsed(),
            reports,
        }
    }

    fn check(&mut self, pass: &Pass) -> Failures {
        let mut failures = Failures::new();
        for (i, r) in pass.reports.iter().enumerate() {
            let label = &self.cells[i].label;
            let lines = self.traces[self.trace_of[i]].1;
            let verdict = if *r != self.reference[i] {
                Err(format!(
                    "replay digest {:#018x} != direct run {:#018x}",
                    r.digest(),
                    self.reference[i].digest()
                ))
            } else if r.ops != lines {
                Err(format!("report.ops {} != trace lines {lines}", r.ops))
            } else {
                checks::check_orphans(r)
            };
            if let Err(e) = verdict {
                failures.push((Some(i), format!("{label}: {e}")));
            }
        }
        failures
    }
}

/// A sweep resumed from a warm result store: set-up simulates the grid
/// and writes every record; each pass opens the store and serves all of
/// them. Writes stay out of the passes because file creation on a
/// shared virtual disk varies several-fold from run to run, far beyond
/// any useful bound.
struct StoreBench {
    cells: Vec<Cell>,
    sweep: Sweep,
    /// The reports stored in set-up.
    reports: Vec<RunReport>,
    jobs: usize,
    dir: PathBuf,
    /// Store counters and served-from-cache flags of the last pass.
    last: (StoreStats, Vec<bool>),
}

impl StoreBench {
    fn new(p: &Params) -> StoreBench {
        let points: Vec<SweepPoint> = Arch::ALL
            .into_iter()
            .flat_map(|arch| {
                AppId::ALL
                    .map(|app| point(arch, app, p.procs, p.store_scale, TopoKind::Single, p.seed))
            })
            .collect();
        let sweep = Sweep::from_points(points);
        // Serial, so the set-up's memory peak does not depend on how
        // two workers' cells happen to overlap.
        let reports: Vec<RunReport> = sweep.run(1).runs.into_iter().map(|r| r.report).collect();
        let dir = p.tmp.join("store");
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open a fresh store");
        for (point, r) in sweep.points().iter().zip(&reports) {
            store.save_point(point, r);
        }
        assert_eq!(store.stats().write_errors, 0, "store write-back failed");
        StoreBench {
            cells: sweep.points().iter().map(cell_of).collect(),
            sweep,
            reports,
            jobs: p.jobs,
            dir,
            last: (StoreStats::default(), Vec::new()),
        }
    }
}

impl Bench for StoreBench {
    fn cells(&self) -> &[Cell] {
        &self.cells
    }

    fn pass(&mut self, trace: Option<(&Recorder, u64)>) -> Pass {
        let t0 = Instant::now();
        let (result, stats) = match trace {
            None => {
                let store = Store::open(&self.dir).expect("open the store");
                let result = self
                    .sweep
                    .run_stored(self.jobs, &NoopObserver, Some(&store));
                (result, store.stats())
            }
            Some((rec, parent)) => {
                let store = rec.time("store.open", parent, None, |_| {
                    (Store::open(&self.dir).expect("open the store"), Vec::new())
                });
                let result = rec.time("sweep.run_stored", parent, None, |id| {
                    let obs = CellSpans::new(rec, id, self.sweep.points(), Some(&store));
                    (
                        self.sweep.run_stored(self.jobs, &obs, Some(&store)),
                        Vec::new(),
                    )
                });
                (result, store.stats())
            }
        };
        let wall = t0.elapsed();
        self.last = (stats, result.runs.iter().map(|r| r.cached).collect());
        Pass {
            wall,
            reports: result.runs.into_iter().map(|r| r.report).collect(),
        }
    }

    fn check(&mut self, pass: &Pass) -> Failures {
        let mut failures = Failures::new();
        let (stats, cached) = &self.last;
        let cells = self.cells.len() as u64;
        if (
            stats.hits,
            stats.absent,
            stats.invalidated,
            stats.write_errors,
        ) != (cells, 0, 0, 0)
        {
            failures.push((None, format!("store served {stats:?}, want {cells} hits")));
        }
        for (i, r) in pass.reports.iter().enumerate() {
            if !cached[i] || *r != self.reports[i] {
                let label = &self.cells[i].label;
                failures.push((Some(i), format!("{label}: not served as stored")));
            }
        }
        failures
    }
}
