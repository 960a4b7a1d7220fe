//! The parallel experiment sweep engine.
//!
//! The paper's evaluation is a grid: (architecture × application ×
//! machine parameters), 4 × 12 cells for Fig. 6 alone, plus the §5.3
//! ablation sweeps. Every cell is one independent, deterministic engine
//! run ([`run_workload`]) — no shared state, no ordering constraint — so the
//! grid parallelizes embarrassingly well across host cores (the same
//! observation Kumar & Sahu make for bufferless-NOC simulation on GPUs).
//!
//! This module is the one substrate all experiment drivers go through:
//!
//! * [`SweepPoint`] — one cell: a machine, an application and an input
//!   scale, with its label;
//! * [`Sweep`] — a point list, built by the caller in the order it wants
//!   its reports; [`Sweep::run`] fans the points out over a scoped worker
//!   pool, and `run(1)` runs them inline on the caller's thread, the
//!   pool-free reference the property tests compare against;
//! * [`SweepResult`] — reports in **grid order** (never completion
//!   order) with per-run wall times, plus JSON/CSV emission;
//! * [`par_map_with`] — the underlying generic ordered parallel map.
//!
//! ## Why determinism survives parallel execution
//!
//! Each simulation owns its entire mutable world (event queue, caches,
//! protocol state, RNG seeded from `SysConfig::seed`); threads share
//! nothing but the work queue and the output slots. A sweep's reports
//! are therefore bit-identical however the points are scheduled — which
//! comparing `run(j)` against `run(1)` lets tests assert directly.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use netcache_apps::{AppId, Workload};

use crate::config::{Arch, ChannelAssoc, SysConfig, TopoKind};
use crate::json;
use crate::machine::{run_workload, EngineScratch};
use crate::metrics::RunReport;
use crate::store::Store;

/// One fully resolved cell of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable cell label, e.g. `netcache/sor/p16/s0.05`.
    pub label: String,
    /// The machine to build.
    pub cfg: SysConfig,
    /// The application to run on it.
    pub app: AppId,
    /// Input scale for the workload.
    pub scale: f64,
}

impl SweepPoint {
    /// Builds a point with the conventional label: arch, app, nodes and
    /// scale, then one suffix per machine parameter the paper's figures
    /// move off the arch's base machine. The base machine's label has no
    /// suffix (the seed never gets one), so existing labels (netbench's
    /// pins, the store guard's grep patterns) are untouched.
    pub fn new(cfg: SysConfig, app: AppId, scale: f64) -> Self {
        let mut label = format!(
            "{}/{}/p{}/s{}",
            cfg.arch.name().to_lowercase(),
            app.name(),
            cfg.nodes,
            scale
        );
        let base = SysConfig::base(cfg.arch);
        let ring = cfg.ring;
        if cfg.arch == Arch::NetCache && !ring.enabled() {
            label.push_str("/no-ring");
        } else if cfg.arch == Arch::NetCache {
            if ring.capacity_bytes() != base.ring.capacity_bytes() {
                label.push_str(&format!("/ring{}k", ring.capacity_bytes() / 1024));
            }
            if ring.replacement != base.ring.replacement {
                label.push_str(&format!("/{}", ring.replacement.name().to_lowercase()));
            }
            if ring.assoc == ChannelAssoc::Direct {
                label.push_str("/direct");
            }
            if ring.block_bytes != base.ring.block_bytes {
                label.push_str(&format!("/line{}", ring.block_bytes));
            }
            if !ring.dual_path_reads {
                label.push_str("/serial-reads");
            }
            if !ring.race_window {
                label.push_str("/no-window");
            }
        }
        if cfg.l2.size_bytes != base.l2.size_bytes {
            label.push_str(&format!("/l2-{}k", cfg.l2.size_bytes / 1024));
        }
        if cfg.mem.read_latency != base.mem.read_latency {
            label.push_str(&format!("/mem{}", cfg.mem.read_latency));
        }
        if cfg.optics.rate_gbps != base.optics.rate_gbps {
            label.push_str(&format!("/{}gbps", cfg.optics.rate_gbps));
        }
        match cfg.topo.kind {
            TopoKind::Single => {}
            TopoKind::MultiRing => label.push_str(&format!("/mr{}", cfg.topo.rings)),
            TopoKind::StarOfRings => label.push_str("/sor"),
        }
        Self {
            label,
            cfg,
            app,
            scale,
        }
    }

    /// Runs this one cell (workload sized to the configured node count)
    /// on the statically-dispatched engine.
    pub fn run(&self) -> RunReport {
        self.run_with(&mut EngineScratch::new())
    }

    /// [`SweepPoint::run`] reusing engine allocations across cells: the
    /// event queue from the previous run on this worker is recycled
    /// instead of reallocated. Reports are bit-identical to [`run`].
    ///
    /// [`run`]: SweepPoint::run
    pub fn run_with(&self, scratch: &mut EngineScratch) -> RunReport {
        run_workload(&self.cfg, &self.workload(), scratch)
    }

    /// The workload this cell runs: its app at its scale, sized to the
    /// machine's node count. The store keys the cell by this same
    /// workload ([`crate::store::point_key`]), so key and run agree.
    pub fn workload(&self) -> Workload {
        Workload::new(self.app, self.cfg.nodes).scale(self.scale)
    }
}

/// A resolved sweep: the ordered point list, ready to run.
#[derive(Clone)]
pub struct Sweep {
    points: Vec<SweepPoint>,
}

impl Sweep {
    /// Wraps a point list; reports come back in this order.
    pub fn from_points(points: Vec<SweepPoint>) -> Self {
        Self { points }
    }

    /// The points, in grid order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Runs every point across `jobs` worker threads and collects the
    /// reports in grid order. `jobs` is clamped to `1..=len`.
    pub fn run(&self, jobs: usize) -> SweepResult {
        self.run_observed(jobs, &NoopObserver)
    }

    /// [`Sweep::run`] with a progress observer (the CLI's live counter).
    pub fn run_observed(&self, jobs: usize, obs: &(impl SweepObserver + ?Sized)) -> SweepResult {
        self.run_stored(jobs, obs, None)
    }

    /// [`Sweep::run_observed`] reading through an on-disk result store.
    ///
    /// With a store, every cell is consulted **before** dispatch: hits
    /// are served inline (no simulation, no worker slot) and only the
    /// missing/invalidated cells fan out to the pool; each computed
    /// cell writes back atomically on completion, so a killed sweep
    /// resumes losing at most its in-flight cells. Served reports are
    /// digest-verified ([`crate::store`]), so warm results are
    /// bit-identical to cold ones. Hit/miss/invalidated counts
    /// accumulate on the store handle ([`Store::stats`]).
    pub fn run_stored(
        &self,
        jobs: usize,
        obs: &(impl SweepObserver + ?Sized),
        store: Option<&Store>,
    ) -> SweepResult {
        let total = self.points.len();
        let t0 = Instant::now();
        let run_cell = |scratch: &mut EngineScratch, i: usize, p: SweepPoint| {
            obs.on_start(i, total, &p.label);
            let rt0 = Instant::now();
            let report = p.run_with(scratch);
            let wall = rt0.elapsed();
            obs.on_finish(i, total, &p.label, wall, &report);
            if let Some(st) = store {
                st.save_point(&p, &report);
            }
            SweepRun {
                label: p.label,
                arch: report.arch,
                app: p.app,
                nodes: p.cfg.nodes,
                scale: p.scale,
                wall,
                report,
                cached: false,
            }
        };
        // Consultation pre-pass: resolve hits inline, queue the rest.
        let mut slots: Vec<Option<SweepRun>> = Vec::with_capacity(total);
        let mut pending: Vec<(usize, SweepPoint)> = Vec::new();
        for (i, p) in self.points.iter().enumerate() {
            let hit = store.and_then(|st| {
                let rt0 = Instant::now();
                st.load_point(p).ok().map(|report| {
                    obs.on_start(i, total, &p.label);
                    let wall = rt0.elapsed();
                    obs.on_finish(i, total, &p.label, wall, &report);
                    SweepRun {
                        label: p.label.clone(),
                        arch: report.arch,
                        app: p.app,
                        nodes: p.cfg.nodes,
                        scale: p.scale,
                        wall,
                        report,
                        cached: true,
                    }
                })
            });
            if hit.is_none() {
                pending.push((i, p.clone()));
            }
            slots.push(hit);
        }
        for (i, run) in par_map_with(
            pending,
            jobs,
            EngineScratch::new,
            |scratch, _, (i, p): (usize, SweepPoint)| (i, run_cell(scratch, i, p)),
        ) {
            slots[i] = Some(run);
        }
        SweepResult {
            runs: slots
                .into_iter()
                .map(|s| s.expect("every grid slot resolved"))
                .collect(),
            wall: t0.elapsed(),
            jobs: jobs.clamp(1, total.max(1)),
        }
    }
}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The point's label.
    pub label: String,
    /// Architecture name.
    pub arch: &'static str,
    /// Application.
    pub app: AppId,
    /// Node count.
    pub nodes: usize,
    /// Input scale.
    pub scale: f64,
    /// The simulation's report.
    pub report: RunReport,
    /// Host wall-clock time this cell took (for a cached cell: the
    /// store lookup time).
    pub wall: Duration,
    /// True if the report was served from the result store instead of
    /// simulated. Not emitted in CSV/JSON — warm output must stay
    /// byte-identical to cold output in every digest-relevant column.
    pub cached: bool,
}

/// All cells of a completed sweep, in grid order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-cell outcomes, ordered as [`Sweep::points`].
    pub runs: Vec<SweepRun>,
    /// Total host wall-clock time for the sweep.
    pub wall: Duration,
    /// Worker count actually used.
    pub jobs: usize,
}

impl SweepResult {
    /// How many cells were served from the result store.
    pub fn cached_cells(&self) -> usize {
        self.runs.iter().filter(|r| r.cached).count()
    }

    /// How many cells were actually simulated.
    pub fn computed_cells(&self) -> usize {
        self.runs.len() - self.cached_cells()
    }

    /// CSV emission: one header line plus one row per cell.
    pub fn to_csv(&self) -> String {
        // Engine-health diagnostics (ops_per_sec, elided_ops,
        // orphans_dropped) ride as trailing columns so consumers slicing
        // the original prefix (`cut -f1-14` etc.) keep working.
        // CSV is column-stable, so the per-link breakdown (whose length
        // varies per topology) is summarized: total injected frames plus
        // the hottest link's name/frames/busy. The full per-link vector
        // is in the JSON emission.
        let mut out = String::from(
            "label,arch,app,nodes,scale,cycles,events,reads,l1_hit_rate,l2_hit_rate,\
             shared_hit_rate,read_stall_frac,sync_frac,avg_shared_read_latency,wall_ms,\
             events_per_sec,ops_per_sec,elided_ops,orphans_dropped,\
             link_frames,hot_link,hot_link_frames,hot_link_busy\n",
        );
        for r in &self.runs {
            let rep = &r.report;
            let link_frames: u64 = rep.links.iter().map(|(_, f, _)| f).sum();
            let hot = rep.links.iter().max_by_key(|(_, f, _)| *f);
            let (hot_name, hot_frames, hot_busy) = match hot {
                Some((n, f, b)) => (n.as_str(), *f, *b),
                None => ("", 0, 0),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.3},{:.3},{:.0},{:.0},{},{},{},{},{},{}\n",
                r.label,
                r.arch,
                r.app.name(),
                r.nodes,
                r.scale,
                rep.cycles,
                rep.events,
                rep.total_reads(),
                rep.l1_hit_rate(),
                rep.l2_hit_rate(),
                rep.shared_cache_hit_rate(),
                rep.read_latency_fraction(),
                rep.sync_fraction(),
                rep.avg_shared_read_latency(),
                r.wall.as_secs_f64() * 1e3,
                rep.events_per_sec(),
                rep.ops_per_sec(),
                rep.elided_ops,
                rep.ring.map(|g| g.orphans_dropped).unwrap_or(0),
                link_frames,
                hot_name,
                hot_frames,
                hot_busy,
            ));
        }
        out
    }

    /// JSON emission (hand-rolled — the workspace is dependency-free):
    /// the `BENCH_*.json` trajectory shape, one object per cell. String
    /// fields are escaped, so any label survives a round trip through a
    /// conforming parser.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let rep = &r.report;
            let comma = if i + 1 < self.runs.len() { "," } else { "" };
            // Per-link contention: the full vector (CSV only carries the
            // aggregate), as `[name, frames, busy]` triples in the
            // topology's deterministic link order.
            let links = rep
                .links
                .iter()
                .map(|(n, f, b)| format!("[\"{}\", {f}, {b}]", json::escape(n)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"arch\": \"{}\", \"app\": \"{}\", \
                 \"nodes\": {}, \"scale\": {}, \"cycles\": {}, \"events\": {}, \
                 \"reads\": {}, \"l1_hit_rate\": {:.6}, \"l2_hit_rate\": {:.6}, \
                 \"shared_hit_rate\": {:.6}, \"read_stall_frac\": {:.6}, \
                 \"sync_frac\": {:.6}, \"avg_shared_read_latency\": {:.3}, \
                 \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \
                 \"ops_per_sec\": {:.0}, \"elided_ops\": {}, \
                 \"orphans_dropped\": {}, \"links\": [{links}]}}{comma}\n",
                json::escape(&r.label),
                json::escape(r.arch),
                json::escape(r.app.name()),
                r.nodes,
                r.scale,
                rep.cycles,
                rep.events,
                rep.total_reads(),
                rep.l1_hit_rate(),
                rep.l2_hit_rate(),
                rep.shared_cache_hit_rate(),
                rep.read_latency_fraction(),
                rep.sync_fraction(),
                rep.avg_shared_read_latency(),
                r.wall.as_secs_f64() * 1e3,
                rep.events_per_sec(),
                rep.ops_per_sec(),
                rep.elided_ops,
                rep.ring.map(|g| g.orphans_dropped).unwrap_or(0),
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"jobs\": {},\n  \"wall_ms\": {:.3}\n}}\n",
            self.jobs,
            self.wall.as_secs_f64() * 1e3
        ));
        out
    }
}

/// Observer hooks on the worker pool. Implementations must be `Sync`:
/// callbacks fire on worker threads.
pub trait SweepObserver: Sync {
    /// A worker picked up cell `idx` of `total`.
    fn on_start(&self, _idx: usize, _total: usize, _label: &str) {}
    /// Cell `idx` finished in `wall`.
    fn on_finish(
        &self,
        _idx: usize,
        _total: usize,
        _label: &str,
        _wall: Duration,
        _report: &RunReport,
    ) {
    }
}

/// The default observer: no output.
pub struct NoopObserver;
impl SweepObserver for NoopObserver {}

/// Counts started/finished cells; cheap enough to poll from a UI thread.
#[derive(Default)]
pub struct ProgressCounters {
    started: AtomicUsize,
    finished: AtomicUsize,
}

impl ProgressCounters {
    /// Cells picked up so far.
    pub fn started(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    /// Cells completed so far.
    pub fn finished(&self) -> usize {
        self.finished.load(Ordering::Relaxed)
    }
}

impl SweepObserver for ProgressCounters {
    fn on_start(&self, _idx: usize, _total: usize, _label: &str) {
        self.started.fetch_add(1, Ordering::Relaxed);
    }
    fn on_finish(&self, _i: usize, _t: usize, _l: &str, _w: Duration, _r: &RunReport) {
        self.finished.fetch_add(1, Ordering::Relaxed);
    }
}

/// Prints one line per completed cell to stderr (the CLI's progress,
/// unless `--quiet` is given).
pub struct StderrProgress;
impl SweepObserver for StderrProgress {
    fn on_finish(&self, idx: usize, total: usize, label: &str, wall: Duration, report: &RunReport) {
        eprintln!(
            "[{:>3}/{total}] {label}: {} cycles in {:.1} ms",
            idx + 1,
            report.cycles,
            wall.as_secs_f64() * 1e3
        );
    }
}

/// Locks `m`, recovering the payload from a poisoned mutex. Poisoning
/// here only ever means "some worker panicked while this sweep was in
/// flight"; the data under the lock is a plain slot (an `Option` being
/// taken or filled), which no panic can leave half-written. Recovering
/// instead of unwrapping is what keeps a panicking cell's *original*
/// message alive — a secondary `PoisonError` panic while the first
/// panic unwinds would abort the process (double panic) or, at best,
/// replace the root cause with `"poisoned lock"` noise.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ordered parallel map over owned items with per-worker state: applies
/// `f(state, index, item)` on a pool of `jobs` scoped threads and returns
/// outputs in **input order**, regardless of completion order. Every
/// worker thread builds one `S` via `init()` when it starts and threads
/// it through each `f` call it executes. The sweep engine uses this to
/// reuse engine allocations ([`EngineScratch`]) across the cells a worker
/// runs — state never crosses threads, so determinism is untouched.
///
/// With `jobs <= 1` (or a single item) everything runs inline on the
/// caller's thread with a single state, and no pool at all.
///
/// This is the workspace's only threading primitive; `crossbeam::scope`'s
/// role is covered by [`std::thread::scope`] (stable since Rust 1.63).
///
/// # Panics
/// Propagates the **first** worker panic — with its original payload,
/// so the panic message points at the failing cell — after the scope
/// joins. Each worker catches its own panic and parks the payload in a
/// shared slot; remaining workers drain and stop at the next item
/// boundary. All slot handoff locks recover from poisoning
/// (`lock_recovering`), so a second panicking cell can never turn
/// into a secondary `PoisonError` panic (which would either mask the
/// original message or abort the process outright).
pub fn par_map_with<I, O, S, G, F>(items: Vec<I>, jobs: usize, init: G, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize, I) -> O + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs == 1 {
        let mut state = init();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(&mut state, i, x))
            .collect();
    }
    // Input slots are taken exactly once (guarded by the atomic cursor);
    // output slots are written exactly once, then drained in order.
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let outputs: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // First panic payload wins the slot; the flag makes the others stop
    // picking up new items instead of racing to finish a doomed sweep.
    let panicked = AtomicBool::new(false);
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                let mut state = init();
                while !panicked.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = lock_recovering(&inputs[i])
                        .take()
                        .expect("input taken once");
                    // AssertUnwindSafe: on panic both `state` and `item`
                    // are discarded (this worker stops and the sweep
                    // aborts), so no torn value is ever observed.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        f(&mut state, i, item)
                    })) {
                        Ok(out) => *lock_recovering(&outputs[i]) = Some(out),
                        Err(payload) => {
                            panicked.store(true, Ordering::Relaxed);
                            let mut slot = lock_recovering(&panic_slot);
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            break;
                        }
                    }
                }
            });
        }
    });
    if let Some(payload) = lock_recovering(&panic_slot).take() {
        std::panic::resume_unwind(payload);
    }
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells of `archs` x `apps` x `nodes` on base machines at one
    /// scale, nested arch -> app -> nodes.
    fn grid(archs: &[Arch], apps: &[AppId], nodes: &[usize], scale: f64) -> Sweep {
        let mut points = Vec::new();
        for &arch in archs {
            for &app in apps {
                for &n in nodes {
                    let cfg = SysConfig::base(arch).with_nodes(n);
                    points.push(SweepPoint::new(cfg, app, scale));
                }
            }
        }
        Sweep::from_points(points)
    }

    #[test]
    fn par_map_returns_input_order() {
        // Make later items finish first: earlier items spin longest.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map_with(
            items,
            8,
            || (),
            |(), i, x| {
                let mut acc = 0u64;
                for k in 0..(32 - i as u64) * 10_000 {
                    acc = acc.wrapping_add(k);
                }
                (x * 2, acc)
            },
        );
        for (i, (v, _)) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn par_map_with_propagates_worker_panic() {
        // A panic in any worker must surface to the caller when the
        // scope joins — never a silent missing slot: a failing cell must
        // abort the whole sweep.
        let result = std::panic::catch_unwind(|| {
            par_map_with(
                (0..16u64).collect::<Vec<_>>(),
                4,
                || 0u64,
                |state, _, x| {
                    *state += x;
                    assert!(x != 11, "poison item");
                    x
                },
            )
        });
        assert!(result.is_err(), "worker panic was swallowed");
    }

    #[test]
    fn par_map_with_preserves_order_under_adversarial_completion() {
        // Force strict *reverse* completion order: item i may only finish
        // once all items after it have finished. With one worker per item
        // every thread parks in `f`, so the output vector is assembled
        // from completions that arrive exactly backwards — the returned
        // order must still be input order.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 6usize;
        let done = AtomicUsize::new(0);
        let out = par_map_with(
            (0..n).collect::<Vec<_>>(),
            n,
            || (),
            |(), i, x| {
                while done.load(Ordering::SeqCst) != n - 1 - i {
                    std::thread::yield_now();
                }
                done.fetch_add(1, Ordering::SeqCst);
                x * 10
            },
        );
        assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_with_builds_one_state_per_worker() {
        // `init` runs once per worker thread (not per item), and state
        // never crosses workers — the discipline EngineScratch relies on.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let jobs = 3usize;
        let out = par_map_with(
            (0..64u64).collect::<Vec<_>>(),
            jobs,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0u64
            },
            |seen, _, x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert!(inits.load(Ordering::SeqCst) <= jobs);
        // Every item processed exactly once, in order, and the per-worker
        // counters sum to the item count (each item bumped one state).
        assert_eq!(out.len(), 64);
        for (i, (x, seen)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
            assert!(*seen >= 1);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(empty, 4, || (), |(), _, x: u32| x).is_empty());
        assert_eq!(
            par_map_with(vec![7u32], 4, || (), |(), _, x| x + 1),
            vec![8]
        );
    }

    #[test]
    fn every_axis_crossed_yields_unique_labels() {
        // Every axis a label names, crossed with every other: each cell
        // must carry its own label, or CSV/JSON rows cannot be told
        // apart.
        let mut points = Vec::new();
        for arch in Arch::ALL {
            // NetCache crosses the ring axis; the baselines have no ring.
            let rings: &[Option<u64>] = match arch {
                Arch::NetCache => &[Some(0), Some(16), Some(32), Some(64)],
                _ => &[None],
            };
            for app in [AppId::Sor, AppId::Fft] {
                for nodes in [4, 8] {
                    for scale in [0.01, 0.02] {
                        for &ring in rings {
                            for (kind, c) in [
                                (TopoKind::Single, 1),
                                (TopoKind::MultiRing, 2),
                                (TopoKind::StarOfRings, 1),
                            ] {
                                let mut cfg = SysConfig::base(arch).with_nodes(nodes);
                                if let Some(kb) = ring {
                                    cfg = cfg.with_ring_kb(kb);
                                }
                                let cfg = cfg.with_topology(kind).with_rings(c);
                                cfg.validate().expect("a valid machine");
                                points.push(SweepPoint::new(cfg, app, scale));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(points.len(), (4 + 3) * 2 * 2 * 2 * 3);
        let labels: std::collections::HashSet<&str> =
            points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels.len(), points.len(), "duplicate labels");
    }

    #[test]
    fn parallel_equals_serial_small_grid() {
        let sweep = grid(&[Arch::NetCache, Arch::DmonI], &[AppId::Fft], &[2], 0.01);
        let par = sweep.run(4);
        let ser = sweep.run(1);
        assert_eq!(par.runs.len(), ser.runs.len());
        for (a, b) in par.runs.iter().zip(ser.runs.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn progress_counters_count_everything() {
        let sweep = grid(&[Arch::NetCache], &[AppId::Fft], &[1, 2], 0.01);
        let prog = ProgressCounters::default();
        let res = sweep.run_observed(2, &prog);
        assert_eq!(prog.started(), 2);
        assert_eq!(prog.finished(), 2);
        assert_eq!(res.runs.len(), 2);
    }

    #[test]
    fn emission_shapes() {
        let res = grid(&[Arch::NetCache], &[AppId::Fft], &[2], 0.01).run(1);
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("label,arch,app,"));
        // Engine diagnostics ride as TRAILING columns so consumers
        // slicing the stable prefix (cut -f1-14) stay valid.
        assert!(csv.lines().next().unwrap().ends_with(
            "wall_ms,events_per_sec,ops_per_sec,elided_ops,orphans_dropped,\
             link_frames,hot_link,hot_link_frames,hot_link_busy"
        ));
        let json = res.to_json();
        assert!(json.contains("\"app\": \"fft\""));
        assert!(json.contains("\"jobs\": 1"));
        assert!(json.contains("\"events_per_sec\": "));
        assert!(json.contains("\"ops_per_sec\": "));
        assert!(json.contains("\"elided_ops\": "));
        assert!(json.contains("\"orphans_dropped\": 0"));
        // Per-link contention rides in JSON as [name, frames, busy]
        // triples; the default fabric names its links leg*/ring*.
        assert!(json.contains("\"links\": [[\"leg0\", "));
        assert!(json.contains("[\"ring0\", "));
    }

    #[test]
    fn topology_axis_is_innermost_and_suffixes_labels() {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
        let points: Vec<SweepPoint> = [
            cfg,
            cfg.with_topology(TopoKind::MultiRing).with_rings(2),
            cfg.with_topology(TopoKind::StarOfRings),
        ]
        .into_iter()
        .map(|c| SweepPoint::new(c, AppId::Sor, 0.01))
        .collect();
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "netcache/sor/p4/s0.01",
                "netcache/sor/p4/s0.01/mr2",
                "netcache/sor/p4/s0.01/sor",
            ]
        );
    }

    #[test]
    fn an_unvalidated_ring_too_large_for_u64_bytes_labels_its_size() {
        // 2^56 channels of 4 x 64 B frames: 2^64 bytes, one past `u64`.
        let cfg = SysConfig::base(Arch::NetCache).with_ring_kb(1 << 54);
        let point = SweepPoint::new(cfg, AppId::Fft, 0.1);
        assert_eq!(point.label, "netcache/fft/p16/s0.1/ring18014398509481984k");
    }

    #[test]
    fn each_moved_parameter_gets_a_suffix_and_the_seed_none() {
        let nc = SysConfig::base(Arch::NetCache);
        let label = |cfg| SweepPoint::new(cfg, AppId::Sor, 0.1).label;
        let (mut seeded, mut line, mut serial, mut window) = (nc, nc, nc, nc);
        seeded.seed = 7;
        line.ring.block_bytes = 128;
        line.ring.frames_per_channel = 2;
        serial.ring.dual_path_reads = false;
        window.ring.race_window = false;
        for (cfg, suffix) in [
            (seeded, ""),
            (nc.with_l2_kb(32), "/l2-32k"),
            (nc.with_mem_latency(108), "/mem108"),
            (nc.with_rate_gbps(5.0), "/5gbps"),
            (nc.with_replacement(crate::Replacement::Lfu), "/lfu"),
            (nc.with_assoc(ChannelAssoc::Direct), "/direct"),
            (line, "/line128"),
            (serial, "/serial-reads"),
            (window, "/no-window"),
        ] {
            assert_eq!(label(cfg), format!("netcache/sor/p16/s0.1{suffix}"));
        }
    }

    #[test]
    fn par_map_with_builds_one_state_per_worker_and_keeps_order() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let out = par_map_with(
            (0..64u64).collect(),
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64 // per-worker running count
            },
            |seen, i, x| {
                *seen += 1;
                (i as u64, x * 3, *seen)
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 4);
        let mut total_seen = 0;
        for (i, (idx, v, seen)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*v, i as u64 * 3);
            if *seen == 1 {
                total_seen += 1; // each worker starts its count at 1
            }
        }
        assert!(total_seen <= 4);
    }

    #[test]
    fn json_emission_round_trips_through_a_strict_parser() {
        let mut res = grid(&[Arch::NetCache], &[AppId::Fft], &[2], 0.01).run(1);
        // Adversarial label: quote, backslash, newline, and a raw control
        // character. Pre-escaping, any of these makes the document
        // unparseable (or silently truncates the string).
        let nasty = "we\"ird\\lab\nel\tx\u{1}/end";
        res.runs[0].label = nasty.to_string();
        let doc = res.to_json();
        let parsed = json::parse(&doc).expect("emitted JSON must parse");
        let runs = parsed.get("runs").expect("runs key");
        let json::Value::Arr(cells) = runs else {
            panic!("runs must be an array")
        };
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("label").and_then(|v| v.as_str()),
            Some(nasty),
            "label must survive the round trip byte-for-byte"
        );
        assert_eq!(cells[0].get("app").and_then(|v| v.as_str()), Some("fft"));
        assert!(matches!(
            cells[0].get("events").and_then(|v| v.as_u64()),
            Some(n) if n > 0
        ));
    }

    // -----------------------------------------------------------------
    // Adversarial panic handoff: a panicking cell must surface its
    // ORIGINAL panic payload — never a secondary lock panic, never a
    // process abort from a panic-while-panicking.

    /// Extracts the human message from a panic payload (both `panic!`
    /// forms: `&str` literal and formatted `String`).
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string payload>".into())
    }

    #[test]
    fn par_map_with_surfaces_the_original_panic_message() {
        let result = std::panic::catch_unwind(|| {
            par_map_with(
                (0..16u64).collect::<Vec<_>>(),
                4,
                || (),
                |(), _, x| {
                    if x == 11 {
                        panic!("cell 11 diverged: distinctive payload {x}");
                    }
                    x
                },
            )
        });
        let msg = panic_message(&*result.expect_err("panic was swallowed"));
        assert!(
            msg.contains("cell 11 diverged: distinctive payload 11"),
            "original panic message lost; got: {msg}"
        );
    }

    #[test]
    fn par_map_with_survives_double_panics_with_a_real_payload() {
        // Every worker's first item panics (near-)simultaneously, with
        // barrier-forced overlap: each panicking cell waits until every
        // worker holds a panicking item. Pre-hardening, concurrent
        // panics racing the poisoned slot mutexes could raise a
        // secondary PoisonError panic (masking the message) or abort
        // the process. The surfaced payload must be one of the
        // original cell messages.
        use std::sync::Barrier;
        let workers = 4;
        let barrier = Barrier::new(workers);
        let result = std::panic::catch_unwind(|| {
            par_map_with(
                (0..workers).collect::<Vec<_>>(),
                workers,
                || (),
                |(), i, _x| {
                    barrier.wait();
                    panic!("cell {i} exploded");
                },
            )
        });
        let msg = panic_message(&*result.expect_err("panic was swallowed"));
        assert!(
            msg.contains("exploded"),
            "payload must be an original cell message, got: {msg}"
        );
        assert!(
            !msg.contains("poison"),
            "secondary lock panic masked the original: {msg}"
        );
    }

    #[test]
    fn par_map_with_poisoned_output_slots_do_not_mask_the_panic() {
        // One cell panics *while other cells are still completing*: the
        // late completions write their outputs through (possibly
        // poisoned) mutexes after the flag is up. The drain must not
        // trip over poisoning before resume_unwind fires.
        use std::sync::atomic::AtomicBool;
        let tripped = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            par_map_with(
                (0..64u64).collect::<Vec<_>>(),
                8,
                || (),
                |(), _, x| {
                    if x == 0 && !tripped.swap(true, Ordering::SeqCst) {
                        panic!("first cell died");
                    }
                    std::thread::yield_now();
                    x
                },
            )
        });
        let msg = panic_message(&*result.expect_err("panic was swallowed"));
        assert!(msg.contains("first cell died"), "got: {msg}");
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let sweep = grid(
            &[Arch::NetCache, Arch::DmonU],
            &[AppId::Sor, AppId::Fft],
            &[4],
            0.02,
        );
        let mut scratch = EngineScratch::new();
        for p in sweep.points() {
            // Fresh machine vs. scratch-recycled machine: same report
            // (PartialEq ignores only the host wall-time field).
            assert_eq!(p.run(), p.run_with(&mut scratch), "{}", p.label);
        }
    }
}
