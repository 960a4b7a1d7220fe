//! The metric catalogue and how each metric is computed.
//!
//! End-to-end metrics come from untraced passes only. Per-layer timings
//! come from traced passes, one sample per pass, reduced to a median;
//! the `sim.*`-class metrics are simulated results, exact and identical
//! on every host, and must not move when only the simulator's speed does.

use std::collections::BTreeMap;

use netcache_core::{Arch, NodeStats, RingStats, RunReport, TopoKind};

use crate::spans::{self_times, Span};
use crate::stats::{percentile, Summary};
use crate::workloads::Cell;

/// End-to-end metrics, as named in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("grid_wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, as named in `BENCHMARK.json`. Every traced run
/// prints all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("apps.gen_ms", "ms"),
    ("apps.gen_ns_per_op", "ns/op"),
    ("apps.ops_per_macro", "ops/macro"),
    ("apps.trace_load_ms", "ms"),
    ("apps.trace_ns_per_line", "ns/line"),
    ("machine.run_ms", "ms"),
    ("machine.self_ms", "ms"),
    ("machine.ns_per_event", "ns/event"),
    ("machine.events", "count"),
    ("machine.elided_frac", "frac"),
    ("machine.events_per_kop", "events/kop"),
    ("proto.netcache.ns_per_event", "ns/event"),
    ("proto.lambdanet.ns_per_event", "ns/event"),
    ("proto.dmon-u.ns_per_event", "ns/event"),
    ("proto.dmon-i.ns_per_event", "ns/event"),
    ("topology.single.ns_per_event", "ns/event"),
    ("topology.star-of-rings.ns_per_event", "ns/event"),
    ("sweep.busy_s", "s"),
    ("sweep.idle_frac", "frac"),
    ("sweep.max_cell_ms", "ms"),
    ("store.load_us_p50", "us"),
    ("store.load_us_p99", "us"),
    ("store.record_bytes", "bytes"),
    ("store.serve_overhead_us", "us"),
    ("trace_overhead_frac", "frac"),
    ("trace.attributed_frac", "frac"),
    ("sim.cycles", "cycles"),
    ("memsys.l1_hit_rate", "frac"),
    ("memsys.l2_hit_rate", "frac"),
    ("memsys.mem_wait_mean", "cycles"),
    ("ring.hit_rate", "frac"),
    ("ring.window_delays", "count"),
    ("optics.hot_channel_busy_frac", "frac"),
    ("optics.channel_wait_mean", "cycles"),
    ("topology.hot_link_frames", "count"),
    ("proto.updates", "count"),
    ("proto.invalidations", "count"),
    ("machine.read_stall_frac", "frac"),
    ("machine.wb_stall_frac", "frac"),
    ("machine.sync_stall_frac", "frac"),
    ("machine.unaccounted_cycles", "cycles"),
    ("sim.fig6_norm.lambdanet", "ratio"),
    ("sim.fig6_norm.dmon-u", "ratio"),
    ("sim.fig6_norm.dmon-i", "ratio"),
    ("sim.fig6_err.lambdanet", "frac"),
    ("sim.fig6_err.dmon-u", "frac"),
    ("sim.fig6_err.dmon-i", "frac"),
];

/// The paper's Fig. 6 mean run times of the baselines, normalized to
/// NetCache, with the names of the metrics that compare against them.
pub const PAPER_FIG6: [(Arch, f64, &str, &str); 3] = [
    (
        Arch::LambdaNet,
        1.26,
        "sim.fig6_norm.lambdanet",
        "sim.fig6_err.lambdanet",
    ),
    (
        Arch::DmonU,
        1.32,
        "sim.fig6_norm.dmon-u",
        "sim.fig6_err.dmon-u",
    ),
    (
        Arch::DmonI,
        1.50,
        "sim.fig6_norm.dmon-i",
        "sim.fig6_err.dmon-i",
    ),
];

/// One computed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    /// Quartiles and sample count, for metrics reduced from samples.
    pub spread: Option<Summary>,
    /// Simulated, hence identical on every run with the same inputs.
    pub exact: bool,
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

/// The unit of a metric: the catalogue's, or milliseconds for the
/// uncatalogued `self_ms.*` table.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("ms", |&(_, u)| u)
}

pub fn put(m: &mut Metrics, name: &str, value: f64) {
    let metric = Metric {
        value,
        spread: None,
        exact: false,
    };
    m.insert(name.to_string(), metric);
}

pub fn put_summary(m: &mut Metrics, name: &str, samples: &[f64]) {
    let s = Summary::of(samples);
    let metric = Metric {
        value: s.median,
        spread: Some(s),
        exact: false,
    };
    m.insert(name.to_string(), metric);
}

fn put_exact(m: &mut Metrics, name: &str, value: f64) {
    let metric = Metric {
        value,
        spread: None,
        exact: true,
    };
    m.insert(name.to_string(), metric);
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer host time of one traced pass, from its spans.
#[derive(Debug, Default)]
pub struct LayerPass {
    /// Nanoseconds of the pass.
    wall: f64,
    gen_ns: f64,
    gen_ops: f64,
    gen_macros: f64,
    trace_ns: f64,
    trace_lines: f64,
    run_ns: f64,
    run_events: f64,
    run_ops: f64,
    run_elided: f64,
    /// `(ns, events)` of engine calls, by `Arch::ALL` index.
    by_arch: [(f64, f64); 4],
    /// `(ns, events)` of engine calls on the single and star-of-rings
    /// fabrics.
    by_topo: [(f64, f64); 2],
    cell_busy: f64,
    cell_max: f64,
    cell_threads: f64,
    sweep_wall: f64,
    loads: Vec<f64>,
    load_bytes: f64,
    attributed: f64,
    threads: f64,
    self_by_name: BTreeMap<&'static str, f64>,
}

impl LayerPass {
    /// Folds the spans of one pass (whose root span is `pass`).
    pub fn of(spans: &[Span], pass: u64, cells: &[Cell]) -> LayerPass {
        let selfs = self_times(spans);
        let mut lp = LayerPass::default();
        let (mut tids, mut cell_tids) = (Vec::new(), Vec::new());
        let mut stored_wall = None;
        for s in spans {
            let dur = s.dur() as f64;
            let cell = s.cell.map(|i| &cells[i]);
            *lp.self_by_name.entry(s.name).or_default() += selfs[&s.id] as f64;
            if s.id == pass {
                lp.wall = dur;
                continue;
            }
            lp.attributed += selfs[&s.id] as f64;
            tids.push(s.tid);
            match s.name {
                "apps.gen" => {
                    lp.gen_ns += dur;
                    lp.gen_ops += s.count("ops") as f64;
                    lp.gen_macros += s.count("macros") as f64;
                }
                "apps.trace_load" => {
                    lp.trace_ns += dur;
                    lp.trace_lines += s.count("lines") as f64;
                }
                "machine.run" => {
                    let events = s.count("events") as f64;
                    lp.run_ns += dur;
                    lp.run_events += events;
                    lp.run_ops += s.count("ops") as f64;
                    lp.run_elided += s.count("elided") as f64;
                    let cell = cell.expect("machine.run spans name their cell");
                    let a = Arch::ALL.iter().position(|&a| a == cell.arch).unwrap();
                    let t = usize::from(cell.topo == TopoKind::StarOfRings);
                    for tally in [&mut lp.by_arch[a], &mut lp.by_topo[t]] {
                        tally.0 += dur;
                        tally.1 += events;
                    }
                }
                "sweep.cell" => {
                    lp.cell_busy += dur;
                    lp.cell_max = lp.cell_max.max(dur);
                    cell_tids.push(s.tid);
                }
                "sweep.run_stored" => stored_wall = Some(dur),
                "store.load" => {
                    lp.loads.push(dur);
                    lp.load_bytes += s.count("bytes") as f64;
                }
                _ => {}
            }
        }
        let distinct = |mut v: Vec<u64>| {
            v.sort_unstable();
            v.dedup();
            v.len() as f64
        };
        lp.threads = distinct(tids).max(1.0);
        lp.cell_threads = distinct(cell_tids);
        lp.sweep_wall = stored_wall.unwrap_or(lp.wall);
        lp
    }
}

/// Per-layer timing metrics over the traced passes, plus the tracing
/// overhead against the untraced passes (walls in seconds) of the same
/// run.
pub fn layer_metrics(m: &mut Metrics, passes: &[LayerPass], untraced_walls: &[f64]) {
    let per = |f: &dyn Fn(&LayerPass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    put_summary(m, "apps.gen_ms", &per(&|p| p.gen_ns / 1e6));
    put_summary(
        m,
        "apps.gen_ns_per_op",
        &per(&|p| ratio(p.gen_ns, p.gen_ops)),
    );
    put_summary(
        m,
        "apps.ops_per_macro",
        &per(&|p| ratio(p.gen_ops, p.gen_macros)),
    );
    put_summary(m, "apps.trace_load_ms", &per(&|p| p.trace_ns / 1e6));
    put_summary(
        m,
        "apps.trace_ns_per_line",
        &per(&|p| ratio(p.trace_ns, p.trace_lines)),
    );
    put_summary(m, "machine.run_ms", &per(&|p| p.run_ns / 1e6));
    put_summary(m, "machine.self_ms", &per(&|p| (p.run_ns - p.gen_ns) / 1e6));
    put_summary(
        m,
        "machine.ns_per_event",
        &per(&|p| ratio(p.run_ns - p.gen_ns, p.run_events)),
    );
    put_summary(m, "machine.events", &per(&|p| p.run_events));
    put_summary(
        m,
        "machine.elided_frac",
        &per(&|p| ratio(p.run_elided, p.run_ops)),
    );
    put_summary(
        m,
        "machine.events_per_kop",
        &per(&|p| ratio(1e3 * p.run_events, p.run_ops)),
    );
    for (a, name) in [
        "proto.netcache.ns_per_event",
        "proto.lambdanet.ns_per_event",
        "proto.dmon-u.ns_per_event",
        "proto.dmon-i.ns_per_event",
    ]
    .into_iter()
    .enumerate()
    {
        put_summary(m, name, &per(&|p| ratio(p.by_arch[a].0, p.by_arch[a].1)));
    }
    for (t, name) in [
        "topology.single.ns_per_event",
        "topology.star-of-rings.ns_per_event",
    ]
    .into_iter()
    .enumerate()
    {
        put_summary(m, name, &per(&|p| ratio(p.by_topo[t].0, p.by_topo[t].1)));
    }
    put_summary(m, "sweep.busy_s", &per(&|p| p.cell_busy / 1e9));
    put_summary(
        m,
        "sweep.idle_frac",
        &per(&|p| {
            if p.cell_threads == 0.0 {
                0.0
            } else {
                1.0 - ratio(p.cell_busy, p.cell_threads * p.sweep_wall)
            }
        }),
    );
    put_summary(m, "sweep.max_cell_ms", &per(&|p| p.cell_max / 1e6));
    let loads: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.loads.iter().map(|ns| ns / 1e3))
        .collect();
    put(m, "store.load_us_p50", percentile(&loads, 50.0));
    put(m, "store.load_us_p99", percentile(&loads, 99.0));
    put_summary(
        m,
        "store.record_bytes",
        &per(&|p| ratio(p.load_bytes, p.loads.len() as f64)),
    );
    put_summary(
        m,
        "store.serve_overhead_us",
        &per(&|p| {
            if p.loads.is_empty() {
                0.0
            } else {
                let loads: f64 = p.loads.iter().sum();
                (p.sweep_wall - loads) / p.loads.len() as f64 / 1e3
            }
        }),
    );
    let traced = Summary::of(&per(&|p| p.wall / 1e9)).median;
    let untraced = Summary::of(untraced_walls).median;
    put(m, "trace_overhead_frac", ratio(traced, untraced) - 1.0);
    put_summary(
        m,
        "trace.attributed_frac",
        &per(&|p| ratio(p.attributed, p.threads * p.wall)),
    );
    // Where a pass's host time went, by span name (not catalogued).
    let names: std::collections::BTreeSet<&str> = passes
        .iter()
        .flat_map(|p| p.self_by_name.keys().copied())
        .collect();
    for name in names {
        let samples = per(&|p| p.self_by_name.get(name).copied().unwrap_or(0.0) / 1e6);
        put_summary(m, &format!("self_ms.{name}"), &samples);
    }
}

/// Simulated results of one pass's reports. `fig6` adds the accuracy
/// line against the paper's Fig. 6.
pub fn sim_metrics(m: &mut Metrics, cells: &[Cell], reports: &[RunReport], fig6: bool) {
    let sum = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(f).sum::<f64>();
    let nodes = |f: &dyn Fn(&NodeStats) -> u64| sum(&|r| r.nodes.iter().map(|n| f(n) as f64).sum());
    let reads = nodes(&|n| n.reads);
    let l1 = nodes(&|n| n.l1_hits);
    let proc_time = sum(&|r| (r.cycles * r.nodes.len() as u64) as f64);
    put_exact(m, "sim.cycles", sum(&|r| r.cycles as f64));
    put_exact(m, "memsys.l1_hit_rate", ratio(l1, reads));
    put_exact(
        m,
        "memsys.l2_hit_rate",
        ratio(nodes(&|n| n.l2_hits), reads - l1),
    );
    let mem_reads = sum(&|r| r.memories.iter().map(|&(n, _, _)| n as f64).sum());
    let mem_wait = sum(&|r| r.memories.iter().map(|&(n, _, w)| n as f64 * w).sum());
    put_exact(m, "memsys.mem_wait_mean", ratio(mem_wait, mem_reads));
    let ring = |f: &dyn Fn(&RingStats) -> u64| sum(&|r| r.ring.map_or(0.0, |g| f(&g) as f64));
    put_exact(
        m,
        "ring.hit_rate",
        ratio(
            ring(&|g| g.hits),
            ring(&|g| g.hits + g.misses + g.coalesced),
        ),
    );
    put_exact(m, "ring.window_delays", ring(&|g| g.window_delays));
    let hot_busy = sum(&|r| {
        let busy = r.channels.iter().map(|c| c.2).max().unwrap_or(0);
        ratio(busy as f64, r.cycles as f64)
    });
    put_exact(
        m,
        "optics.hot_channel_busy_frac",
        ratio(hot_busy, reports.len() as f64),
    );
    let served = sum(&|r| r.channels.iter().map(|c| c.1 as f64).sum());
    let waited = sum(&|r| r.channels.iter().map(|c| c.1 as f64 * c.3).sum());
    put_exact(m, "optics.channel_wait_mean", ratio(waited, served));
    put_exact(
        m,
        "topology.hot_link_frames",
        sum(&|r| r.links.iter().map(|l| l.1).max().unwrap_or(0) as f64),
    );
    put_exact(m, "proto.updates", sum(&|r| r.proto.updates as f64));
    put_exact(
        m,
        "proto.invalidations",
        sum(&|r| r.proto.invalidations as f64),
    );
    for (name, f) in [
        (
            "machine.read_stall_frac",
            (|n| n.read_stall) as fn(&NodeStats) -> u64,
        ),
        ("machine.wb_stall_frac", |n| n.wb_stall),
        ("machine.sync_stall_frac", |n| n.sync_stall),
    ] {
        put_exact(m, name, ratio(nodes(&f), proc_time));
    }
    // Cycles of a processor's run that no stall class claims.
    let unaccounted: i64 = reports
        .iter()
        .flat_map(|r| &r.nodes)
        .map(|n| n.finish as i64 - (n.busy + n.read_stall + n.wb_stall + n.sync_stall) as i64)
        .sum();
    put_exact(m, "machine.unaccounted_cycles", unaccounted as f64);
    for (arch, paper, norm_name, err_name) in PAPER_FIG6 {
        let norm = if fig6 {
            fig6_norm(cells, reports, arch)
        } else {
            0.0
        };
        let err = if fig6 {
            (norm - paper).abs() / paper
        } else {
            0.0
        };
        put_exact(m, norm_name, norm);
        put_exact(m, err_name, err);
    }
}

/// Mean over apps of `arch`'s cycles divided by NetCache's.
fn fig6_norm(cells: &[Cell], reports: &[RunReport], arch: Arch) -> f64 {
    let cycles = |a: Arch, app| {
        cells
            .iter()
            .zip(reports)
            .find(|(c, _)| c.arch == a && c.app == app)
            .map(|(_, r)| r.cycles as f64)
    };
    let ratios: Vec<f64> = cells
        .iter()
        .filter(|c| c.arch == arch)
        .filter_map(|c| Some(cycles(arch, c.app)? / cycles(Arch::NetCache, c.app)?))
        .collect();
    ratio(ratios.iter().sum(), ratios.len() as f64)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
