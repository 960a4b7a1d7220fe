//! `netcache` — command-line driver for the simulator.
//!
//! ```text
//! netcache run <app> [--arch A] [--scale S] [--procs P] [--ring-kb K]
//!                    [--topology T] [--rings C]
//! netcache sweep [apps...] [--archs A,B|all] [--jobs N] [--scale S]
//!                [--procs P] [--ring-kbs K,K,...] [--topology T] [--rings C]
//!                [--json F] [--csv F]
//!                [--quiet] [--store DIR|--no-store]    # grid sweep engine
//! netcache trace <app> <dir> [--scale S] [--procs P]   # dump op streams
//! netcache replay <dir> [--arch A] [--procs P]         # run dumped traces
//! netcache profile <app> [--scale S] [--procs P]       # stream statistics
//! netcache figures [FIG...] [--jobs N] [--quiet] [--store DIR|--no-store]
//!                  [--json F]                           # the paper's evaluation
//! ```
//!
//! Each subcommand takes exactly the flags shown for it; any other flag
//! exits 2 naming it, before anything runs.
//!
//! Architectures: `netcache` (default), `lambdanet`, `dmon-u`, `dmon-i`.
//!
//! Topologies: `single` (default, the paper's one shared ring),
//! `multi-ring` (C cache rings striped by block address; set C with
//! `--rings`), `star-of-rings` (clusters of up to 16 nodes, each with a
//! private cache ring, under a root star).
//!
//! `sweep` runs the full (architecture × application) grid by default —
//! the paper's Fig. 6 — fanning independent simulations across `--jobs`
//! worker threads (default: every host core; `--jobs 1` runs every cell
//! on the main thread). Its cells nest architecture → application →
//! ring size, the ring sizes crossing NetCache only; a grid that names a
//! cell twice exits 2 naming it. Reports always come back in grid order
//! and are bit-identical whatever `--jobs` is; see DESIGN.md on why
//! determinism survives parallel execution.
//!
//! `figures` regenerates the paper's tables and figures (all of them, or
//! the ones named, e.g. `fig6 fig15`), running every distinct cell once
//! as one sweep, then checks each verdict EXPERIMENTS.md records: it
//! exits 1 naming any ✅ claim that fails. Each figure fixes its own
//! machines and workloads, so no flag shapes either.
//!
//! `--store DIR` points `sweep`/`figures` at a content-addressed on-disk
//! result store: cells already present (same config, workload, and
//! engine version) are served from disk instead of re-simulated, and
//! freshly computed cells are written back — so an interrupted sweep
//! resumes where it left off.
//!
//! `replay` reads the layout `trace` writes: one `<app>.<p>.trace` file
//! per processor, `p` counted from 0, and runs processor `p` on node `p`.
//! Lock and barrier ids are renumbered densely before the run (they are
//! only names). A missing directory, a misnamed file or a malformed line
//! exits 2 naming the directory or file, and the line where there is one;
//! so does a set of traces that breaks the front-end contract
//! (`trace::check_contract`), naming the file and the op index.
//!
//! Every file this CLI writes (`trace`'s traces, `sweep`'s `--json`
//! and `--csv`, `figures`' `--json`) exits 2 naming the path if it cannot
//! be written.
//!
//! `--scale` must lie in (0, 1]. `run` and `sweep` validate every
//! machine they will simulate before the first run: one the engine
//! cannot simulate (more than 64 nodes, a ring above 16 MB, a node count
//! the ring's channels do not divide, a star that does not tile) exits 2
//! with the validator's message and the machine flags.

use std::collections::{HashMap, HashSet};
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::exit;

use netcache::apps::{trace, AppId, Op, Workload};
use netcache::figures::{self, Verdicts};
use netcache::mem::AddressMap;
use netcache::sweep::{NoopObserver, StderrProgress, SweepObserver, SweepResult};
use netcache::{run_app, run_streams, Arch, EngineScratch, Store, SysConfig, TopoKind};
use netcache::{Sweep, SweepPoint};

struct Args {
    positional: Vec<String>,
    arch: Arch,
    archs: Option<Vec<Arch>>,
    scale: f64,
    procs: usize,
    ring_kb: Option<u64>,
    ring_kbs: Option<Vec<u64>>,
    /// Fabric topology (default: the single ring).
    topology: Option<TopoKind>,
    /// Cache-ring count C for `--topology multi-ring`.
    rings: Option<usize>,
    jobs: Option<usize>,
    json: Option<String>,
    csv: Option<String>,
    quiet: bool,
    /// Directory of the on-disk result store (sweep and figures read
    /// through it).
    store: Option<String>,
    no_store: bool,
    /// Every flag given, in order.
    flags: Vec<String>,
}

/// Each subcommand and exactly the flags its branch of `main` reads. Any
/// other flag exits 2 before anything runs: a flag that is accepted and
/// ignored would misdescribe the machine or the output that resulted.
const FLAGS: [(&str, &str); 6] = [
    ("run", "--arch --scale --procs --ring-kb --topology --rings"),
    (
        "sweep",
        "--archs --scale --procs --ring-kbs --topology --rings --jobs --quiet \
         --store --no-store --json --csv",
    ),
    ("trace", "--scale --procs"),
    ("replay", "--arch --procs"),
    ("profile", "--scale --procs"),
    ("figures", "--jobs --quiet --store --no-store --json"),
];

fn usage() -> ! {
    eprintln!("usage: netcache <run|sweep|trace|replay|profile|figures> ...");
    for (cmd, flags) in FLAGS {
        eprintln!("  {cmd} takes {flags}");
    }
    eprintln!(
        "--arch netcache|lambdanet|dmon-u|dmon-i, --archs A,B|all, \
         --topology single|multi-ring|star-of-rings; --store DIR caches results on disk \
         (sweep/figures serve cached cells), --no-store forces recomputation"
    );
    exit(2)
}

/// Parses a numeric flag value, failing with the flag's name rather than
/// the generic usage dump — a typo in one flag shouldn't cost the caller
/// the context of *which* flag was wrong.
fn parse_num<T: std::str::FromStr>(name: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {v:?} for {name}: expected a number");
        exit(2)
    })
}

/// [`parse_num`] for counts that must be at least 1 (`--jobs 0` would
/// mean "no workers" — a configuration with no meaning, named as such
/// instead of misbehaving downstream).
fn parse_count(name: &str, v: &str) -> usize {
    let n: usize = parse_num(name, v);
    if n == 0 {
        eprintln!("invalid value 0 for {name}: must be at least 1");
        exit(2)
    }
    n
}

/// Parses `--scale`: an input scale lies in (0, 1], where 1 is the
/// paper's input size (NaN lies nowhere).
fn parse_scale(v: &str) -> f64 {
    let s: f64 = parse_num("--scale", v);
    if s > 0.0 && s <= 1.0 {
        return s;
    }
    fail(format!(
        "invalid value {v:?} for --scale: must be in (0, 1]"
    ))
}

fn parse_arch(name: &str) -> Arch {
    match name.to_lowercase().as_str() {
        "netcache" => Arch::NetCache,
        "lambdanet" => Arch::LambdaNet,
        "dmon-u" | "dmonu" => Arch::DmonU,
        "dmon-i" | "dmoni" => Arch::DmonI,
        other => {
            eprintln!("unknown architecture {other}");
            usage()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        positional: Vec::new(),
        arch: Arch::NetCache,
        archs: None,
        scale: 0.1,
        procs: 16,
        ring_kb: None,
        ring_kbs: None,
        topology: None,
        rings: None,
        jobs: None,
        json: None,
        csv: None,
        quiet: false,
        store: None,
        no_store: false,
        flags: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            args.flags.push(a.clone());
        }
        let mut grab = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--arch" => args.arch = parse_arch(&grab("--arch")),
            "--archs" => {
                let v = grab("--archs");
                args.archs = Some(if v == "all" {
                    Arch::ALL.to_vec()
                } else {
                    v.split(',').map(parse_arch).collect()
                });
            }
            "--scale" => args.scale = parse_scale(&grab("--scale")),
            "--procs" => args.procs = parse_count("--procs", &grab("--procs")),
            "--ring-kb" => {
                args.ring_kb = Some(parse_num("--ring-kb", &grab("--ring-kb")));
            }
            "--ring-kbs" => {
                args.ring_kbs = Some(
                    grab("--ring-kbs")
                        .split(',')
                        .map(|k| parse_num("--ring-kbs", k))
                        .collect(),
                );
            }
            "--topology" => args.topology = Some(parse_topology(&grab("--topology"))),
            "--rings" => args.rings = Some(parse_count("--rings", &grab("--rings"))),
            "--jobs" => args.jobs = Some(parse_count("--jobs", &grab("--jobs"))),
            "--json" => args.json = Some(grab("--json")),
            "--csv" => args.csv = Some(grab("--csv")),
            "--quiet" => args.quiet = true,
            "--store" => args.store = Some(grab("--store")),
            "--no-store" => args.no_store = true,
            _ if a.starts_with("--") => {
                eprintln!("unknown flag {a}");
                usage()
            }
            _ => args.positional.push(a),
        }
    }
    if args.store.is_some() && args.no_store {
        eprintln!("--store and --no-store conflict: pass at most one of them");
        exit(2)
    }
    // `--rings` is meaningful only for the striped multi-ring fabric; on
    // any other topology a silently ignored value would misrepresent the
    // machine that actually ran.
    if args.rings.is_some() && args.topology != Some(TopoKind::MultiRing) {
        eprintln!(
            "invalid use of --rings: it selects the cache-ring count for \
             --topology multi-ring, which was not requested"
        );
        exit(2)
    }
    args
}

/// Parses `--topology`, naming the flag and the accepted fabrics on
/// failure (same exit-2 convention as [`parse_num`]).
fn parse_topology(v: &str) -> TopoKind {
    TopoKind::parse(v).unwrap_or_else(|| {
        eprintln!(
            "invalid value {v:?} for --topology: expected one of {}",
            TopoKind::ALL.map(|k| k.name()).join(", ")
        );
        exit(2)
    })
}

/// Opens the `--store` directory, if one was requested. Failures (path
/// not creatable, not writable) name the flag and exit 2 — the caller
/// asked for persistence, so silently running storeless would lose every
/// result they expected to keep.
fn open_store(args: &Args) -> Option<Store> {
    let dir = args.store.as_ref()?;
    Some(Store::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open --store {dir}: {e}");
        exit(2)
    }))
}

fn app_by_name(name: &str) -> AppId {
    AppId::ALL
        .iter()
        .find(|a| a.name() == name)
        .copied()
        .unwrap_or_else(|| {
            eprintln!(
                "unknown app {name}; one of: {}",
                AppId::ALL.map(|a| a.name()).join(" ")
            );
            exit(2)
        })
}

/// The machine `run` and `sweep` simulate for `arch`: the base machine
/// at `--procs` nodes, with a `ring_kb` KB ring if given, on the
/// `--topology`/`--rings` fabric.
fn machine(args: &Args, arch: Arch, ring_kb: Option<u64>) -> SysConfig {
    let mut cfg = SysConfig::base(arch).with_nodes(args.procs);
    if let Some(kb) = ring_kb {
        cfg = cfg.with_ring_kb(kb);
    }
    if let Some(kind) = args.topology {
        cfg = cfg.with_topology(kind);
    }
    if let Some(r) = args.rings {
        cfg = cfg.with_rings(r);
    }
    cfg
}

/// Validates a machine a subcommand is about to simulate, before any run
/// starts: one the engine cannot simulate (a node count the ring does
/// not divide, a star that does not tile, more nodes or a larger ring
/// than the engine supports) exits 2 with the validator's message and
/// the flags that shaped the machine.
fn check_machine(args: &Args, cfg: &SysConfig) {
    let Err(e) = cfg.validate() else {
        return;
    };
    let mut flags = format!("--procs {}", args.procs);
    if let Some(kb) = args.ring_kb {
        flags += &format!(" --ring-kb {kb}");
    }
    if let Some(kbs) = &args.ring_kbs {
        let kbs: Vec<String> = kbs.iter().map(u64::to_string).collect();
        flags += &format!(" --ring-kbs {}", kbs.join(","));
    }
    if let Some(kind) = args.topology {
        flags += &format!(" --topology {}", kind.name());
    }
    if let Some(r) = args.rings {
        flags += &format!(" --rings {r}");
    }
    fail(format!("invalid machine ({flags}): {e}"))
}

/// Worker threads for a sweep: `--jobs`, defaulting to every host core.
fn jobs(args: &Args) -> usize {
    args.jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// The progress observer: one stderr line per cell unless `--quiet`.
fn observer(args: &Args) -> &'static dyn SweepObserver {
    if args.quiet {
        &NoopObserver
    } else {
        &StderrProgress
    }
}

/// Prints a sweep's run count and wall time, and the store's summary
/// line if a store was used. `invalidated` counts records that were
/// present but unusable (corrupt, stale engine salt, digest mismatch)
/// and therefore recomputed and overwritten.
fn print_totals(store: Option<&Store>, result: &SweepResult) {
    println!(
        "\n{} runs on {} worker(s): {:.2} s wall",
        result.runs.len(),
        result.jobs,
        result.wall.as_secs_f64()
    );
    if let Some(st) = store {
        println!(
            "store {}: cached {} / computed {} / invalidated {}",
            st.dir().display(),
            result.cached_cells(),
            result.computed_cells(),
            st.stats().invalidated
        );
    }
}

/// Prints `what` and exits 2: the CLI's answer to bad input.
fn fail(what: String) -> ! {
    eprintln!("{what}");
    exit(2)
}

/// Writes `contents` to `path`, exiting 2 naming `flag` and the path if
/// it cannot.
fn write_file(flag: &str, path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(format!("cannot write {flag} {path}: {e}"))
    }
    println!("wrote {path}");
}

/// Reads a `trace` directory: one `<app>.<p>.trace` file per processor,
/// `p` counted from 0 without gaps, in processor order (a string sort
/// would put `water.10` before `water.2` and run it on the wrong node).
/// Returns each processor's file and trace. Every failure exits 2 naming
/// the directory or file, and the line.
fn load_traces(dir: &str) -> (Vec<PathBuf>, Vec<Vec<Op>>) {
    let entries: std::io::Result<Vec<_>> = std::fs::read_dir(dir).and_then(|d| d.collect());
    let entries =
        entries.unwrap_or_else(|e| fail(format!("cannot read trace directory {dir}: {e}")));
    let mut files: Vec<(usize, PathBuf)> = Vec::new();
    for path in entries.into_iter().map(|e| e.path()) {
        if path.extension().is_none_or(|e| e != "trace") {
            continue;
        }
        let index = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.rsplit_once('.'))
            .and_then(|(_, p)| p.parse().ok());
        match index {
            Some(p) => files.push((p, path)),
            None => fail(format!(
                "{}: a trace file is named <app>.<p>.trace, p its processor index",
                path.display()
            )),
        }
    }
    if files.is_empty() {
        fail(format!("no .trace files in {dir}"));
    }
    files.sort();
    files
        .into_iter()
        .enumerate()
        .map(|(i, (p, path))| {
            if p != i {
                fail(format!(
                    "{}: expected the trace of processor {i} (one file per processor, from 0)",
                    path.display()
                ));
            }
            let f = std::fs::File::open(&path)
                .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
            let ops = trace::load(f).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
            (path, ops)
        })
        .unzip()
}

/// Renames lock ids and barrier ids to dense ids, each kind separately
/// in order of first appearance across the traces. Ids are only names,
/// so the run does not change, but the engine keeps per-id state in
/// tables indexed by id: a trace naming barrier 4000000000 must not
/// allocate an entry for every id below it.
fn renumber_sync_ids(traces: &mut [Vec<Op>]) {
    fn dense(ids: &mut HashMap<u32, u32>, id: &mut u32) {
        let next = ids.len() as u32;
        *id = *ids.entry(*id).or_insert(next);
    }
    let (mut locks, mut barriers) = (HashMap::new(), HashMap::new());
    for op in traces.iter_mut().flatten() {
        match op {
            Op::Acquire(id) | Op::Release(id) => dense(&mut locks, id),
            Op::Barrier(id) => dense(&mut barriers, id),
            Op::Compute(_) | Op::Read(_) | Op::Write(_) => {}
        }
    }
}

fn main() {
    // Rust ignores SIGPIPE, so a print to a closed stdout (`netcache ... |
    // head`) would panic; the default action ends the process quietly,
    // as it does any other filter's.
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: the declaration matches libc's `signal(int,
        // sighandler_t)`: `sighandler_t` is pointer-sized and SIG_DFL is
        // 0. The default action installs no handler, so no Rust code
        // ever runs in signal context.
        unsafe { signal(SIGPIPE, SIG_DFL) };
    }
    let args = parse_args();
    let Some(cmd) = args.positional.first().cloned() else {
        usage()
    };
    let Some((_, takes)) = FLAGS.iter().find(|(c, _)| *c == cmd) else {
        usage()
    };
    if let Some(f) = args
        .flags
        .iter()
        .find(|f| !takes.split_whitespace().any(|t| t == *f))
    {
        fail(format!("{cmd} takes no {f}; it takes {takes}"))
    }
    match cmd.as_str() {
        "run" => {
            let app = app_by_name(
                args.positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage()),
            );
            let cfg = machine(&args, args.arch, args.ring_kb);
            check_machine(&args, &cfg);
            let wl = Workload::new(app, args.procs).scale(args.scale);
            let r = run_app(&cfg, &wl);
            println!("{}", r.summary());
            println!(
                "read stall {:.1}%  wb stall {:.1}%  sync {:.1}%  avg shared-read {:.0} pcycles",
                100.0 * r.read_latency_fraction(),
                100.0 * r.nodes.iter().map(|n| n.wb_stall).sum::<u64>() as f64
                    / (r.cycles as f64 * r.nodes.len() as f64),
                100.0 * r.sync_fraction(),
                r.avg_shared_read_latency()
            );
        }
        "sweep" => {
            // Grid axes: positional apps (default: all twelve), --archs
            // (default: all four), --ring-kbs (default: each arch's base).
            let apps: Vec<AppId> = if args.positional.len() > 1 {
                args.positional[1..]
                    .iter()
                    .map(|n| app_by_name(n))
                    .collect()
            } else {
                AppId::ALL.to_vec()
            };
            let archs = args.archs.clone().unwrap_or_else(|| Arch::ALL.to_vec());
            let ring_kbs: Vec<Option<u64>> = match &args.ring_kbs {
                Some(kbs) => kbs.iter().copied().map(Some).collect(),
                None => vec![None],
            };
            // The cells, nested arch → app → ring size. The ring-size axis
            // varies NetCache only: the other architectures have no ring.
            // Each machine is checked before its label is made (the label
            // reads the ring's byte size, which an unchecked `--ring-kbs`
            // value overflows), and all of them before anything runs.
            let mut points = Vec::new();
            for &arch in &archs {
                let rings = if arch == Arch::NetCache {
                    &ring_kbs[..]
                } else {
                    &[None]
                };
                for &app in &apps {
                    for &ring in rings {
                        let cfg = machine(&args, arch, ring);
                        check_machine(&args, &cfg);
                        points.push(SweepPoint::new(cfg, app, args.scale));
                    }
                }
            }
            let mut labels = HashSet::new();
            if let Some(p) = points.iter().find(|p| !labels.insert(&p.label)) {
                fail(format!(
                    "sweep names the cell {} twice: give each app, --archs entry \
                     and --ring-kbs size once",
                    p.label
                ))
            }
            let store = open_store(&args);
            let result =
                Sweep::from_points(points).run_stored(jobs(&args), observer(&args), store.as_ref());
            println!(
                "{:<32} {:>14} {:>10} {:>10}",
                "cell", "cycles", "sc-hit %", "wall ms"
            );
            for r in &result.runs {
                println!(
                    "{:<32} {:>14} {:>9.1}% {:>10.1}",
                    r.label,
                    r.report.cycles,
                    100.0 * r.report.shared_cache_hit_rate(),
                    r.wall.as_secs_f64() * 1e3
                );
            }
            print_totals(store.as_ref(), &result);
            if let Some(path) = &args.json {
                write_file("--json", path, result.to_json());
            }
            if let Some(path) = &args.csv {
                write_file("--csv", path, result.to_csv());
            }
        }
        "trace" => {
            let app = app_by_name(
                args.positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage()),
            );
            let dir = args.positional.get(2).cloned().unwrap_or_else(|| usage());
            if let Err(e) = std::fs::create_dir_all(&dir) {
                fail(format!("cannot create trace directory {dir}: {e}"))
            }
            let map = AddressMap::new(args.procs, 64);
            let wl = Workload::new(app, args.procs).scale(args.scale);
            for (p, stream) in wl.streams(&map).into_iter().enumerate() {
                let path = format!("{dir}/{}.{p}.trace", app.name());
                let written = std::fs::File::create(&path)
                    .and_then(|f| trace::write(BufWriter::new(f), stream));
                if let Err(e) = written {
                    fail(format!("cannot write trace {path}: {e}"))
                }
                println!("wrote {path}");
            }
        }
        "replay" => {
            let dir = args.positional.get(1).cloned().unwrap_or_else(|| usage());
            let (paths, mut traces) = load_traces(&dir);
            renumber_sync_ids(&mut traces);
            if let Err(e) = trace::check_contract(&traces) {
                fail(format!(
                    "{}: op {}: {}",
                    paths[e.proc].display(),
                    e.op,
                    e.reason
                ))
            }
            let procs = traces.len();
            let cfg = SysConfig::base(args.arch).with_nodes(procs.max(args.procs));
            if let Err(e) = cfg.validate() {
                eprintln!("cannot replay {procs} traces from {dir}: {e}");
                exit(2)
            }
            let streams = traces.into_iter().map(trace::into_stream).collect();
            let r = run_streams(&cfg, streams, &mut EngineScratch::new());
            println!("replayed {procs} traces: {}", r.summary());
        }
        "profile" => {
            let app = app_by_name(
                args.positional
                    .get(1)
                    .map(String::as_str)
                    .unwrap_or_else(|| usage()),
            );
            let map = AddressMap::new(args.procs, 64);
            let wl = Workload::new(app, args.procs).scale(args.scale);
            println!(
                "{:<6} {:>10} {:>10} {:>12} {:>8} {:>8} {:>12}",
                "proc", "reads", "writes", "compute", "locks", "barriers", "blocks"
            );
            for (p, stream) in wl.streams(&map).into_iter().enumerate() {
                let prof = trace::profile(stream);
                println!(
                    "{p:<6} {:>10} {:>10} {:>12} {:>8} {:>8} {:>12}",
                    prof.reads,
                    prof.writes,
                    prof.compute,
                    prof.acquires,
                    prof.barriers,
                    prof.footprint_blocks
                );
            }
        }
        "figures" => {
            let figs = figures::select(&args.positional[1..]).unwrap_or_else(|e| fail(e));
            let store = open_store(&args);
            let (tables, result) =
                figures::run(&figs, jobs(&args), observer(&args), store.as_ref());
            let mut verdicts = Verdicts::default();
            for (fig, tables) in figs.iter().zip(&tables) {
                for t in tables {
                    println!("{}", t.render());
                }
                verdicts.judge(fig, tables);
            }
            println!();
            for line in &verdicts.lines {
                println!("{line}");
            }
            print_totals(store.as_ref(), &result);
            if let Some(path) = &args.json {
                write_file("--json", path, figures::to_json(&figs, &tables));
            }
            for name in &verdicts.failed {
                eprintln!("✅ claim failed: {name}");
            }
            exit(verdicts.status())
        }
        _ => usage(),
    }
}
