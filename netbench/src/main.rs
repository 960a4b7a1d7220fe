//! `netbench`: the simulator's benchmark.
//!
//! Four workloads (see README.md for why each was chosen), each set up
//! several times and then run pass after pass for `--seconds`. Every
//! output of every pass is checked. An untraced run (`--trace 0`)
//! reports the end-to-end metrics; a traced run (`--trace 1`) alternates
//! untraced and traced passes and reports the per-layer metrics, timed
//! by spans around the benchmark's own calls into the simulator.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod checks;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use checks::Ledger;
use metrics::{LayerPass, Metrics, END_TO_END, PER_LAYER};
use spans::{Recorder, Span};
use workloads::{Bench, Kind, Params, Pass};

const USAGE: &str = "usage: netbench [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--spans FILE] [--json FILE] [--smoke] [--print-digests]
workloads: fig6-grid, scale-64, trace-replay, store-resume (default: all)";

/// Fewest set-ups per run, and the least time they fill: `setup_s` is
/// their median, and a set-up of a few tens of milliseconds needs many
/// samples to be steady on a shared host.
const SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// Fewest measured passes of each kind (untraced, traced) per run.
const MIN_PASSES: usize = 3;

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    json: Option<PathBuf>,
    smoke: bool,
    print_digests: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        seed: checks::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        spans: None,
        json: None,
        smoke: false,
        print_digests: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = match v.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    name => vec![Kind::parse(name).ok_or(format!("unknown workload {name:?}"))?],
                };
            }
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = parsed.map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {v:?}: want a positive number"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: want 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(value()?.into()),
            "--json" => args.json = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--print-digests" => args.print_digests = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.spans.is_some() && !args.trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(args)
}

/// A per-process scratch directory under the working directory, removed
/// on drop.
struct TempDir(PathBuf);

impl TempDir {
    const ROOT: &'static str = ".netbench-tmp";

    fn create() -> std::io::Result<TempDir> {
        let dir = PathBuf::from(Self::ROOT).join(std::process::id().to_string());
        fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        let _ = fs::remove_dir(Self::ROOT); // only if no other run uses it
    }
}

/// What one workload's run produced.
struct Outcome {
    kind: Kind,
    ledger: Ledger,
    metrics: Metrics,
    passes: usize,
    traced: usize,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("netbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = match TempDir::create() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("netbench: cannot create {}: {e}", TempDir::ROOT);
            return ExitCode::FAILURE;
        }
    };
    let params = if args.smoke {
        Params::smoke(args.seed, jobs, tmp.0.clone())
    } else {
        Params::full(args.seed, jobs, tmp.0.clone())
    };
    if args.print_digests {
        print_digests(&params);
        return ExitCode::SUCCESS;
    }
    let rec = args.trace.then(Recorder::new);
    let mut kept = args.spans.as_ref().map(|_| Vec::new());
    let several = args.workloads.len() > 1;
    let outcomes: Vec<Outcome> = args
        .workloads
        .iter()
        .map(|&kind| {
            if several {
                // Restart the VmHWM peak for this workload (Linux only).
                let _ = fs::write("/proc/self/clear_refs", "5");
            }
            run(kind, &args, &params, rec.as_ref(), kept.as_mut())
        })
        .collect();
    for o in &outcomes {
        print_outcome(o, &args, jobs);
    }
    if let (Some(path), Some(spans)) = (&args.spans, &kept) {
        if let Err(e) = fs::write(path, spans::chrome_json(spans)) {
            eprintln!("netbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} spans to {}", spans.len(), path.display());
    }
    if let Some(path) = &args.json {
        if let Err(e) = fs::write(path, detail_json(&outcomes, &args, jobs)) {
            eprintln!("netbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    println!("{}", result_line(&outcomes, args.trace));
    ExitCode::SUCCESS
}

/// Sets up `kind`, runs its warm-up and measured passes, and computes
/// its metrics.
fn run(
    kind: Kind,
    args: &Args,
    params: &Params,
    rec: Option<&Recorder>,
    mut kept: Option<&mut Vec<Span>>,
) -> Outcome {
    let (min_setups, min_setup_s) = if args.smoke {
        (1, 0.0)
    } else {
        (SETUPS, SETUP_SECONDS)
    };
    let mut setups: Vec<f64> = Vec::new();
    let mut bench = None;
    while setups.len() < min_setups || setups.iter().sum::<f64>() < min_setup_s {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(workloads::setup(kind, params));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let mut ledger = Ledger::default();
    let mut last = None;
    for _ in 0..kind.warmup() {
        let pass = guarded_pass(&mut *bench, None);
        last = book(&mut *bench, pass, &mut ledger).or(last);
    }
    let (mut walls, mut rates, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let min = if args.smoke { 1 } else { MIN_PASSES };
    let budget = Duration::from_secs_f64(if args.smoke { 0.0 } else { args.seconds });
    let t0 = Instant::now();
    for i in 0.. {
        let traced_done = rec.is_none() || layers.len() >= min;
        if walls.len() >= min && traced_done && t0.elapsed() >= budget {
            break;
        }
        let pass = match rec.filter(|_| i % 2 == 1) {
            None => {
                let pass = guarded_pass(&mut *bench, None);
                if let Ok(p) = &pass {
                    let wall = p.wall.as_secs_f64();
                    walls.push(wall);
                    rates.push(p.reports.iter().map(|r| r.ops as f64).sum::<f64>() / wall);
                }
                pass
            }
            Some(rec) => {
                let (id, start) = (rec.reserve(), rec.now());
                let pass = guarded_pass(&mut *bench, Some((rec, id)));
                rec.record(id, "pass", None, None, start, rec.now(), Vec::new());
                let spans = rec.drain();
                layers.push(LayerPass::of(&spans, id, bench.cells()));
                if let Some(kept) = kept.as_deref_mut() {
                    kept.extend(spans);
                }
                pass
            }
        };
        last = book(&mut *bench, pass, &mut ledger).or(last);
    }

    let mut m = Metrics::new();
    metrics::put_summary(&mut m, "grid_wall_s", &walls);
    metrics::put_summary(&mut m, "ops_per_s", &rates);
    metrics::put_summary(&mut m, "setup_s", &setups);
    metrics::put(&mut m, "peak_rss_mb", metrics::peak_rss_mb());
    if rec.is_some() {
        metrics::layer_metrics(&mut m, &layers, &walls);
    }
    if let Some(pass) = &last {
        metrics::sim_metrics(&mut m, bench.cells(), &pass.reports, kind == Kind::Fig6Grid);
    }
    Outcome {
        kind,
        ledger,
        metrics: m,
        passes: walls.len(),
        traced: layers.len(),
    }
}

/// Runs one pass, turning a panic into its message.
fn guarded_pass(bench: &mut dyn Bench, trace: Option<(&Recorder, u64)>) -> Result<Pass, String> {
    catch_unwind(AssertUnwindSafe(|| bench.pass(trace))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

/// Books a pass's checks; a panicked pass fails all its cells.
fn book(bench: &mut dyn Bench, pass: Result<Pass, String>, ledger: &mut Ledger) -> Option<Pass> {
    let cells = bench.cells().len();
    let failures = match &pass {
        Ok(p) => bench.check(p),
        Err(msg) => vec![(None, format!("pass panicked: {msg}"))],
    };
    ledger.book(cells, failures);
    pass.ok()
}

/// Prints the pinned-digest table for `checks::PINNED`.
fn print_digests(params: &Params) {
    println!("// seed {:#x}", params.seed);
    for kind in [Kind::Fig6Grid, Kind::Scale64] {
        let mut bench = workloads::setup(kind, params);
        let pass = bench.pass(None);
        for (cell, r) in bench.cells().iter().zip(&pass.reports) {
            println!("    (\"{}\", {:#018x}),", cell.label, r.digest());
        }
    }
}

fn print_outcome(o: &Outcome, args: &Args, jobs: usize) {
    let l = &o.ledger;
    println!(
        "== {}: {} untraced + {} traced passes after {} warm-up, seed {:#x}, {} host threads",
        o.kind.name(),
        o.passes,
        o.traced,
        o.kind.warmup(),
        args.seed,
        jobs
    );
    for (name, metric) in &o.metrics {
        let unit = metrics::unit(name);
        let mut line = format!("  {name:<38} {:>16.6} {unit:<10}", metric.value);
        if let Some(s) = metric.spread {
            let _ = write!(line, " q1 {:.6}  q3 {:.6}  n={}", s.q1, s.q3, s.n);
        }
        if metric.exact {
            line.push_str(" (simulated)");
        }
        println!("{line}");
    }
    if o.kind == Kind::Fig6Grid {
        println!(
            "  sim.fig6_norm.* are mean cycles normalized to NetCache at input scale {}, \
             against the paper's 1.26/1.32/1.50; the model has no hardware reference.",
            if args.smoke { 0.02 } else { 0.1 }
        );
    }
    println!("  checks: {} of {} cells failed", l.failed, l.attempted);
    for msg in &l.messages {
        println!("  FAILED {msg}");
    }
}

/// The result line: the mode's catalogued metrics, prefixed with the
/// workload's name when the run covered several.
fn result_line(outcomes: &[Outcome], trace: bool) -> String {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let (attempted, failed) = outcomes.iter().fold((0, 0), |(a, f), o| {
        (a + o.ledger.attempted, f + o.ledger.failed)
    });
    let mut fields = Vec::new();
    for o in outcomes {
        for (name, unit) in catalogue {
            let value = o.metrics.get(*name).map_or(0.0, |m| m.value);
            let key = match outcomes.len() {
                1 => name.to_string(),
                _ => format!("{}.{name}", o.kind.name()),
            };
            fields.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    )
}

/// The `--json` document: every metric with its spread, and the checks.
fn detail_json(outcomes: &[Outcome], args: &Args, jobs: usize) -> String {
    let mut out = format!(
        "{{\"seed\": {}, \"jobs\": {jobs}, \"smoke\": {}, \"trace\": {}, \"workloads\": [",
        args.seed, args.smoke, args.trace
    );
    for (i, o) in outcomes.iter().enumerate() {
        let failures: Vec<String> = o
            .ledger
            .messages
            .iter()
            .map(|m| format!("\"{}\"", netcache_core::json::escape(m)))
            .collect();
        let _ = write!(
            out,
            "{}\n  {{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
             \"passes\": {}, \"traced_passes\": {}, \"metrics\": {{",
            if i > 0 { "," } else { "" },
            o.kind.name(),
            o.ledger.attempted,
            o.ledger.failed,
            failures.join(", "),
            o.passes,
            o.traced
        );
        for (j, (name, m)) in o.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"exact\": {}",
                if j > 0 { "," } else { "" },
                m.value,
                metrics::unit(name),
                m.exact
            );
            if let Some(s) = m.spread {
                let _ = write!(out, ", \"q1\": {}, \"q3\": {}, \"n\": {}", s.q1, s.q3, s.n);
            }
            out.push('}');
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}
