//! Adversarial CLI tests for the machine flags (`--procs`, `--ring-kb`,
//! the topology flags), `--scale`, `trace`'s output, `replay`'s trace
//! input and `figures`' figure names.
//!
//! The CLI's contract for bad input is exit code 2 with a diagnostic
//! that **names the offending flag or file** — never a panic, never a
//! silently coerced machine. These tests shell out to the real binary
//! (`CARGO_BIN_EXE_netcache`) so they pin the process-level behavior a
//! script caller actually sees: exit status, stderr wording, and the
//! absence of a simulation run on the bad path.

use netcache::apps::trace;
use netcache::sim::Xoshiro256StarStar as Rng;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn netcache(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_netcache"))
        .args(args)
        .output()
        .expect("spawn netcache binary")
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// An empty scratch directory of this test process (tests run in
/// parallel, so each names its own).
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netcache-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

fn path_arg(dir: &std::path::Path) -> &str {
    dir.to_str().expect("scratch path is UTF-8")
}

/// An unknown fabric name must exit 2 naming `--topology` and listing
/// the accepted kinds, so the caller can fix the spelling without
/// consulting the source.
#[test]
fn unknown_topology_name_exits_two_naming_the_flag() {
    let out = netcache(&["run", "sor", "--topology", "torus"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--topology"), "flag not named: {err}");
    assert!(err.contains("\"torus\""), "bad value not echoed: {err}");
    for kind in ["single", "multi-ring", "star-of-rings"] {
        assert!(err.contains(kind), "{kind} missing from suggestions: {err}");
    }
}

/// `--rings 0` is a machine with no cache rings — meaningless, and the
/// count parser must reject it by name instead of letting a modulo-zero
/// panic surface from the striping math.
#[test]
fn zero_rings_exits_two_naming_the_flag() {
    let out = netcache(&["run", "sor", "--topology", "multi-ring", "--rings", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--rings"), "flag not named: {err}");
    assert!(err.contains("at least 1"), "no lower-bound hint: {err}");
}

/// `--rings` on a topology that ignores it would silently misdescribe
/// the machine that ran, so pairing it with anything but `multi-ring`
/// (including the implicit default) is an error naming `--rings`.
#[test]
fn rings_without_multi_ring_exits_two_naming_the_flag() {
    for extra in [
        &[][..],
        &["--topology", "single"],
        &["--topology", "star-of-rings"],
    ] {
        let mut args = vec!["run", "sor", "--rings", "4"];
        args.extend_from_slice(extra);
        let out = netcache(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}, stderr: {}",
            stderr_of(&out)
        );
        let err = stderr_of(&out);
        assert!(err.contains("--rings"), "flag not named ({args:?}): {err}");
        assert!(
            err.contains("multi-ring"),
            "fix not suggested ({args:?}): {err}"
        );
    }
}

/// A fabric that fails machine validation (a star over a node count that
/// tiles into unequal clusters) is a configuration error, not a panic:
/// exit 2, naming the topology flags.
#[test]
fn invalid_topology_shape_exits_two() {
    let out = netcache(&["run", "sor", "--topology", "star-of-rings", "--procs", "24"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--topology"), "flag not named: {err}");
}

/// The good path stays good: a valid non-default fabric runs to
/// completion and reports the fabric it simulated.
#[test]
fn valid_topology_runs_clean() {
    let out = netcache(&[
        "run",
        "sor",
        "--topology",
        "multi-ring",
        "--rings",
        "2",
        "--scale",
        "0.02",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}

/// A workload's input scale lies in (0, 1]. Every subcommand that takes
/// `--scale` rejects anything else while parsing, naming the flag, before
/// a workload is built.
#[test]
fn scale_out_of_range_exits_two_naming_the_flag() {
    let dir = scratch_dir("scale");
    for cmd in [
        &["run", "cg"][..],
        &["sweep", "cg"],
        &["profile", "cg"],
        &["trace", "cg", path_arg(&dir)],
    ] {
        for scale in ["0", "2", "-1", "NaN"] {
            let args = [cmd, &["--procs", "4", "--scale", scale]].concat();
            let out = netcache(&args);
            let err = stderr_of(&out);
            assert_eq!(out.status.code(), Some(2), "args {args:?}, stderr: {err}");
            assert!(err.contains("--scale"), "flag not named ({args:?}): {err}");
        }
    }
}

/// The sharer map keeps one bit per node in a `u64`, so a machine of more
/// than 64 nodes cannot be simulated coherently: validation rejects it,
/// naming the limit, instead of running it. (The base 32 KB ring's 128
/// channels do not divide among 65 nodes, so that case drops the ring to
/// reach the node check.)
#[test]
fn more_than_64_nodes_exits_two_naming_the_limit() {
    for (procs, ring_kb) in [("65", "0"), ("128", "32")] {
        let args = [
            "run",
            "cg",
            "--procs",
            procs,
            "--ring-kb",
            ring_kb,
            "--scale",
            "0.02",
        ];
        let out = netcache(&args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "args {args:?}, stderr: {err}");
        assert!(err.contains("--procs"), "flag not named ({args:?}): {err}");
        assert!(err.contains("64-node limit"), "limit not named: {err}");
    }
}

/// Ring sizes past the fixed bound exit 2 naming the flag and the limit.
/// 100000000 KB would need 12.8 GB of tags and 64 GB of frame state;
/// 2^54 KB is 2^64 bytes, which a wrapping size computation would turn
/// into a machine with no ring at all.
#[test]
fn oversized_ring_exits_two_naming_the_limit() {
    for kb in ["100000000", "18014398509481984"] {
        let out = netcache(&["run", "cg", "--ring-kb", kb, "--scale", "0.02"]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "--ring-kb {kb}, stderr: {err}");
        assert!(err.contains("--ring-kb"), "flag not named ({kb}): {err}");
        assert!(err.contains("KB limit"), "limit not named ({kb}): {err}");
    }
}

/// Every subcommand validates the machines it will build before running
/// any: 3 nodes do not divide the ring's 128 channels, and the message
/// is the validator's, naming `--procs` and not flags that were never
/// given.
#[test]
fn indivisible_node_count_exits_two_on_every_subcommand() {
    for cmd in ["run", "sweep"] {
        let out = netcache(&[cmd, "cg", "--procs", "3", "--scale", "0.02"]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd}: stderr: {err}");
        assert!(err.contains("--procs 3"), "{cmd}: flag not named: {err}");
        assert!(
            err.contains("multiple of nodes (3)"),
            "{cmd}: not the validator's message: {err}"
        );
        assert!(
            !err.contains("--topology"),
            "{cmd}: blames --topology: {err}"
        );
    }
}

/// `sweep` validates every cell's machine before it labels or runs any:
/// an oversized `--ring-kbs` size exits 2 naming the flag and the limit.
/// 2^54 KB is 2^64 bytes, which no ring size computation may see
/// unchecked.
#[test]
fn sweep_with_an_oversized_ring_exits_two_naming_the_limit() {
    for kb in ["100000000", "18014398509481984"] {
        let args = ["sweep", "fft", "--procs", "4", "--scale", "0.02"];
        let out = netcache(&[&args[..], &["--ring-kbs", kb]].concat());
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{kb}: stderr: {err}");
        assert!(err.contains("--ring-kbs"), "flag not named ({kb}): {err}");
        assert!(err.contains("KB limit"), "limit not named ({kb}): {err}");
        assert!(stdout_of(&out).is_empty(), "{kb}: ran anyway");
    }
}

/// `sweep` honours the fabric flags on every cell: 128 channels do not
/// split across 3 rings, so the machines are rejected naming the flags.
#[test]
fn sweep_with_an_unsplittable_multi_ring_exits_two_naming_the_flags() {
    let out = netcache(&[
        "sweep",
        "fft",
        "--procs",
        "4",
        "--scale",
        "0.02",
        "--topology",
        "multi-ring",
        "--rings",
        "3",
    ]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains("--rings 3"), "flag not named: {err}");
    assert!(
        err.contains("3 rings"),
        "not the validator's message: {err}"
    );
}

/// The cycles `sweep` prints for one of its cells.
fn sweep_cycles<'a>(out: &'a str, label: &str) -> &'a str {
    out.lines()
        .find_map(|l| {
            let mut cols = l.split_whitespace();
            (cols.next() == Some(label)).then(|| cols.next()).flatten()
        })
        .unwrap_or_else(|| panic!("sweep prints no {label} row:\n{out}"))
}

/// `sweep`'s 64 KB NetCache cell is the machine `run --ring-kb 64`
/// simulates for the same flags.
#[test]
fn sweep_runs_netcache_with_the_requested_ring() {
    let shape = ["--procs", "16", "--scale", "0.02"];
    let run = netcache(&[&["run", "fft", "--ring-kb", "64"][..], &shape].concat());
    assert_eq!(run.status.code(), Some(0), "stderr: {}", stderr_of(&run));
    let run_out = stdout_of(&run);
    let run_cycles = run_out
        .split_whitespace()
        .nth(1)
        .expect("run prints `NetCache: <cycles> cycles`");
    let sweep = netcache(&[&["sweep", "fft", "--ring-kbs", "64", "--quiet"][..], &shape].concat());
    assert_eq!(
        sweep.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&sweep)
    );
    let sweep_out = stdout_of(&sweep);
    assert_eq!(
        sweep_cycles(&sweep_out, "netcache/fft/p16/s0.02/ring64k"),
        run_cycles,
        "sweep:\n{sweep_out}\nrun:\n{run_out}"
    );
}

/// The cell labels `sweep` prints, in order.
fn sweep_labels(out: &str) -> Vec<&str> {
    out.lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|first| first.contains('/'))
        .collect()
}

/// `sweep` nests its cells arch → app → ring size, and the ring sizes
/// cross NetCache only: the other architectures have no ring to size.
#[test]
fn sweep_grid_order_crosses_the_ring_axis_on_netcache_only() {
    let out = netcache(&[
        "sweep",
        "fft",
        "sor",
        "--archs",
        "netcache,lambdanet",
        "--ring-kbs",
        "0,64",
        "--procs",
        "4",
        "--scale",
        "0.02",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert_eq!(
        sweep_labels(&stdout_of(&out)),
        [
            "netcache/fft/p4/s0.02/no-ring",
            "netcache/fft/p4/s0.02/ring64k",
            "netcache/sor/p4/s0.02/no-ring",
            "netcache/sor/p4/s0.02/ring64k",
            "lambdanet/fft/p4/s0.02",
            "lambdanet/sor/p4/s0.02",
        ]
    );
}

/// A grid that names a cell twice (an app, an architecture or a ring size
/// given twice) exits 2 naming the cell, before anything runs or reaches
/// the store: it would simulate the cell twice and count one record as
/// two computed cells.
#[test]
fn sweep_naming_a_cell_twice_exits_two_naming_it() {
    let dir = scratch_dir("twice");
    let shape = ["--procs", "4", "--scale", "0.02", "--quiet"];
    for (axes, cell) in [
        (
            &["fft", "fft", "--archs", "netcache"][..],
            "netcache/fft/p4/s0.02",
        ),
        (
            &["fft", "--archs", "netcache,netcache"],
            "netcache/fft/p4/s0.02",
        ),
        (
            &["fft", "--archs", "netcache", "--ring-kbs", "16,16"],
            "netcache/fft/p4/s0.02/ring16k",
        ),
    ] {
        let store = ["--store", path_arg(&dir)];
        let out = netcache(&[&["sweep"][..], axes, &shape, &store].concat());
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{axes:?}: stderr: {err}");
        assert!(
            err.contains(&format!("cell {cell} twice")),
            "{axes:?}: cell not named: {err}"
        );
        assert!(stdout_of(&out).is_empty(), "{axes:?}: ran anyway");
    }
    let written = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, 0, "a rejected sweep wrote into {dir:?}");
}

/// An unknown figure exits 2 naming it and listing the valid names.
#[test]
fn figures_unknown_name_exits_two_listing_the_valid_ones() {
    let out = netcache(&["figures", "fig6", "fig99"]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    for name in ["fig99", "tables", "fig5", "fig15", "sec3.4", "summary"] {
        assert!(err.contains(name), "{name} not named: {err}");
    }
}

/// Each figure fixes its machines and workloads, so a flag that shapes
/// either exits 2 naming the flag, before anything runs.
#[test]
fn figures_with_a_machine_flag_exits_two_naming_it() {
    for flags in [
        &["--procs", "4"][..],
        &["--scale", "0.5"],
        &["--arch", "dmon-i"],
        &["--archs", "all"],
        &["--ring-kb", "64"],
        &["--ring-kbs", "16,32"],
        &["--topology", "star-of-rings"],
        &["--csv", "cells.csv"],
        &["--serial"],
    ] {
        let out = netcache(&[&["figures", "tables"][..], flags].concat());
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: stderr: {err}");
        assert!(err.contains(flags[0]), "{flags:?}: flag not named: {err}");
        assert!(stdout_of(&out).is_empty(), "{flags:?}: ran anyway");
    }
}

/// Every subcommand takes exactly the flags it reads: a flag it would
/// ignore (`sweep` sizes rings from `--ring-kbs`, `run` keeps no store,
/// `sweep` crosses `--archs`, `trace` writes arch-free streams, `replay`
/// runs the traces as written) exits 2 naming it, before anything runs.
#[test]
fn a_flag_the_subcommand_does_not_read_exits_two_naming_it() {
    let dir = scratch_dir("unread");
    let shape = ["--procs", "4", "--scale", "0.02"];
    for (cmd, flag) in [
        (
            &["sweep", "fft", "--archs", "netcache"][..],
            &["--ring-kb", "64"][..],
        ),
        (&["run", "fft"], &["--store", path_arg(&dir)]),
        (&["sweep", "fft"], &["--arch", "dmon-i"]),
        (&["trace", "fft", path_arg(&dir)], &["--arch", "dmon-i"]),
    ] {
        let out = netcache(&[cmd, &shape, flag].concat());
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd:?} {flag:?}: {err}");
        assert!(
            err.contains(&format!("{} takes no {}", cmd[0], flag[0])),
            "{cmd:?}: flag not named: {err}"
        );
        assert!(stdout_of(&out).is_empty(), "{cmd:?} {flag:?}: ran anyway");
    }
    let out = netcache(&["replay", path_arg(&dir), "--scale", "0.5"]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "replay --scale: {err}");
    assert!(
        err.contains("replay takes no --scale"),
        "flag not named: {err}"
    );
    let written = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, 0, "a rejected command wrote into {dir:?}");
}

/// A reader that goes away (`netcache ... | head`) ends the CLI quietly:
/// exit 0 or death by SIGPIPE, never a panic's exit 101. The pipe's read
/// end is closed before the child starts, so its first print fails.
#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_the_cli_without_a_panic() {
    use std::os::unix::process::ExitStatusExt;
    for args in [
        &["run", "fft", "--procs", "4", "--scale", "0.02"][..],
        &[
            "sweep", "fft", "--archs", "netcache", "--procs", "4", "--scale", "0.02",
        ],
        &["figures", "tables", "--quiet"],
    ] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_netcache"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn netcache binary");
        let err = stderr_of(&out);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {err}");
        assert!(
            out.status.success() || out.status.signal() == Some(13),
            "{args:?}: neither exit 0 nor SIGPIPE: {:?}: {err}",
            out.status
        );
    }
}

/// The analytic tables need no simulation: they print the paper's
/// totals, their claim holds, and the JSON document holds them.
#[test]
fn figures_tables_prints_the_paper_totals_and_exits_zero() {
    let dir = scratch_dir("figures");
    let json = dir.join("figures.json");
    let out = netcache(&["figures", "tables", "--quiet", "--json", path_arg(&json)]);
    let text = stdout_of(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    for line in [
        "=== table1_hit:",
        "=== hardware_cost:",
        "✅ holds",
        "0 runs on",
    ] {
        assert!(text.contains(line), "{line:?} missing:\n{text}");
    }
    let doc = std::fs::read_to_string(&json).expect("figures wrote its JSON");
    let doc = netcache::json::parse(&doc).expect("valid JSON");
    assert!(doc.get("figures").is_some());
}

/// `replay` runs processor `p`'s trace on node `p`: at 16 processors a
/// string sort of the file names would run `water.10.trace` on node 2.
/// Replaying what `trace` wrote must reproduce `run` exactly.
#[test]
fn replay_of_sixteen_traces_matches_run() {
    let dir = scratch_dir("order");
    let shape = ["--procs", "16", "--scale", "0.02"];
    let traced = netcache(&[&["trace", "water", path_arg(&dir)][..], &shape].concat());
    assert_eq!(
        traced.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&traced)
    );
    let replay = netcache(&["replay", path_arg(&dir)]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        replay.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&replay)
    );
    let run = netcache(&[&["run", "water"][..], &shape].concat());
    assert_eq!(run.status.code(), Some(0), "stderr: {}", stderr_of(&run));
    let replayed = stdout_of(&replay);
    let ran = stdout_of(&run);
    assert_eq!(
        replayed.trim_end().strip_prefix("replayed 16 traces: "),
        ran.lines().next(),
        "replay and run disagree"
    );
}

/// A missing or empty trace directory exits 2 naming it.
#[test]
fn replay_without_traces_exits_two_naming_the_directory() {
    let dir = scratch_dir("missing");
    let missing = dir.join("no-such-dir");
    let out = netcache(&["replay", path_arg(&missing)]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("no-such-dir"),
        "directory not named: {}",
        stderr_of(&out)
    );
    let out = netcache(&["replay", path_arg(&dir)]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("no .trace files"),
        "stderr: {}",
        stderr_of(&out)
    );
}

/// A malformed trace line exits 2 naming the file and the line.
#[test]
fn replay_malformed_line_exits_two_naming_file_and_line() {
    let dir = scratch_dir("malformed");
    std::fs::write(dir.join("t.0.trace"), "C 5\nX 9\n").expect("write a trace");
    let out = netcache(&["replay", path_arg(&dir)]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("t.0.trace"), "file not named: {err}");
    assert!(err.contains("line 2"), "line not named: {err}");
}

/// Lock and barrier ids are only names: a trace using id 4000000000
/// replays exactly like one using id 0, instead of sizing the engine's
/// per-id tables by the id.
#[test]
fn replay_huge_sync_ids_run_like_id_zero() {
    let summary = |name: &str, id: &str| {
        let dir = scratch_dir(name);
        let text = format!("A {id}\nC 10\nL {id}\nB {id}\n");
        std::fs::write(dir.join("t.0.trace"), text).expect("write a trace");
        let out = netcache(&["replay", path_arg(&dir)]);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            out.status.code(),
            Some(0),
            "id {id}: stderr: {}",
            stderr_of(&out)
        );
        stdout_of(&out)
    };
    assert_eq!(summary("huge-ids", "4000000000"), summary("zero-ids", "0"));
}

/// `trace` into a directory that cannot be created (its parent is a
/// regular file) exits 2 naming the path, instead of panicking.
#[test]
fn trace_into_a_path_under_a_file_exits_two_naming_the_path() {
    let dir = scratch_dir("trace-under-file");
    let file = dir.join("plain");
    std::fs::write(&file, "not a directory").expect("write a file");
    let target = file.join("traces");
    let out = netcache(&[
        "trace",
        "sor",
        path_arg(&target),
        "--procs",
        "2",
        "--scale",
        "0.01",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains(path_arg(&target)), "path not named: {err}");
}

/// Replays one trace per processor and returns the process output.
fn replay_texts(name: &str, texts: &[&str]) -> std::process::Output {
    let dir = scratch_dir(name);
    for (p, text) in texts.iter().enumerate() {
        std::fs::write(dir.join(format!("t.{p}.trace")), text).expect("write a trace");
    }
    let out = netcache(&["replay", path_arg(&dir)]);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Asserts `out` exited 2 naming `file` and op `op` of it.
fn assert_contract_error(out: &std::process::Output, file: &str, op: usize) {
    let err = stderr_of(out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains(file), "file not named: {err}");
    assert!(
        err.contains(&format!("op {op}:")),
        "op {op} not named: {err}"
    );
}

/// Barrier sequences that differ between processors would leave the
/// engine waiting forever; `replay` names the processor that falls short.
#[test]
fn replay_mismatched_barriers_exits_two_naming_file_and_op() {
    let out = replay_texts("barriers", &["C 5\nB 0\n", "C 1\n"]);
    assert_contract_error(&out, "t.1.trace", 1);
}

/// Releasing a lock the processor does not hold is rejected before the
/// run.
#[test]
fn replay_unpaired_release_exits_two_naming_file_and_op() {
    let out = replay_texts("release", &["C 5\nL 3\nC 5\n"]);
    assert_contract_error(&out, "t.0.trace", 1);
}

/// A lock held across a barrier deadlocks any processor that needs it
/// before the same barrier.
#[test]
fn replay_lock_held_across_a_barrier_exits_two_naming_file_and_op() {
    let out = replay_texts("held", &["A 0\nB 0\nL 0\n", "A 0\nL 0\nB 0\n"]);
    assert_contract_error(&out, "t.0.trace", 1);
}

/// One processor's trace for the replay fuzz: `phases` barrier phases
/// of compute, references and properly ordered lock sections (lock ids
/// ascending, so the lock order is acyclic).
fn fuzz_program(rng: &mut Rng, phases: u64, huge_ids: bool) -> Vec<String> {
    let id = |small: u64| {
        if huge_ids {
            u32::MAX as u64 - small
        } else {
            small
        }
    };
    let mut lines = Vec::new();
    for phase in 0..phases {
        for _ in 0..rng.range(1, 6) {
            match rng.below(4) {
                0 => lines.push(format!("C {}", rng.range(1, 50))),
                1 => lines.push(format!("R {:x}", rng.next_u64() >> rng.below(64))),
                2 => lines.push(format!("W {:x}", rng.below(1 << 20) * 8)),
                _ => {
                    let outer = rng.below(3);
                    let inner = outer + 1 + rng.below(3);
                    lines.push(format!("A {}", id(outer)));
                    if rng.chance(0.5) {
                        lines.push(format!("A {}", id(inner)));
                        lines.push(format!("W {:x}", rng.below(1 << 12) * 8));
                        lines.push(format!("L {}", id(inner)));
                    }
                    lines.push(format!("L {}", id(outer)));
                }
            }
        }
        lines.push(format!("B {}", id(phase % 3)));
    }
    lines
}

/// Seeded trace directories, valid and broken, through the real binary:
/// every one exits 0 or 2 in time (never a panic, abort or hang), and
/// exits 0 exactly when every file parses and `check_contract` accepts
/// the set.
#[test]
fn replay_fuzz_exits_zero_or_two_and_zero_iff_the_contract_holds() {
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..80u64 {
        let seed = 0xF022_0000 + case;
        let mut rng = Rng::seeded(seed);
        let procs = rng.range(1, 9) as usize;
        let phases = rng.range(1, 4);
        let huge = rng.chance(0.2);
        let mut files: Vec<Vec<String>> = (0..procs)
            .map(|_| fuzz_program(&mut rng, phases, huge))
            .collect();
        mutate(&mut rng, &mut files);
        let dir = scratch_dir(&format!("fuzz-{case}"));
        let texts: Vec<String> = files
            .iter()
            .map(|lines| {
                let mut text = lines.join("\n");
                if !text.is_empty() && rng.chance(0.8) {
                    text.push('\n');
                }
                text
            })
            .collect();
        for (p, text) in texts.iter().enumerate() {
            std::fs::write(dir.join(format!("t.{p}.trace")), text).expect("write a trace");
        }
        let parsed: Result<Vec<_>, _> = texts.iter().map(|t| trace::load(t.as_bytes())).collect();
        let valid = parsed.is_ok_and(|traces| trace::check_contract(&traces).is_ok());
        let (code, err) = replay_with_timeout(&dir, Duration::from_secs(60))
            .unwrap_or_else(|| panic!("seed {seed:#x}: replay still running after 60 s"));
        let _ = std::fs::remove_dir_all(&dir);
        let want = if valid { 0 } else { 2 };
        assert_eq!(
            code,
            Some(want),
            "seed {seed:#x}: replay of {texts:?} exited {code:?}, want {want}; stderr: {err}"
        );
        if valid {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(
        accepted >= 15 && rejected >= 15,
        "accepted {accepted}, rejected {rejected}"
    );
}

/// Applies at most one seeded defect to a valid set of traces.
fn mutate(rng: &mut Rng, files: &mut [Vec<String>]) {
    let p = rng.below(files.len() as u64) as usize;
    let lines = &mut files[p];
    let at = |rng: &mut Rng, lines: &[String]| rng.below(lines.len() as u64 + 1) as usize;
    let find = |lines: &[String], kind: &str| lines.iter().position(|l| l.starts_with(kind));
    match rng.below(16) {
        // Mismatched barriers: one changed, dropped or added.
        0 => {
            if let Some(i) = find(lines, "B ") {
                lines[i] = format!("B {}", rng.range(3, 9));
            }
        }
        1 => {
            if let Some(i) = find(lines, "B ") {
                lines.remove(i);
            }
        }
        2 => {
            let i = at(rng, lines);
            lines.insert(i, "B 7".into());
        }
        // An unpaired release, or a lock still held at the end.
        3 => {
            let i = at(rng, lines);
            lines.insert(i, "L 9".into());
        }
        4 => {
            if let Some(i) = find(lines, "L ") {
                lines.remove(i);
            }
        }
        // A lock held across the next barrier.
        5 => {
            if let Some(b) = find(lines, "B ") {
                lines.insert(b + 1, "L 9".into());
                lines.insert(b, "A 9".into());
            }
        }
        // A lock-order cycle across two processors, or a re-acquire.
        6 => {
            let other = (p + 1) % files.len();
            files[p].splice(0..0, ["A 10", "A 11", "L 11", "L 10"].map(String::from));
            files[other].splice(0..0, ["A 11", "A 10", "L 10", "L 11"].map(String::from));
        }
        7 => {
            let i = at(rng, lines);
            lines.splice(i..i, ["A 12", "A 12", "L 12", "L 12"].map(String::from));
        }
        // A truncated line, an empty file, every file empty.
        8 => {
            let i = rng.below(lines.len() as u64) as usize;
            let keep = rng.below(lines[i].len() as u64) as usize;
            lines[i].truncate(keep);
        }
        9 => lines.clear(),
        10 => files.iter_mut().for_each(Vec::clear),
        _ => {}
    }
}

/// Runs `netcache replay dir`, killing it after `limit`; the exit code
/// (`None` for a signal) and stderr, or `None` on timeout.
fn replay_with_timeout(dir: &Path, limit: Duration) -> Option<(Option<i32>, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_netcache"))
        .args(["replay", path_arg(dir)])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn netcache binary");
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll the replay") {
            let out = child.wait_with_output().expect("collect stderr");
            return Some((
                status.code(),
                String::from_utf8_lossy(&out.stderr).into_owned(),
            ));
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
