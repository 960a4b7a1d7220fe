//! Adversarial CLI tests for the topology flags, `trace`'s output and
//! `replay`'s trace input.
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
