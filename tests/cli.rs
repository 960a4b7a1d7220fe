//! Adversarial CLI tests for the topology flags and `replay`'s trace input.
//!
//! The CLI's contract for bad input is exit code 2 with a diagnostic
//! that **names the offending flag or file** — never a panic, never a
//! silently coerced machine. These tests shell out to the real binary
//! (`CARGO_BIN_EXE_netcache`) so they pin the process-level behavior a
//! script caller actually sees: exit status, stderr wording, and the
//! absence of a simulation run on the bad path.

use std::path::PathBuf;
use std::process::Command;

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
