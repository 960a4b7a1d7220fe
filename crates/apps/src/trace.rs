//! Trace import/export: a line-oriented text format for operation streams.
//!
//! This is the bridge to *real* front-ends: anything that can emit one
//! line per operation (a Pin/Valgrind tool, another simulator, a script)
//! can drive these machines, and any built-in workload can be dumped for
//! inspection or replay. Format, one op per line:
//!
//! ```text
//! C <cycles>     # compute
//! R <hex-addr>   # read
//! W <hex-addr>   # write
//! A <lock-id>    # acquire
//! L <lock-id>    # release (L for "leave")
//! B <barrier-id> # barrier
//! # comment / blank lines ignored
//! ```
//!
//! A multiprocessor trace is one file per processor, `<app>.<p>.trace` with
//! `p` the processor index counted from 0 (`netcache trace` writes this
//! layout and `netcache replay` reads it, running processor `p` on node
//! `p`), or the in-memory `Vec<Vec<Op>>` forms below.

use crate::ops::{Op, OpStream};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};

/// Serializes one operation to its line form (no trailing newline).
pub fn format_op(op: &Op) -> String {
    match op {
        Op::Compute(n) => format!("C {n}"),
        Op::Read(a) => format!("R {a:x}"),
        Op::Write(a) => format!("W {a:x}"),
        Op::Acquire(l) => format!("A {l}"),
        Op::Release(l) => format!("L {l}"),
        Op::Barrier(b) => format!("B {b}"),
    }
}

/// Parses one line; `None` for blanks/comments.
///
/// # Errors
/// Describes the offending line on malformed input.
pub fn parse_line(line: &str) -> Result<Option<Op>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (kind, rest) = line
        .split_once(char::is_whitespace)
        .ok_or_else(|| format!("malformed trace line: {line:?}"))?;
    let rest = rest.trim();
    let op = match kind {
        "C" => Op::Compute(
            rest.parse()
                .map_err(|e| format!("bad compute count {rest:?}: {e}"))?,
        ),
        "R" => Op::Read(
            u64::from_str_radix(rest, 16).map_err(|e| format!("bad address {rest:?}: {e}"))?,
        ),
        "W" => Op::Write(
            u64::from_str_radix(rest, 16).map_err(|e| format!("bad address {rest:?}: {e}"))?,
        ),
        "A" => Op::Acquire(
            rest.parse()
                .map_err(|e| format!("bad lock id {rest:?}: {e}"))?,
        ),
        "L" => Op::Release(
            rest.parse()
                .map_err(|e| format!("bad lock id {rest:?}: {e}"))?,
        ),
        "B" => Op::Barrier(
            rest.parse()
                .map_err(|e| format!("bad barrier id {rest:?}: {e}"))?,
        ),
        other => return Err(format!("unknown op kind {other:?} in line {line:?}")),
    };
    Ok(Some(op))
}

/// Serializes a whole stream to text.
pub fn dump(ops: impl IntoIterator<Item = Op>) -> String {
    let mut out = String::new();
    for op in ops {
        let _ = writeln!(out, "{}", format_op(&op));
    }
    out
}

/// Parses a trace from any reader into a lazily-consumable stream.
///
/// # Errors
/// On the first malformed line (with its 1-based line number).
pub fn load(reader: impl Read) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| format!("I/O error at line {}: {e}", i + 1))?;
        if let Some(op) = parse_line(&line).map_err(|e| format!("line {}: {e}", i + 1))? {
            ops.push(op);
        }
    }
    Ok(ops)
}

/// Wraps parsed ops as an [`OpStream`] for `netcache_core::run_streams`.
pub fn into_stream(ops: Vec<Op>) -> OpStream {
    OpStream::from_ops(ops)
}

/// Summary statistics of a stream — handy before committing to a long
/// simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceProfile {
    /// Data reads.
    pub reads: u64,
    /// Data writes.
    pub writes: u64,
    /// Total compute cycles.
    pub compute: u64,
    /// Lock acquisitions.
    pub acquires: u64,
    /// Barrier crossings.
    pub barriers: u64,
    /// Distinct 64 B blocks touched.
    pub footprint_blocks: u64,
}

/// Profiles a stream (consumes it).
pub fn profile(ops: impl IntoIterator<Item = Op>) -> TraceProfile {
    let mut p = TraceProfile::default();
    let mut blocks = std::collections::HashSet::new();
    for op in ops {
        match op {
            Op::Read(a) => {
                p.reads += 1;
                blocks.insert(a / 64);
            }
            Op::Write(a) => {
                p.writes += 1;
                blocks.insert(a / 64);
            }
            Op::Compute(n) => p.compute += n as u64,
            Op::Acquire(_) => p.acquires += 1,
            Op::Release(_) => {}
            Op::Barrier(_) => p.barriers += 1,
        }
    }
    p.footprint_blocks = blocks.len() as u64;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppId, Workload};
    use memsys::AddressMap;

    #[test]
    fn ops_round_trip_through_text() {
        let ops = vec![
            Op::Compute(17),
            Op::Read(0x1000_0000_1234),
            Op::Write(0xdead_beef),
            Op::Acquire(3),
            Op::Release(3),
            Op::Barrier(42),
        ];
        let text = dump(ops.clone());
        let back = load(text.as_bytes()).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\nC 5\n  # indented comment\nR ff\n";
        let ops = load(text.as_bytes()).unwrap();
        assert_eq!(ops, vec![Op::Compute(5), Op::Read(0xff)]);
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let err = load("C 5\nX 9\n".as_bytes()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("unknown op kind"), "{err}");
        let err = load("R zz\n".as_bytes()).unwrap_err();
        assert!(err.contains("bad address"), "{err}");
    }

    #[test]
    fn builtin_workload_round_trips() {
        let map = AddressMap::new(2, 64);
        let w = Workload::new(AppId::Water, 2).scale(0.25);
        let original: Vec<Op> = w.streams(&map).remove(0).collect();
        let text = dump(original.clone());
        let back = load(text.as_bytes()).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn profile_counts() {
        let p = profile(vec![
            Op::Read(0),
            Op::Read(64),
            Op::Read(65), // same block as 64
            Op::Write(128),
            Op::Compute(9),
            Op::Compute(1),
            Op::Barrier(0),
            Op::Acquire(1),
            Op::Release(1),
        ]);
        assert_eq!(
            p,
            TraceProfile {
                reads: 3,
                writes: 1,
                compute: 10,
                acquires: 1,
                barriers: 1,
                footprint_blocks: 3,
            }
        );
    }
}
