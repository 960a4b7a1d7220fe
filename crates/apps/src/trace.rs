//! Trace import/export: a line-oriented text format for operation streams.
//!
//! This is the bridge to *real* front-ends: anything that can emit one
//! line per operation (a Pin/Valgrind tool, another simulator, a script)
//! can drive these machines, and any built-in workload can be dumped for
//! inspection or replay.
//!
//! # Grammar
//!
//! One op per line, a kind letter and one operand:
//!
//! | line | op | operand |
//! |---|---|---|
//! | `C <cycles>` | compute | decimal `u32` |
//! | `R <addr>` | read | hexadecimal `u64` |
//! | `W <addr>` | write | hexadecimal `u64` |
//! | `A <lock-id>` | acquire | decimal `u32` |
//! | `L <lock-id>` | release ("leave") | decimal `u32` |
//! | `B <barrier-id>` | barrier | decimal `u32` |
//!
//! - A line ends at `\n` or at the end of the input, so `\r\n` endings
//!   and a last line without `\n` are fine.
//! - Whitespace is space, `\t`, `\n`, `\x0B`, `\x0C` and `\r` (what
//!   `char::is_whitespace` accepts in ASCII). Any amount may surround a
//!   line, and at least one byte of it separates the letter from the
//!   operand.
//! - An operand is an optional `+` and one or more digits; hex digits
//!   take either case, leading zeros are allowed, and a value too large
//!   for its type is an error.
//! - A blank line is skipped, and so is a comment: a line whose first
//!   non-whitespace byte is `#`. A comment may hold any bytes; a
//!   non-ASCII byte anywhere else is an error. There are no trailing
//!   comments after an op.
//!
//! Errors name the offending line, counted from 1 over every line
//! including blank and comment lines.
//!
//! # Files
//!
//! A multiprocessor trace is one file per processor, `<app>.<p>.trace` with
//! `p` the processor index counted from 0 (`netcache trace` writes this
//! layout and `netcache replay` reads it, running processor `p` on node
//! `p`), or the in-memory `Vec<Vec<Op>>` forms below.
//!
//! # Front-end contract
//!
//! The engine runs any streams, but deadlocks (and panics) on streams a
//! program could not have produced. [`check_contract`] accepts exactly
//! the traces where:
//!
//! - every processor crosses the same sequence of barriers;
//! - locks nest: a release names the innermost lock its processor holds;
//! - no lock is held at a barrier or at the end of a trace;
//! - the lock-order graph is acyclic. It has an edge A→B when any
//!   processor acquires B while holding A, so re-acquiring a held lock
//!   is a self-loop.
//!
//! Together these rule out the engine's deadlock: every lock wait ends,
//! because the holder needs no lock ordered before it and holds none at a
//! barrier; and every barrier fills, because every processor reaches it.

use crate::ops::{BarrierId, LockId, Op, OpStream};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};

/// Bytes [`load`] reads per window.
const WINDOW: usize = 64 * 1024;

/// Writes `ops` in the line format, then flushes `out`. Each line is
/// formatted on the stack and written whole, so hand it a buffered writer
/// (a `BufWriter<File>`, a `Vec<u8>`).
///
/// # Errors
/// The first error `out` returns.
pub fn write(mut out: impl Write, ops: impl IntoIterator<Item = Op>) -> io::Result<()> {
    for op in ops {
        // Kind, space, at most 16 hex or 10 decimal digits, newline.
        let mut line = [0u8; 20];
        let end = line.len() - 1;
        line[end] = b'\n';
        let (kind, first) = match op {
            Op::Compute(n) => (b'C', digits::<10>(n.into(), &mut line, end)),
            Op::Read(a) => (b'R', digits::<16>(a, &mut line, end)),
            Op::Write(a) => (b'W', digits::<16>(a, &mut line, end)),
            Op::Acquire(l) => (b'A', digits::<10>(l.into(), &mut line, end)),
            Op::Release(l) => (b'L', digits::<10>(l.into(), &mut line, end)),
            Op::Barrier(b) => (b'B', digits::<10>(b.into(), &mut line, end)),
        };
        line[first - 2] = kind;
        line[first - 1] = b' ';
        out.write_all(&line[first - 2..])?;
    }
    out.flush()
}

/// Writes `v` in lower-case base `RADIX` so that it ends just before
/// `buf[end]`; returns the index of its first digit.
fn digits<const RADIX: u64>(mut v: u64, buf: &mut [u8], mut end: usize) -> usize {
    loop {
        end -= 1;
        buf[end] = b"0123456789abcdef"[(v % RADIX) as usize];
        v /= RADIX;
        if v == 0 {
            return end;
        }
    }
}

/// Serializes a whole stream to text: the bytes [`write()`] emits.
pub fn dump(ops: impl IntoIterator<Item = Op>) -> String {
    let mut text = Vec::new();
    write(&mut text, ops).expect("writing to a Vec cannot fail");
    String::from_utf8(text).expect("trace text is ASCII")
}

/// Parses one line (without its `\n`); `None` for blanks/comments. This
/// is the routine [`load`] runs on each line's bytes.
///
/// # Errors
/// Describes the offending line on malformed input.
pub fn parse_line(line: &str) -> Result<Option<Op>, String> {
    parse(line.as_bytes())
}

/// Whitespace as `char::is_whitespace` has it on ASCII, which (unlike
/// `u8::is_ascii_whitespace`) includes `\x0B`.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r')
}

/// Index of the first non-whitespace byte of `bytes`, or its length.
fn skip_space(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(bytes.len())
}

/// The grammar, on one whole line (a `\n` inside it is whitespace):
/// [`parse_line`] is this, and [`load`] runs it on every line its
/// in-place path ([`next_line`]) does not take.
fn parse(line: &[u8]) -> Result<Option<Op>, String> {
    let start = skip_space(line);
    match line.get(start) {
        None | Some(b'#') => return Ok(None),
        Some(_) => {}
    }
    let end = line
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(start, |e| e + 1);
    let text = &line[start..end];
    let Some(sep) = text.iter().position(|&b| is_space(b)) else {
        return Err(malformed(text, || {
            format!("malformed trace line: {:?}", show(text))
        }));
    };
    let (kind, rest) = (&text[..sep], &text[sep + 1..]);
    let operand = &rest[skip_space(rest)..];
    let bad = |what: &str, e: &str| malformed(text, || format!("{what} {:?}: {e}", show(operand)));
    let id = |what| {
        number::<10>(operand, u32::MAX.into())
            .map(|v| v as u32)
            .map_err(|e| bad(what, e))
    };
    let addr = || number::<16>(operand, u64::MAX).map_err(|e| bad("bad address", e));
    let op = match kind {
        b"C" => Op::Compute(id("bad compute count")?),
        b"R" => Op::Read(addr()?),
        b"W" => Op::Write(addr()?),
        b"A" => Op::Acquire(id("bad lock id")?),
        b"L" => Op::Release(id("bad lock id")?),
        b"B" => Op::Barrier(id("bad barrier id")?),
        _ => {
            return Err(malformed(text, || {
                format!("unknown op kind {:?} in line {:?}", show(kind), show(text))
            }))
        }
    };
    Ok(Some(op))
}

/// The error for a rejected line `text`: `describe()`, unless the line
/// holds a non-ASCII byte, which is the error then.
fn malformed(text: &[u8], describe: impl FnOnce() -> String) -> String {
    match text.iter().position(|b| !b.is_ascii()) {
        Some(at) => format!(
            "non-ASCII byte {:#04x} at column {} in trace line {:?}",
            text[at],
            at + 1,
            show(text)
        ),
        None => describe(),
    }
}

/// `bytes` as text for a message (ASCII in every message but the
/// non-ASCII one).
fn show(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

/// Parses an operand the way `str::parse` and `u64::from_str_radix` do:
/// an optional `+`, then one or more base-`RADIX` digits of either case,
/// to a value of at most `max`. The errors are `ParseIntError`'s words.
fn number<const RADIX: u32>(operand: &[u8], max: u64) -> Result<u64, &'static str> {
    const INVALID: &str = "invalid digit found in string";
    let digits = match operand {
        [] => return Err("cannot parse integer from empty string"),
        [b'+'] => return Err(INVALID),
        [b'+', digits @ ..] => digits,
        _ => operand,
    };
    let mut value = 0u64;
    for &b in digits {
        let digit = char::from(b).to_digit(RADIX).ok_or(INVALID)?;
        value = value
            .checked_mul(RADIX.into())
            .and_then(|v| v.checked_add(digit.into()))
            .filter(|&v| v <= max)
            .ok_or("number too large to fit in target type")?;
    }
    Ok(value)
}

/// Parses a trace from any reader into its ops, in one pass over the
/// bytes.
///
/// Reads through a 64 KiB window and parses each line in place. Only a
/// line that straddles two windows is copied, into one reused buffer.
/// The ops go into the memory of a replay stream dropped earlier on this
/// thread, when there is one, so a thread that replays trace after
/// trace does not fault its traces in afresh each time.
///
/// # Errors
/// On the first malformed line or I/O error, naming its 1-based line
/// number.
pub fn load(reader: impl Read) -> Result<Vec<Op>, String> {
    let mut reader = BufReader::with_capacity(WINDOW, reader);
    let mut ops = crate::ops::spare_ops();
    let mut carry = Vec::new();
    let mut line_no = 0;
    loop {
        let window = match reader.fill_buf() {
            Ok([]) => break,
            Ok(window) => window,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("I/O error at line {}: {e}", line_no + 1)),
        };
        let mut rest = window;
        if !carry.is_empty() {
            let nl = newline(rest).unwrap_or(rest.len());
            carry.extend_from_slice(&rest[..nl]);
            rest = &rest[nl..];
            if let Some(after) = rest.get(1..) {
                line_no += 1;
                ops.extend(parse(&carry).map_err(|e| at_line(line_no, e))?);
                carry.clear();
                rest = after;
            }
        }
        while let Some((op, nl)) = next_line(rest) {
            line_no += 1;
            ops.extend(op.map_err(|e| at_line(line_no, e))?);
            rest = &rest[nl + 1..];
        }
        carry.extend_from_slice(rest);
        let read = window.len();
        reader.consume(read);
    }
    if !carry.is_empty() {
        ops.extend(parse(&carry).map_err(|e| at_line(line_no + 1, e))?);
    }
    Ok(ops)
}

fn at_line(line_no: usize, e: String) -> String {
    format!("line {line_no}: {e}")
}

fn newline(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n')
}

/// Parses the first line of `bytes`: its parse and the index of the `\n`
/// ending it, or `None` if `bytes` holds no `\n`.
///
/// The shape [`write`] emits, `K <digits>` ended by `\n` or `\r\n`, is
/// read in place with no overflow possible: at most 16 hex or 10 decimal
/// digits accumulate into a `u64`. [`parse`] takes every other line, so
/// both return the same op for a line of that shape.
#[inline]
fn next_line(bytes: &[u8]) -> Option<(Result<Option<Op>, String>, usize)> {
    let written = match bytes {
        [kind, b' ', ..] => match kind {
            b'R' => operand::<16>(bytes).map(|(a, nl)| (Op::Read(a), nl)),
            b'W' => operand::<16>(bytes).map(|(a, nl)| (Op::Write(a), nl)),
            b'C' => id(bytes).map(|(n, nl)| (Op::Compute(n), nl)),
            b'A' => id(bytes).map(|(l, nl)| (Op::Acquire(l), nl)),
            b'L' => id(bytes).map(|(l, nl)| (Op::Release(l), nl)),
            b'B' => id(bytes).map(|(b, nl)| (Op::Barrier(b), nl)),
            _ => None,
        },
        _ => None,
    };
    match written {
        Some((op, nl)) => Some((Ok(Some(op)), nl)),
        None => newline(bytes).map(|nl| (parse(&bytes[..nl]), nl)),
    }
}

/// [`operand`] for a decimal `u32`.
#[inline]
fn id(bytes: &[u8]) -> Option<(u32, usize)> {
    operand::<10>(bytes).and_then(|(v, nl)| Some((u32::try_from(v).ok()?, nl)))
}

/// The base-`RADIX` digits from `bytes[2]` to a `\n` or `\r\n`: their
/// value and the index of the `\n`. `None` for no digits, more digits
/// than fit without overflow, or anything else before the `\n`.
#[inline]
fn operand<const RADIX: u8>(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut i = 2;
    loop {
        let digit = DIGIT[usize::from(*bytes.get(i)?)];
        if digit >= RADIX {
            break;
        }
        value = value.wrapping_mul(RADIX.into()).wrapping_add(digit.into());
        i += 1;
    }
    let most = if RADIX == 16 { 16 } else { 10 };
    if !(1..=most).contains(&(i - 2)) {
        return None;
    }
    match bytes[i..] {
        [b'\n', ..] => Some((value, i)),
        [b'\r', b'\n', ..] => Some((value, i + 1)),
        _ => None,
    }
}

/// Each byte's hex digit value, either case; 255 for a non-digit.
const DIGIT: [u8; 256] = {
    let mut table = [u8::MAX; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            d @ b'0'..=b'9' => d - b'0',
            d @ b'a'..=b'f' => d - b'a' + 10,
            d @ b'A'..=b'F' => d - b'A' + 10,
            _ => u8::MAX,
        };
        b += 1;
    }
    table
};

/// Wraps parsed ops as an [`OpStream`] for `netcache_core::run_streams`.
pub fn into_stream(ops: Vec<Op>) -> OpStream {
    OpStream::from_ops(ops)
}

/// Where a set of traces breaks the front-end contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractError {
    /// Index of the offending processor's trace.
    pub proc: usize,
    /// Index of the offending op in that trace, counted from 0 (blank and
    /// comment lines hold no op); the trace's length for its end.
    pub op: usize,
    /// What the op breaks.
    pub reason: String,
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "processor {}, op {}: {}",
            self.proc, self.op, self.reason
        )
    }
}

/// Checks the front-end contract (see the module docs) on one trace per
/// processor. Messages name ops by index, not by id, so they hold after
/// ids are renumbered.
///
/// # Errors
/// The first violation, in processor order.
pub fn check_contract(traces: &[Vec<Op>]) -> Result<(), ContractError> {
    let fail = |proc, op, reason: String| Err(ContractError { proc, op, reason });
    let reference: Vec<BarrierId> = traces
        .first()
        .into_iter()
        .flatten()
        .filter_map(|op| match op {
            Op::Barrier(b) => Some(*b),
            _ => None,
        })
        .collect();
    // Lock-order edges, each with the first (processor, op) adding it.
    // Only the innermost held lock gets an edge: the locks under it
    // already reach it through the edges added when it was acquired, so
    // the graph has a cycle exactly when the all-held-locks graph does.
    let mut edges: BTreeMap<(LockId, LockId), (usize, usize)> = BTreeMap::new();
    for (p, ops) in traces.iter().enumerate() {
        // Held locks, innermost last, with the op that acquired each, and
        // as a set (a trace may nest any number of locks).
        let mut held: Vec<(LockId, usize)> = Vec::new();
        let mut holding = HashSet::new();
        let mut crossed = 0;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Acquire(l) => {
                    if !holding.insert(l) {
                        let at = held.iter().find(|&&(h, _)| h == l).map_or(0, |&(_, at)| at);
                        return fail(
                            p,
                            i,
                            format!("re-acquires the lock it acquired at op {at} (a self-loop in the lock order)"),
                        );
                    }
                    if let Some(&(h, _)) = held.last() {
                        edges.entry((h, l)).or_insert((p, i));
                    }
                    held.push((l, i));
                }
                Op::Release(l) => match held.pop() {
                    Some((h, _)) if h == l => {
                        holding.remove(&h);
                    }
                    Some((_, at)) => {
                        return fail(
                            p,
                            i,
                            format!("releases a lock other than the innermost one it holds (acquired at op {at})"),
                        )
                    }
                    None => return fail(p, i, "releases a lock it does not hold".into()),
                },
                Op::Barrier(b) => {
                    if let Some(&(_, at)) = held.last() {
                        return fail(p, i, format!("reaches a barrier holding the lock it acquired at op {at}"));
                    }
                    if reference.get(crossed) != Some(&b) {
                        return fail(
                            p,
                            i,
                            format!("its barrier #{crossed} differs from processor 0's (which crosses {})", reference.len()),
                        );
                    }
                    crossed += 1;
                }
                Op::Compute(_) | Op::Read(_) | Op::Write(_) => {}
            }
        }
        if let Some(&(_, at)) = held.first() {
            return fail(
                p,
                at,
                "acquires a lock it still holds at the end of its trace".into(),
            );
        }
        if crossed < reference.len() {
            return fail(
                p,
                ops.len(),
                format!(
                    "the trace ends after {crossed} of processor 0's {} barriers",
                    reference.len()
                ),
            );
        }
    }
    lock_order_cycle(&edges).map_or(Ok(()), |(proc, op, reason)| fail(proc, op, reason))
}

/// A cycle in the lock-order graph, as the (processor, op, reason) of the
/// acquisition that closes it, found by depth-first search.
fn lock_order_cycle(
    edges: &BTreeMap<(LockId, LockId), (usize, usize)>,
) -> Option<(usize, usize, String)> {
    let mut succ: BTreeMap<LockId, Vec<LockId>> = BTreeMap::new();
    for &(a, b) in edges.keys() {
        succ.entry(a).or_default().push(b);
    }
    // `false` while a lock is on the search path, `true` once finished.
    let mut seen: BTreeMap<LockId, bool> = BTreeMap::new();
    for &root in succ.keys() {
        if seen.contains_key(&root) {
            continue;
        }
        seen.insert(root, false);
        let mut path = vec![(root, 0)];
        while let Some(&(lock, next)) = path.last() {
            let Some(&to) = succ.get(&lock).and_then(|s| s.get(next)) else {
                seen.insert(lock, true);
                path.pop();
                continue;
            };
            path.last_mut().expect("path is non-empty").1 += 1;
            match seen.get(&to) {
                None => {
                    seen.insert(to, false);
                    path.push((to, 0));
                }
                Some(false) => {
                    let from = path
                        .iter()
                        .position(|&(l, _)| l == to)
                        .expect("on the path");
                    let others: Vec<String> = path[from..]
                        .windows(2)
                        .map(|w| {
                            let (p, i) = edges[&(w[0].0, w[1].0)];
                            format!("processor {p} op {i}")
                        })
                        .collect();
                    let (p, i) = edges[&(lock, to)];
                    let reason = format!(
                        "acquires a lock while holding another, closing a lock-order cycle of {} locks with {}",
                        path.len() - from,
                        others.join(", ")
                    );
                    return Some((p, i, reason));
                }
                Some(true) => {}
            }
        }
    }
    None
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

/// The `str` parser this module's byte parser replaced, kept as the
/// differential oracle: lines from `BufRead::lines`, trimmed, split on
/// Unicode whitespace and read with `str::parse`.
#[cfg(test)]
mod oracle {
    use super::*;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppId, Workload};
    use desim::Xoshiro256StarStar as Rng;
    use memsys::AddressMap;

    /// A `Read` that hands out 1–7 bytes per call, so lines straddle
    /// every window boundary.
    struct Trickle<'a> {
        bytes: &'a [u8],
        rng: Rng,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (self.rng.range(1, 8) as usize)
                .min(buf.len())
                .min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn pick<'a>(rng: &mut Rng, xs: &[&'a str]) -> &'a str {
        xs[rng.below(xs.len() as u64) as usize]
    }

    /// A whitespace run: ASCII whitespace, with the byte that
    /// `u8::is_ascii_whitespace` misses (`\x0B`).
    fn space(rng: &mut Rng, min: u64) -> String {
        (0..rng.range(min, min + 3))
            .map(|_| pick(rng, &[" ", " ", "\t", "\x0B", "\x0C", "\r"]))
            .collect()
    }

    /// An operand for a `kind` line, valid or near the edge of valid.
    fn operand(rng: &mut Rng, kind: u8) -> String {
        let hex = matches!(kind, b'R' | b'W');
        let v = match rng.below(6) {
            0 => rng.below(100),
            1 => u32::MAX as u64,
            2 => u32::MAX as u64 + 1,
            3 => u64::MAX,
            4 => rng.next_u64() >> rng.below(64),
            _ => 1 << 60,
        };
        let mut digits = match rng.below(8) {
            // 16 and 17 hex digits: the widest `u64`, and one digit over.
            0 if hex => format!("{v:016x}"),
            1 if hex => format!("{:x}{:016x}", rng.range(1, 16), rng.next_u64()),
            _ if hex => format!("{v:x}"),
            _ => v.to_string(),
        };
        if hex && rng.chance(0.3) {
            digits = digits.to_uppercase();
        }
        if rng.chance(0.2) {
            // Leading zeros, any number of them.
            let zeros = rng.below(20) as usize;
            digits = format!("{}{digits}", "0".repeat(zeros));
        }
        let sign = if rng.chance(0.15) { "+" } else { "" };
        format!("{sign}{digits}")
    }

    /// One trace line (without its terminator): mostly valid ops, plus
    /// every mutation the grammar has an opinion on.
    fn line(rng: &mut Rng) -> Vec<u8> {
        let kind = b"CRWALB"[rng.below(6) as usize];
        let valid = format!(
            "{}{}{}{}{}",
            if rng.chance(0.2) {
                space(rng, 1)
            } else {
                String::new()
            },
            kind as char,
            space(rng, 1),
            operand(rng, kind),
            if rng.chance(0.2) {
                space(rng, 1)
            } else {
                String::new()
            },
        );
        let text = match rng.below(20) {
            0 => space(rng, 0),
            1 => format!("{}# {} \u{a0}", space(rng, 0), operand(rng, b'C')),
            2 => format!("{valid}{}", pick(rng, &[" x", "z", " 5", "# c", "-", "."])),
            3 => format!(
                "{}{}",
                kind as char,
                pick(rng, &["", " ", "\t", " +", " -", "+5"])
            ),
            4 => format!("{} 5", pick(rng, &["X", "c", "CC", "RW", "#C", "+"])),
            5 => format!(
                "{}{}",
                kind as char,
                pick(
                    rng,
                    &[
                        "\u{a0}5",
                        "\u{3000}5",
                        "\r5",
                        "\x0B7",
                        " 0x10",
                        " ++1",
                        " 1 2"
                    ]
                )
            ),
            6 => format!("{}{valid}", pick(rng, &["\u{a0}", "\u{3000}", "\u{85}"])),
            7 => format!("{valid}{}", pick(rng, &["\u{a0}", "\u{3000}", "\u{2028}"])),
            _ => valid,
        };
        let mut bytes = text.into_bytes();
        if rng.chance(0.03) {
            // Invalid UTF-8, in an op line or in a comment.
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.insert(at, b"\xff\xc3\x80"[rng.below(3) as usize]);
            if rng.chance(0.5) {
                bytes.insert(0, b'#');
            }
        }
        bytes
    }

    /// A trace of `lines` lines, `\n` or `\r\n` terminated, the last one
    /// sometimes without a terminator.
    fn trace(rng: &mut Rng, lines: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..lines {
            out.extend(line(rng));
            if i + 1 < lines || rng.chance(0.7) {
                out.extend_from_slice(if rng.chance(0.3) { b"\r\n" } else { b"\n" });
            }
        }
        out
    }

    /// What `load` must return: the oracle, line by line, with the one
    /// documented change. A comment may hold any bytes, and any other
    /// line holding a non-ASCII byte is an error (the oracle instead
    /// failed on invalid UTF-8 and skipped Unicode whitespace). For a
    /// non-ASCII error only the line number is given.
    fn expected(bytes: &[u8]) -> Result<Vec<Op>, (usize, Option<String>)> {
        let ascii_space = |b: &u8| b.is_ascii() && char::from(*b).is_whitespace();
        let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if lines.last() == Some(&&b""[..]) {
            lines.pop();
        }
        let mut ops = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let first = line.iter().find(|b| !ascii_space(b));
            if first == Some(&b'#') {
                continue;
            }
            if !line.is_ascii() {
                return Err((i + 1, None));
            }
            let text = std::str::from_utf8(line).unwrap();
            match oracle::parse_line(text) {
                Ok(op) => ops.extend(op),
                Err(e) => return Err((i + 1, Some(format!("line {}: {e}", i + 1)))),
            }
        }
        Ok(ops)
    }

    fn assert_matches(
        got: &Result<Vec<Op>, String>,
        want: &Result<Vec<Op>, (usize, Option<String>)>,
        what: &str,
    ) {
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{what}"),
            (Err(got), Err((_, Some(want)))) => assert_eq!(got, want, "{what}"),
            (Err(got), Err((line, None))) => assert!(
                got.starts_with(&format!("line {line}: non-ASCII byte")),
                "{what}: {got} (want a non-ASCII error on line {line})"
            ),
            _ => panic!("{what}: got {got:?}, want {want:?}"),
        }
    }

    /// The byte parser against the `str` oracle, on seeded traces of
    /// valid lines and mutations, read whole and 1–7 bytes at a time.
    #[test]
    fn load_matches_the_str_oracle() {
        let mut non_ascii = 0;
        for case in 0..3000u64 {
            let seed = 0x7ACE_0000 + case;
            let mut rng = Rng::seeded(seed);
            let lines = rng.range(0, 12);
            let bytes = trace(&mut rng, lines);
            let want = expected(&bytes);
            let what = format!(
                "seed {seed:#x}, trace {:?}",
                String::from_utf8_lossy(&bytes)
            );
            assert_matches(&load(&bytes[..]), &want, &what);
            let trickle = Trickle {
                bytes: &bytes,
                rng: Rng::seeded(seed),
            };
            assert_matches(
                &load(trickle),
                &want,
                &format!("{what}, read 1-7 bytes at a time"),
            );
            if bytes.is_ascii() {
                assert_eq!(load(&bytes[..]), oracle::load(&bytes[..]), "{what}");
            } else {
                non_ascii += 1;
            }
        }
        assert!(non_ascii > 300, "only {non_ascii} non-ASCII traces");
    }

    /// Traces larger than the read window: lines straddle each 64 KiB
    /// boundary, and an error past the first window keeps its line number.
    #[test]
    fn load_matches_the_str_oracle_across_windows() {
        for seed in 0..4u64 {
            let mut rng = Rng::seeded(0x1A46_E000 + seed);
            let mut bytes = Vec::new();
            while bytes.len() < 3 * WINDOW + 100 {
                let text = trace(&mut rng, 1);
                if text.ends_with(b"\n") && text.is_ascii() && expected(&text).is_ok() {
                    bytes.extend(text);
                }
            }
            if seed % 2 == 1 {
                bytes.extend_from_slice(b"R 1\nC nope\n");
            }
            let what = format!("seed {seed}");
            let want = oracle::load(&bytes[..]);
            assert_eq!(want.is_err(), seed % 2 == 1, "{what}");
            assert_eq!(load(&bytes[..]), want, "{what}");
            let trickle = Trickle {
                bytes: &bytes,
                rng: Rng::seeded(seed),
            };
            assert_eq!(load(trickle), want, "{what}, read 1-7 bytes at a time");
        }
    }

    /// A dropped replay stream's memory takes the next trace loaded on
    /// the thread, with none of its old ops.
    #[test]
    fn load_refills_the_memory_of_a_dropped_replay_stream() {
        let long = load(dump((0..5000).map(Op::Read)).as_bytes()).unwrap();
        let memory = long.as_ptr();
        drop(into_stream(long));
        let short = load(&b"C 3\nB 0\n"[..]).unwrap();
        assert_eq!(short, [Op::Compute(3), Op::Barrier(0)]);
        assert_eq!(short.as_ptr(), memory);
    }

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

    /// Each contract violation, named by processor and op index; deep
    /// lock nesting is accepted in linear time.
    #[test]
    fn check_contract_names_each_violation() {
        use Op::{Acquire as A, Barrier as B, Compute as C, Release as L};
        let at = |traces: &[Vec<Op>]| check_contract(traces).map_err(|e| (e.proc, e.op));
        assert_eq!(at(&[vec![C(1), B(0)], vec![B(0)]]), Ok(()));
        assert_eq!(at(&[vec![B(0), B(1)], vec![B(1), B(0)]]), Err((1, 0)));
        assert_eq!(at(&[vec![B(0)], vec![C(1)]]), Err((1, 1)));
        assert_eq!(at(&[vec![A(1), A(2), L(1), L(2)]]), Err((0, 2)));
        assert_eq!(at(&[vec![C(1), L(3)]]), Err((0, 1)));
        assert_eq!(at(&[vec![A(1), B(0), L(1)], vec![B(0)]]), Err((0, 1)));
        assert_eq!(at(&[vec![C(1), A(1)]]), Err((0, 1)));
        assert_eq!(at(&[vec![A(1), A(1), L(1), L(1)]]), Err((0, 1)));
        let cycle = [vec![A(1), A(2), L(2), L(1)], vec![A(2), A(1), L(1), L(2)]];
        assert_eq!(at(&cycle), Err((1, 1)));
        let depth = 200_000;
        let nested: Vec<Op> = (0..depth).map(A).chain((0..depth).rev().map(L)).collect();
        assert_eq!(at(&[nested]), Ok(()));
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
