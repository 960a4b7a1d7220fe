//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into the
//! simulator's public functions; nothing inside the simulator is
//! instrumented. They are kept in memory and written, if asked, as one
//! Chrome trace-event JSON file when the benchmark ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Index of the grid cell the span worked on, if any.
    pub cell: Option<usize>,
    /// Small per-thread number (Chrome's `tid`).
    pub tid: u64,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Work counted at the same boundary (events, ops, lines, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that has not
    /// ended yet.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        cell: Option<usize>,
        start: u64,
        end: u64,
        counts: Vec<(&'static str, u64)>,
    ) {
        let span = Span {
            id,
            parent,
            name,
            cell,
            tid: TID.with(|t| *t),
            start,
            end,
            counts,
        };
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
    }

    /// Times `f` as a child span of `parent`; `f` receives the new span's
    /// id (for grandchildren) and returns its counts with its value.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        cell: Option<usize>,
        f: impl FnOnce(u64) -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        let id = self.reserve();
        let start = self.now();
        let (out, counts) = f(id);
        self.record(id, name, Some(parent), cell, start, self.now(), counts);
        out
    }

    /// Takes every span recorded since the last call.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a span writer panicked"))
    }
}

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children (children on parallel workers overlap).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
pub fn chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let mut args = format!(
            "\"id\": {}, \"self_us\": {}",
            s.id,
            selfs[&s.id] as f64 / 1e3
        );
        if let Some(p) = s.parent {
            let _ = write!(args, ", \"parent\": {p}");
        }
        if let Some(c) = s.cell {
            let _ = write!(args, ", \"cell\": {c}");
        }
        for (k, v) in &s.counts {
            let _ = write!(args, ", \"{k}\": {v}");
        }
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{{args}}}}}{}",
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            cell: None,
            tid: 1,
            start,
            end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70), // overlaps 2 (a parallel worker)
            span(4, Some(2), 20, 30),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 60);
        assert_eq!(selfs[&2], 40 - 10);
        assert_eq!(selfs[&3], 40);
        assert_eq!(selfs[&4], 10);
        // Self times partition the root's interval when nothing overlaps.
        let serial = [span(1, None, 0, 10), span(2, Some(1), 2, 5)];
        let selfs = self_times(&serial);
        assert_eq!(selfs[&1] + selfs[&2], 10);
    }

    #[test]
    fn chrome_output_parses() {
        let mut s = span(1, None, 1_500, 9_000);
        s.counts.push(("events", 7));
        let doc = chrome_json(&[s, span(2, Some(1), 2_000, 3_000)]);
        let v = netcache_core::json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(|d| d.as_f64()), Some(7.5));
    }
}
