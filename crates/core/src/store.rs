//! Content-addressed, crash-safe, on-disk result store for the sweep
//! engine.
//!
//! Every engine pass so far made the grid cheaper to *simulate*; this
//! module makes it cheap to *not* simulate. A `sweep` or `figures`
//! invocation recomputes cells whose inputs have not changed
//! since the last run — the dominant cost of the day-to-day workflow
//! once the engine itself is event-bound. The store memoizes each cell
//! on disk, keyed by a digest of everything that could alter its
//! report, so re-runs touch only changed cells and interrupted sweeps
//! resume where they died (the same memoize-on-reference-locality
//! argument Jain's caching-schemes report makes for repeated reference
//! streams, applied to the simulator's own workload).
//!
//! ## Keying: what "content-addressed" means here
//!
//! A cell's key is an FNV-1a digest over
//!
//! * the **full machine configuration** — every field of [`SysConfig`]
//!   including the nested cache/memory/optics/ring parameters and the
//!   simulation seed;
//! * the **workload identity** — application, processor count, input
//!   scale, and the workload's own structural seed;
//! * the **engine version salt** [`ENGINE_SALT`] — bumped by hand
//!   whenever a code change could alter reports (a model revision, a
//!   golden-digest regeneration). Bumping it orphans every record at
//!   once, exactly like a cold cache.
//!
//! ## Records: self-describing and self-verifying
//!
//! Each report is one JSON document (via the in-tree strict RFC 8259
//! machinery in [`crate::json`]) named `<key>.json` under the store
//! directory. The record carries its format version, the engine salt it
//! was produced under, its own key, and — crucially — the FNV digest of
//! the serialized [`RunReport`] ([`RunReport::digest`], the same
//! fingerprint the golden suite pins). A record is served only if it
//! parses, its salt and key match, **and** the reconstructed report
//! re-hashes to the stored digest; anything else (truncation, garbage,
//! bit rot, stale salt) is a *miss*, counted as `invalidated`, and the
//! bad record is overwritten by the recomputed cell's write-back.
//! Integer fields round-trip exactly ([`crate::json::Value::Int`] spans
//! the full `u64` range) and `f64` statistics are stored as their IEEE
//! bit patterns, so a served report is byte-identical to the report
//! that was stored — verified against the golden-digest trust chain on
//! every load.
//!
//! ## Crash safety
//!
//! Write-back is per-cell: serialize to `<key>.json.tmp.<pid>`, then
//! [`std::fs::rename`] over the final name (atomic within a
//! directory). A sweep killed mid-grid therefore loses at most its
//! in-flight cells; the next run with the same store resumes from the
//! completed ones. Stale `.tmp.` files from crashed runs are swept on
//! [`Store::open`].

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use netcache_apps::Workload;

use crate::config::{Arch, SysConfig};
use crate::json::{self, Value};
use crate::metrics::{Fnv, NodeStats, RunReport};
use crate::proto::ProtoCounters;
use crate::ring::RingStats;
use crate::sweep::SweepPoint;

/// Engine version salt, folded into every cell key and stamped into
/// every record. **Bump this whenever a change could alter reports**
/// (any edit that would regenerate the golden digests); stale-salt
/// records are treated as invalidated misses and recomputed.
///
/// History: 1 → 2 with the topology refactor (records gained the
/// per-link `links` section and keys gained the topology axes).
pub const ENGINE_SALT: u64 = 2;

/// On-disk record layout version (the `"netcache_store"` field). Bump
/// on incompatible layout changes; old-version records are misses.
pub const FORMAT_VERSION: u64 = 1;

/// Why a lookup did not produce a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// No record on disk for this key — a cold cell.
    Absent,
    /// A record exists but cannot be decoded: truncated, garbage bytes,
    /// wrong layout version, or fields missing/mistyped.
    Corrupt,
    /// The record decodes but its report re-hashes to a different
    /// digest than it claims — the payload cannot be trusted.
    DigestMismatch,
    /// The record was produced under a different [`ENGINE_SALT`]: the
    /// engine has been revised since, so the result may be outdated.
    StaleSalt,
}

impl Miss {
    /// True for misses caused by a *present but unusable* record — the
    /// `invalidated` count in sweep summaries (absent cells are plain
    /// cold misses).
    pub fn is_invalidated(&self) -> bool {
        !matches!(self, Miss::Absent)
    }
}

/// Monotonic counters for one store handle's lifetime. Snapshot via
/// [`Store::stats`]; all counters are updated atomically so sweep
/// workers can share the handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from disk (verified records).
    pub hits: u64,
    /// Lookups with no record on disk.
    pub absent: u64,
    /// Lookups that found a record but rejected it (corrupt, digest
    /// mismatch, or stale salt).
    pub invalidated: u64,
    /// Write-backs that failed (serialization never fails; these are
    /// I/O errors — disk full, permissions racing). A failed write-back
    /// only costs a future recomputation, never correctness.
    pub write_errors: u64,
}

impl StoreStats {
    /// Total lookups that missed, for any reason.
    pub fn misses(&self) -> u64 {
        self.absent + self.invalidated
    }
}

/// A handle on one store directory. Cheap to share by reference across
/// sweep workers (`&Store` is `Sync`; all state is the path plus atomic
/// counters).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    hits: AtomicU64,
    absent: AtomicU64,
    invalidated: AtomicU64,
    write_errors: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) the store at `dir` and verifies it is
    /// writable — an unwritable store would silently degrade every run
    /// to cold, so it is an error up front. Sweeps stale `.tmp.` files
    /// left by crashed write-backs; records themselves are never
    /// touched here.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, String> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create store directory {}: {e}", dir.display()))?;
        // Probe writability with a scratch file, not metadata — mode
        // bits lie on some filesystems (and CI containers).
        let probe = dir.join(format!(".probe.{}", std::process::id()));
        fs::write(&probe, b"probe")
            .map_err(|e| format!("store directory {} is not writable: {e}", dir.display()))?;
        let _ = fs::remove_file(&probe);
        // Crash hygiene: a `.tmp.` file is an interrupted write-back —
        // its cell will be recomputed, so the partial bytes are dead
        // weight. (A concurrent writer's in-flight tmp may be swept too;
        // that costs it one future recomputation, never a bad record.)
        if let Ok(entries) = fs::read_dir(&dir) {
            for e in entries.flatten() {
                if e.file_name().to_string_lossy().contains(".json.tmp.") {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
        Ok(Store {
            dir,
            hits: AtomicU64::new(0),
            absent: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            absent: self.absent.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// The record path for a key (exposed for tests and tooling that
    /// corrupt/inspect records deliberately).
    pub fn record_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Looks up a verified report by key, updating the hit/miss
    /// counters. Every failure mode is a [`Miss`] — a store can slow a
    /// sweep down (recompute), never crash it or poison it.
    pub fn load(&self, key: u64) -> Result<RunReport, Miss> {
        let miss = |m: Miss| {
            if m.is_invalidated() {
                self.invalidated.fetch_add(1, Ordering::Relaxed);
            } else {
                self.absent.fetch_add(1, Ordering::Relaxed);
            }
            Err(m)
        };
        let text = match fs::read_to_string(self.record_path(key)) {
            Ok(t) => t,
            Err(e) if e.kind() == ErrorKind::NotFound => return miss(Miss::Absent),
            // Unreadable-but-present (permissions, I/O error) is an
            // unusable record, not a cold cell.
            Err(_) => return miss(Miss::Corrupt),
        };
        match decode_record(&text, key) {
            Ok(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(report)
            }
            Err(m) => miss(m),
        }
    }

    /// Consults the store for one sweep cell.
    pub fn load_point(&self, point: &SweepPoint) -> Result<RunReport, Miss> {
        self.load(point_key(point))
    }

    /// Writes one cell's report back, atomically: serialize to a
    /// `.tmp.<pid>` sibling, then rename over `<key>.json`. Overwrites
    /// whatever was there (including a record just rejected as corrupt
    /// or stale — write-back is how bad records heal). I/O failures are
    /// counted, not raised: a store must never abort a sweep.
    pub fn save(&self, key: u64, label: &str, wl: &Workload, report: &RunReport) {
        let doc = encode_record(key, label, wl, report);
        let final_path = self.record_path(key);
        let tmp = self
            .dir
            .join(format!("{key:016x}.json.tmp.{}", std::process::id()));
        let ok = fs::write(&tmp, doc).is_ok() && fs::rename(&tmp, &final_path).is_ok();
        if !ok {
            let _ = fs::remove_file(&tmp);
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`Store::save`] for a sweep cell.
    pub fn save_point(&self, point: &SweepPoint, report: &RunReport) {
        self.save(point_key(point), &point.label, &point.workload(), report);
    }
}

/// The content key of a `(machine config, workload)` pair: FNV-1a over
/// the engine salt and every input that could alter the report. See the
/// module docs for the keying contract.
pub fn cell_key(cfg: &SysConfig, wl: &Workload) -> u64 {
    let mut h = Fnv::new();
    h.put(ENGINE_SALT);
    h.put_str(cfg.arch.name());
    h.put(cfg.nodes as u64);
    for c in [&cfg.l1, &cfg.l2] {
        h.put(c.size_bytes);
        h.put(c.block_bytes);
        // Associativity, 1 for a direct-mapped cache: hashing it keeps
        // keys equal to those of stores written when it was a field.
        h.put(1);
    }
    h.put(cfg.l2_hit_latency);
    h.put(cfg.wb_entries as u64);
    h.put(cfg.mem.read_latency);
    h.put(cfg.mem.read_occupancy);
    h.put(cfg.mem.write_occupancy_per_word);
    h.put(cfg.mem.writeback_occupancy);
    h.put(cfg.mem.hysteresis);
    h.put(cfg.optics.rate_gbps.to_bits());
    h.put(cfg.optics.tuning_delay);
    h.put(cfg.optics.flight);
    h.put(cfg.ring.channels as u64);
    h.put(cfg.ring.frames_per_channel as u64);
    h.put(cfg.ring.roundtrip);
    h.put_str(cfg.ring.replacement.name());
    h.put(matches!(cfg.ring.assoc, crate::config::ChannelAssoc::Direct) as u64);
    h.put(cfg.ring.block_bytes);
    h.put(cfg.ring.dual_path_reads as u64);
    h.put(cfg.ring.race_window as u64);
    h.put_str(cfg.topo.kind.name());
    h.put(cfg.topo.rings as u64);
    h.put(cfg.seed);
    h.put_str(wl.app.name());
    h.put(wl.procs as u64);
    h.put(wl.scale.to_bits());
    h.put(wl.seed);
    h.finish()
}

/// [`cell_key`] for a sweep cell.
pub fn point_key(point: &SweepPoint) -> u64 {
    cell_key(&point.cfg, &point.workload())
}

// ---------------------------------------------------------------------
// Record encode/decode
//
// One JSON object per record. All counters are unsigned integers
// (exact through the parser's `Value::Int`); the two mean-wait floats
// are stored as IEEE-754 bit patterns so the reconstructed report is
// byte-identical to the stored one. Field order is fixed so records
// are diffable, but the decoder looks fields up by name.

/// Per-node stat fields, in record (and digest) order.
const NODE_FIELDS: usize = 17;

fn node_row(n: &NodeStats) -> [u64; NODE_FIELDS] {
    [
        n.busy,
        n.read_stall,
        n.wb_stall,
        n.sync_stall,
        n.reads,
        n.writes,
        n.l1_hits,
        n.l2_hits,
        n.wb_forwards,
        n.local_mem_reads,
        n.remote_mem_reads,
        n.shared_hits,
        n.shared_coalesced,
        n.forwarded_reads,
        n.shared_read_stall,
        n.shared_reads,
        n.finish,
    ]
}

fn node_from_row(row: &[u64; NODE_FIELDS]) -> NodeStats {
    NodeStats {
        busy: row[0],
        read_stall: row[1],
        wb_stall: row[2],
        sync_stall: row[3],
        reads: row[4],
        writes: row[5],
        l1_hits: row[6],
        l2_hits: row[7],
        wb_forwards: row[8],
        local_mem_reads: row[9],
        remote_mem_reads: row[10],
        shared_hits: row[11],
        shared_coalesced: row[12],
        forwarded_reads: row[13],
        shared_read_stall: row[14],
        shared_reads: row[15],
        finish: row[16],
    }
}

fn push_u64_row(out: &mut String, row: &[u64]) {
    out.push('[');
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn encode_record(key: u64, label: &str, wl: &Workload, report: &RunReport) -> String {
    let mut out = String::with_capacity(1024 + report.nodes.len() * 256);
    out.push_str(&format!(
        "{{\n  \"netcache_store\": {FORMAT_VERSION},\n  \"engine_salt\": {ENGINE_SALT},\n  \
         \"key\": {key},\n  \"label\": \"{}\",\n  \"app\": \"{}\",\n  \"procs\": {},\n  \
         \"scale_bits\": {},\n  \"workload_seed\": {},\n  \"report_digest\": {},\n  \
         \"arch\": \"{}\",\n  \"cycles\": {},\n  \"events\": {},\n  \"ops\": {},\n  \
         \"elided_ops\": {},\n  \"wall_ns\": {},\n",
        json::escape(label),
        json::escape(wl.app.name()),
        wl.procs,
        wl.scale.to_bits(),
        wl.seed,
        report.digest(),
        json::escape(report.arch),
        report.cycles,
        report.events,
        report.ops,
        report.elided_ops,
        report.wall_ns,
    ));
    out.push_str("  \"nodes\": [\n");
    for (i, n) in report.nodes.iter().enumerate() {
        out.push_str("    ");
        push_u64_row(&mut out, &node_row(n));
        out.push_str(if i + 1 < report.nodes.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"proto\": ");
    let p = &report.proto;
    push_u64_row(
        &mut out,
        &[
            p.updates,
            p.invalidations,
            p.local_writes,
            p.writebacks,
            p.forwards,
            p.write_fetches,
            p.sync_msgs,
            p.remote_l2_refreshes,
            p.remote_l1_invalidates,
        ],
    );
    match &report.ring {
        Some(r) => {
            out.push_str(",\n  \"ring\": ");
            push_u64_row(
                &mut out,
                &[
                    r.hits,
                    r.coalesced,
                    r.misses,
                    r.inserts,
                    r.replacements,
                    r.updates_applied,
                    r.window_delays,
                    r.orphans_dropped,
                ],
            );
        }
        None => out.push_str(",\n  \"ring\": null"),
    }
    out.push_str(",\n  \"channels\": [\n");
    for (i, (name, served, busy, wait)) in report.channels.iter().enumerate() {
        out.push_str(&format!(
            "    [\"{}\", {served}, {busy}, {}]{}\n",
            json::escape(name),
            wait.to_bits(),
            if i + 1 < report.channels.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n  \"links\": [\n");
    for (i, (name, frames, busy)) in report.links.iter().enumerate() {
        out.push_str(&format!(
            "    [\"{}\", {frames}, {busy}]{}\n",
            json::escape(name),
            if i + 1 < report.links.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"memories\": [\n");
    for (i, (reads, busy, wait)) in report.memories.iter().enumerate() {
        out.push_str(&format!(
            "    [{reads}, {busy}, {}]{}\n",
            wait.to_bits(),
            if i + 1 < report.memories.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Field access helpers: every failure collapses to `Miss::Corrupt` —
/// a record either decodes completely or is recomputed.
fn req_u64(v: &Value, key: &str) -> Result<u64, Miss> {
    v.get(key).and_then(Value::as_u64).ok_or(Miss::Corrupt)
}

fn u64_row<const N: usize>(v: &Value) -> Result<[u64; N], Miss> {
    let items = v.as_arr().ok_or(Miss::Corrupt)?;
    if items.len() != N {
        return Err(Miss::Corrupt);
    }
    let mut row = [0u64; N];
    for (slot, item) in row.iter_mut().zip(items) {
        *slot = item.as_u64().ok_or(Miss::Corrupt)?;
    }
    Ok(row)
}

/// Maps a stored architecture name back to its `&'static str` (the
/// report field borrows from the arch table). Unknown names are
/// corrupt records, not panics.
fn arch_static(name: &str) -> Result<&'static str, Miss> {
    Arch::ALL
        .iter()
        .map(|a| a.name())
        .find(|n| *n == name)
        .ok_or(Miss::Corrupt)
}

fn decode_record(text: &str, want_key: u64) -> Result<RunReport, Miss> {
    let doc = json::parse(text).map_err(|_| Miss::Corrupt)?;
    if req_u64(&doc, "netcache_store")? != FORMAT_VERSION {
        return Err(Miss::Corrupt);
    }
    // Salt before key: a stale record is *outdated*, not damaged, and
    // the distinction is what the `invalidated` diagnostics report.
    if req_u64(&doc, "engine_salt")? != ENGINE_SALT {
        return Err(Miss::StaleSalt);
    }
    if req_u64(&doc, "key")? != want_key {
        return Err(Miss::Corrupt);
    }
    let arch = arch_static(
        doc.get("arch")
            .and_then(Value::as_str)
            .ok_or(Miss::Corrupt)?,
    )?;
    let nodes = doc
        .get("nodes")
        .and_then(Value::as_arr)
        .ok_or(Miss::Corrupt)?
        .iter()
        .map(|row| Ok(node_from_row(&u64_row::<NODE_FIELDS>(row)?)))
        .collect::<Result<Vec<_>, Miss>>()?;
    let p = u64_row::<9>(doc.get("proto").ok_or(Miss::Corrupt)?)?;
    let proto = ProtoCounters {
        updates: p[0],
        invalidations: p[1],
        local_writes: p[2],
        writebacks: p[3],
        forwards: p[4],
        write_fetches: p[5],
        sync_msgs: p[6],
        remote_l2_refreshes: p[7],
        remote_l1_invalidates: p[8],
    };
    let ring = match doc.get("ring").ok_or(Miss::Corrupt)? {
        Value::Null => None,
        v => {
            let r = u64_row::<8>(v)?;
            Some(RingStats {
                hits: r[0],
                coalesced: r[1],
                misses: r[2],
                inserts: r[3],
                replacements: r[4],
                updates_applied: r[5],
                window_delays: r[6],
                orphans_dropped: r[7],
            })
        }
    };
    let channels = doc
        .get("channels")
        .and_then(Value::as_arr)
        .ok_or(Miss::Corrupt)?
        .iter()
        .map(|row| {
            let items = row.as_arr().ok_or(Miss::Corrupt)?;
            let [name, served, busy, wait] = items else {
                return Err(Miss::Corrupt);
            };
            Ok((
                name.as_str().ok_or(Miss::Corrupt)?.to_string(),
                served.as_u64().ok_or(Miss::Corrupt)?,
                busy.as_u64().ok_or(Miss::Corrupt)?,
                f64::from_bits(wait.as_u64().ok_or(Miss::Corrupt)?),
            ))
        })
        .collect::<Result<Vec<_>, Miss>>()?;
    let links = doc
        .get("links")
        .and_then(Value::as_arr)
        .ok_or(Miss::Corrupt)?
        .iter()
        .map(|row| {
            let items = row.as_arr().ok_or(Miss::Corrupt)?;
            let [name, frames, busy] = items else {
                return Err(Miss::Corrupt);
            };
            Ok((
                name.as_str().ok_or(Miss::Corrupt)?.to_string(),
                frames.as_u64().ok_or(Miss::Corrupt)?,
                busy.as_u64().ok_or(Miss::Corrupt)?,
            ))
        })
        .collect::<Result<Vec<_>, Miss>>()?;
    let memories = doc
        .get("memories")
        .and_then(Value::as_arr)
        .ok_or(Miss::Corrupt)?
        .iter()
        .map(|row| {
            let r = u64_row::<3>(row)?;
            Ok((r[0], r[1], f64::from_bits(r[2])))
        })
        .collect::<Result<Vec<_>, Miss>>()?;
    let report = RunReport {
        arch,
        cycles: req_u64(&doc, "cycles")?,
        nodes,
        proto,
        ring,
        events: req_u64(&doc, "events")?,
        ops: req_u64(&doc, "ops")?,
        elided_ops: req_u64(&doc, "elided_ops")?,
        channels,
        links,
        memories,
        wall_ns: req_u64(&doc, "wall_ns")?,
    };
    // The trust chain: the reconstructed report must re-hash to the
    // digest the producer stamped. This catches single-bit edits to any
    // digest-relevant field that still parse as valid JSON.
    if report.digest() != req_u64(&doc, "report_digest")? {
        return Err(Miss::DigestMismatch);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Arch, SysConfig};
    use netcache_apps::AppId;

    /// A unique scratch directory per test (std has no tempdir; the
    /// workspace is dependency-free).
    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("netcache-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_point() -> SweepPoint {
        let cfg = SysConfig::base(Arch::NetCache).with_nodes(2);
        SweepPoint::new(cfg, AppId::Fft, 0.01)
    }

    #[test]
    fn round_trip_serves_a_bit_identical_report() {
        let dir = scratch("roundtrip");
        let store = Store::open(&dir).unwrap();
        let p = small_point();
        let report = p.run();
        store.save_point(&p, &report);
        let served = store.load_point(&p).expect("record just written");
        assert_eq!(served, report, "served report must be bit-identical");
        assert_eq!(served.digest(), report.digest());
        // wall_ns is excluded from PartialEq but stored verbatim too.
        assert_eq!(served.wall_ns, report.wall_ns);
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                ..Default::default()
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_record_is_a_plain_cold_miss() {
        let dir = scratch("absent");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.load(0xDEAD), Err(Miss::Absent));
        assert!(!Miss::Absent.is_invalidated());
        assert_eq!(store.stats().absent, 1);
        assert_eq!(store.stats().invalidated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The corruption matrix: truncated record, garbage bytes, a
    /// digest-relevant field edit, and a stale version salt must each
    /// be a miss (never served, never a crash) and each heal on
    /// write-back.
    #[test]
    fn corruption_matrix_every_bad_record_is_a_miss_and_heals() {
        let p = small_point();
        let report = p.run();
        let key = point_key(&p);
        type Mutator<'a> = &'a dyn Fn(&str) -> String;
        let cases: [(&str, Mutator, Miss); 4] = [
            (
                "truncated",
                &|good: &str| good[..good.len() / 2].to_string(),
                Miss::Corrupt,
            ),
            (
                "garbage",
                &|_: &str| "not json at all \u{1}\u{2}".to_string(),
                Miss::Corrupt,
            ),
            (
                "field-edit",
                &|good: &str| {
                    // Bump a digest-relevant counter; the record still
                    // parses, but re-hashing exposes the edit.
                    let needle = format!("\"cycles\": {}", report.cycles);
                    assert!(good.contains(&needle), "fixture drifted");
                    good.replace(&needle, &format!("\"cycles\": {}", report.cycles + 1))
                },
                Miss::DigestMismatch,
            ),
            (
                "stale-salt",
                &|good: &str| {
                    good.replace(
                        &format!("\"engine_salt\": {ENGINE_SALT}"),
                        &format!("\"engine_salt\": {}", ENGINE_SALT + 999),
                    )
                },
                Miss::StaleSalt,
            ),
        ];
        for (tag, mutate, want) in cases {
            let dir = scratch(&format!("corrupt-{tag}"));
            let store = Store::open(&dir).unwrap();
            store.save_point(&p, &report);
            let good = fs::read_to_string(store.record_path(key)).unwrap();
            fs::write(store.record_path(key), mutate(&good)).unwrap();
            let got = store.load_point(&p);
            assert_eq!(got, Err(want), "case {tag}");
            assert!(want.is_invalidated(), "case {tag}");
            assert_eq!(store.stats().invalidated, 1, "case {tag}");
            // Write-back overwrites the bad record in place…
            store.save_point(&p, &report);
            // …after which the record serves again, bit-identically.
            assert_eq!(
                store.load_point(&p).as_ref(),
                Ok(&report),
                "case {tag} did not heal"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn wrong_key_in_record_body_is_corrupt() {
        let dir = scratch("wrongkey");
        let store = Store::open(&dir).unwrap();
        let p = small_point();
        let report = p.run();
        store.save_point(&p, &report);
        // Copy the (valid) record under a different key's name — a
        // renamed/aliased record must not be served for the new key.
        let other_key = point_key(&p) ^ 0xFFFF;
        fs::copy(
            store.record_path(point_key(&p)),
            store.record_path(other_key),
        )
        .unwrap();
        assert_eq!(store.load(other_key), Err(Miss::Corrupt));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_content_addressed() {
        let base = SysConfig::base(Arch::NetCache).with_nodes(4);
        let wl = |app, procs, scale: f64| Workload::new(app, procs).scale(scale);
        let k0 = cell_key(&base, &wl(AppId::Sor, 4, 0.02));
        // Same inputs, same key (stable across calls).
        assert_eq!(k0, cell_key(&base, &wl(AppId::Sor, 4, 0.02)));
        // Every input axis separates keys.
        assert_ne!(k0, cell_key(&base, &wl(AppId::Fft, 4, 0.02)), "app");
        assert_ne!(k0, cell_key(&base, &wl(AppId::Sor, 4, 0.03)), "scale");
        let other_arch = SysConfig::base(Arch::DmonI).with_nodes(4);
        assert_ne!(k0, cell_key(&other_arch, &wl(AppId::Sor, 4, 0.02)), "arch");
        let more_nodes = SysConfig::base(Arch::NetCache).with_nodes(8);
        assert_ne!(k0, cell_key(&more_nodes, &wl(AppId::Sor, 8, 0.02)), "nodes");
        let bigger_l2 = base.with_l2_kb(64);
        assert_ne!(k0, cell_key(&bigger_l2, &wl(AppId::Sor, 4, 0.02)), "l2");
        let bigger_ring = base.with_ring_kb(64);
        assert_ne!(k0, cell_key(&bigger_ring, &wl(AppId::Sor, 4, 0.02)), "ring");
        let slower_mem = base.with_mem_latency(108);
        assert_ne!(k0, cell_key(&slower_mem, &wl(AppId::Sor, 4, 0.02)), "mem");
        let mut other_seed = base;
        other_seed.seed = 0x1234;
        assert_ne!(
            k0,
            cell_key(&other_seed, &wl(AppId::Sor, 4, 0.02)),
            "sim seed"
        );
        // Topology axes: kind and ring count both enter the key, so a
        // multi-ring or clustered run never aliases a single-ring cell.
        let multi = base.with_topology(crate::config::TopoKind::MultiRing);
        assert_ne!(k0, cell_key(&multi, &wl(AppId::Sor, 4, 0.02)), "topo kind");
        let striped = multi.with_rings(2);
        assert_ne!(
            cell_key(&multi, &wl(AppId::Sor, 4, 0.02)),
            cell_key(&striped, &wl(AppId::Sor, 4, 0.02)),
            "ring count"
        );
    }

    #[test]
    fn base_machine_key_is_pinned() {
        // Every stored record is addressed by this hash: a change to what
        // `cell_key` reads orphans them all, so it must be a deliberate
        // re-pin of this constant.
        let p = SweepPoint::new(SysConfig::base(Arch::NetCache), AppId::Sor, 0.1);
        assert_eq!(point_key(&p), 0x9108_7bf5_a76f_5e7c);
    }

    #[test]
    fn open_errors_name_the_directory() {
        // A file where the directory should be → named create error.
        let dir = scratch("notadir");
        fs::create_dir_all(&dir).unwrap();
        let file_path = dir.join("plain-file");
        fs::write(&file_path, b"x").unwrap();
        let err = Store::open(&file_path).unwrap_err();
        assert!(
            err.contains("plain-file"),
            "error must name the path: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files_only() {
        let dir = scratch("tmpsweep");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("aaaa.json.tmp.999");
        let record = dir.join("bbbb.json");
        fs::write(&stale, b"partial").unwrap();
        fs::write(&record, b"kept (even if invalid, load rejects it)").unwrap();
        let _store = Store::open(&dir).unwrap();
        assert!(!stale.exists(), "stale tmp file survived open");
        assert!(record.exists(), "real record must not be touched");
        let _ = fs::remove_dir_all(&dir);
    }
}
