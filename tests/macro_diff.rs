//! Macro/scalar differential guard.
//!
//! The op streams are generated as *macro-ops* (scalar ops and loop
//! nests) and the engine retires them through batched fast paths. Both
//! layers claim exact equivalence with the scalar op stream: expanding
//! every macro and feeding the engine one `Op` at a time must produce a
//! bit-identical `RunReport`. `OpStream::scalarized` performs exactly
//! that expansion, so running every app both ways and comparing digests
//! pins the whole macro layer — generator emission, stream cursoring,
//! and the engine's nest retirement — against the scalar oracle.

use netcache::apps::gen::chunked;
use netcache::apps::{AppId, Nest, OpStream, Workload};
use netcache::mem::addr::SHARED_BASE;
use netcache::mem::AddressMap;
use netcache::{run_streams, Arch, EngineScratch, RunReport, SysConfig};

/// Runs `streams()` as built and scalarized on `cfg`, compares the two
/// reports' digests, and returns the report of the streams as built.
fn diff_streams(cfg: &SysConfig, what: &str, streams: impl Fn() -> Vec<OpStream>) -> RunReport {
    let macro_report = run_streams(cfg, streams(), &mut EngineScratch::new());
    let scalar_streams = streams().into_iter().map(|s| s.scalarized()).collect();
    let scalar_report = run_streams(cfg, scalar_streams, &mut EngineScratch::new());
    assert_eq!(
        macro_report.digest(),
        scalar_report.digest(),
        "{:?}/{what}/n{}: macro and scalarized streams diverged\n\
         macro:  {:#?}\nscalar: {:#?}",
        cfg.arch,
        cfg.nodes,
        macro_report,
        scalar_report,
    );
    macro_report
}

fn diff_cell(arch: Arch, app: AppId, nodes: usize, scale: f64) {
    let cfg = SysConfig::base(arch).with_nodes(nodes);
    let wl = Workload::new(app, nodes).scale(scale);
    let map = AddressMap::new(cfg.nodes, cfg.l2.block_bytes);
    let what = format!("{}/s{scale}", app.name());
    diff_streams(&cfg, &what, || wl.streams(&map));
}

/// Per processor, one phase per loop shape no app emits, each as a
/// one-slot nest, then a barrier so every write buffer drains.
fn one_slot_streams(nodes: usize) -> Vec<OpStream> {
    (0..nodes as u64)
        .map(|p| {
            let base = SHARED_BASE + p * (64 << 10);
            chunked(move |phase, c| {
                let nest = match phase {
                    // 30,000 paced cycles: crosses the 20,000-cycle slice.
                    0 => *Nest::new(3_000).compute(10),
                    1 => *Nest::new(100).read(base, 0),
                    // Reads of a block just written forward from the
                    // write buffer.
                    2 => {
                        c.write_at(base + 0x1000);
                        *Nest::new(16).read(base + 0x1000, 4)
                    }
                    // The second read evicts the first block from the
                    // direct-mapped 4 KB L1 but not from the 16 KB L2.
                    3 => {
                        c.read_at(base + 0x2000);
                        c.read_at(base + 0x3000);
                        *Nest::new(16).read(base + 0x2000, 4)
                    }
                    // Writes to 20 distinct blocks: the 16-entry buffer
                    // fills and the writer stalls.
                    4 => *Nest::new(20).write(base + 0x4000, 64),
                    _ => {
                        c.barrier(0);
                        return false;
                    }
                };
                c.nest(nest);
                true
            })
        })
        .collect()
}

/// Loop shapes no app emits, through the nest path: a compute-only
/// nest, a stride-0 read, write-buffer forwards, L2 hits that refill
/// the L1, and a write loop that stalls on a full buffer.
#[test]
fn one_slot_nests_match_scalar() {
    for arch in [Arch::NetCache, Arch::DmonI] {
        for nodes in [2, 4] {
            let cfg = SysConfig::base(arch).with_nodes(nodes);
            let r = diff_streams(&cfg, "one-slot nests", || one_slot_streams(nodes));
            // Every shape took place on every processor: the slice-long
            // compute, the forwards, the L2 hits and the full buffer.
            for n in &r.nodes {
                let forwarded = n.wb_forwards >= 16 && n.l2_hits >= 2;
                let stalled = n.busy > 30_000 && n.wb_stall > 0;
                assert!(forwarded && stalled, "{arch:?}: missing shape {n:#?}");
            }
        }
    }
}

/// Every app on the paper's base architecture, two scales, 4 nodes.
#[test]
fn all_apps_netcache_macro_matches_scalar() {
    for app in AppId::ALL {
        for scale in [0.02, 0.05] {
            diff_cell(Arch::NetCache, app, 4, scale);
        }
    }
}

/// Cross-check on an invalidate protocol (different elision policy and
/// sharing behaviour exercises the bail paths differently).
#[test]
fn all_apps_dmon_i_macro_matches_scalar() {
    for app in AppId::ALL {
        for scale in [0.02, 0.05] {
            diff_cell(Arch::DmonI, app, 4, scale);
        }
    }
}
