//! Macro/scalar differential guard.
//!
//! The op streams are generated as *macro-ops* (affine runs and loop
//! nests) and the engine retires them through batched fast paths. Both
//! layers claim exact equivalence with the scalar op stream: expanding
//! every macro and feeding the engine one `Op` at a time must produce a
//! bit-identical `RunReport`. `OpStream::scalarized` performs exactly
//! that expansion, so running every app both ways and comparing digests
//! pins the whole macro layer — generator emission, stream cursoring,
//! and the engine's run/nest retirement — against the scalar oracle.

use netcache::apps::{AppId, Workload};
use netcache::mem::AddressMap;
use netcache::{run_streams, Arch, EngineScratch, SysConfig};

fn diff_cell(arch: Arch, app: AppId, nodes: usize, scale: f64) {
    let cfg = SysConfig::base(arch).with_nodes(nodes);
    let wl = Workload::new(app, nodes).scale(scale);
    let map = AddressMap::new(cfg.nodes, cfg.l2.block_bytes);
    let macro_report = run_streams(&cfg, wl.streams(&map), &mut EngineScratch::new());
    let scalar_streams = wl
        .streams(&map)
        .into_iter()
        .map(|s| s.scalarized())
        .collect();
    let scalar_report = run_streams(&cfg, scalar_streams, &mut EngineScratch::new());
    assert_eq!(
        macro_report.digest(),
        scalar_report.digest(),
        "{:?}/{}/n{}/s{}: macro and scalarized streams diverged\n\
         macro:  {:#?}\nscalar: {:#?}",
        arch,
        app.name(),
        nodes,
        scale,
        macro_report,
        scalar_report,
    );
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
