//! Topology differential guard.
//!
//! The fabric is one `Fabric` struct (`netcache_core::topology`): nodes
//! per cluster, cache rings per cluster, and the hop flight. Its contract
//! is that the default `single` fabric is not merely *similar* to the
//! engine from before fabrics were configurable (commit c363f51) — it is
//! **bit-for-bit identical**: every hop latency equals that engine's
//! `optics.flight` arithmetic exactly, and the per-link accounting is
//! digest-excluded bookkeeping.
//!
//! Three guards pin that contract:
//!
//! 1. [`PRE_REFACTOR`] — full-report digests captured from that engine
//!    (12 apps × 3 protocol families at 8 nodes). These constants were
//!    produced by code that no longer exists; if the default ring
//!    drifts by one cycle anywhere, a digest here flips.
//! 2. Multi-ring with C=1 stripes every block to ring 0 over the same
//!    geometry, so it must equal the single ring as a full `RunReport`
//!    (including the per-link vector), not just as a digest.
//! 3. A star-of-rings whose node count fits one cluster (≤ 16) has no
//!    cross-cluster hops at all and must likewise collapse to the
//!    single ring, report-for-report.

use netcache::apps::{AppId, Workload};
use netcache::{run_app, Arch, SysConfig, TopoKind};

/// `RunReport::digest()` per `(arch, app)` at 8 nodes, scale 0.03,
/// captured from the pre-topology engine (commit c363f51). Do NOT
/// regenerate these from current code — their whole value is that they
/// came from the engine before the `Topology` trait existed.
const PRE_REFACTOR: &[(Arch, AppId, u64)] = &[
    (Arch::NetCache, AppId::Cg, 0xb3391fae6072ccd7),
    (Arch::NetCache, AppId::Em3d, 0xee03d5e5fd34a921),
    (Arch::NetCache, AppId::Fft, 0x226af80a414319dd),
    (Arch::NetCache, AppId::Gauss, 0xe7d3608d729d257a),
    (Arch::NetCache, AppId::Lu, 0x247bdd7d7be1b0a5),
    (Arch::NetCache, AppId::Mg, 0xe15939d20d65a8bd),
    (Arch::NetCache, AppId::Ocean, 0xc93aa59226bead62),
    (Arch::NetCache, AppId::Radix, 0x71fc4ac73492d646),
    (Arch::NetCache, AppId::Raytrace, 0x745c88c766c4cfbd),
    (Arch::NetCache, AppId::Sor, 0xc9be39c9562f391a),
    (Arch::NetCache, AppId::Water, 0xb937a7a2cd82bbb3),
    (Arch::NetCache, AppId::Wf, 0x2a6595f3f1a3da73),
    (Arch::LambdaNet, AppId::Cg, 0x6ee1f0364655f0a9),
    (Arch::LambdaNet, AppId::Em3d, 0x9e2f5ea38d5b0a63),
    (Arch::LambdaNet, AppId::Fft, 0xf54bf988cf124a7c),
    (Arch::LambdaNet, AppId::Gauss, 0x014bef7cbcbc7bf2),
    (Arch::LambdaNet, AppId::Lu, 0xb3ff402956ca442a),
    (Arch::LambdaNet, AppId::Mg, 0xc0be70a46dd658a9),
    (Arch::LambdaNet, AppId::Ocean, 0x15d4cfa6f6687ed5),
    (Arch::LambdaNet, AppId::Radix, 0x9b988c9dcd663ad1),
    (Arch::LambdaNet, AppId::Raytrace, 0x326c0afd8c4c5fc5),
    (Arch::LambdaNet, AppId::Sor, 0xf60c8a2bb467452d),
    (Arch::LambdaNet, AppId::Water, 0x08f4b3e244cef193),
    (Arch::LambdaNet, AppId::Wf, 0xb0e25aa7e51b44cd),
    (Arch::DmonI, AppId::Cg, 0x762ce3ea3be609ae),
    (Arch::DmonI, AppId::Em3d, 0x853f3899e08c4b5c),
    (Arch::DmonI, AppId::Fft, 0xdcf5c52493f44fe4),
    (Arch::DmonI, AppId::Gauss, 0x97de0f4b1e78394f),
    (Arch::DmonI, AppId::Lu, 0x2211d5b3e794afdf),
    (Arch::DmonI, AppId::Mg, 0x26c294a891df77f8),
    (Arch::DmonI, AppId::Ocean, 0x4750535ce7ebd6ce),
    (Arch::DmonI, AppId::Radix, 0xaa2fa352552d0412),
    (Arch::DmonI, AppId::Raytrace, 0x4f17730b326b03a1),
    (Arch::DmonI, AppId::Sor, 0x7aa24f876c869f8d),
    (Arch::DmonI, AppId::Water, 0x46bafa5072380648),
    (Arch::DmonI, AppId::Wf, 0x86ce000a088f4b79),
];

fn run_cell(arch: Arch, app: AppId, nodes: usize, scale: f64) -> netcache::RunReport {
    let cfg = SysConfig::base(arch).with_nodes(nodes);
    run_app(&cfg, &Workload::new(app, nodes).scale(scale))
}

fn run_topo(
    arch: Arch,
    app: AppId,
    nodes: usize,
    scale: f64,
    kind: TopoKind,
    rings: usize,
) -> netcache::RunReport {
    let cfg = SysConfig::base(arch)
        .with_nodes(nodes)
        .with_topology(kind)
        .with_rings(rings);
    cfg.validate().expect("topology cell must be valid");
    run_app(&cfg, &Workload::new(app, nodes).scale(scale))
}

/// Guard 1: the trait-dispatched default single ring reproduces the
/// pre-refactor engine bit-for-bit, across every app and three protocol
/// families (update-with-ring, update-broadcast, invalidate).
#[test]
fn default_ring_matches_pre_refactor_engine() {
    let mut bad = Vec::new();
    for &(arch, app, want) in PRE_REFACTOR {
        let got = run_cell(arch, app, 8, 0.03).digest();
        if got != want {
            bad.push(format!(
                "{:?}/{}: pre-refactor {:#018x}, trait-dispatched {:#018x}",
                arch,
                app.name(),
                want,
                got
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "Topology refactor changed default-ring behavior:\n{}",
        bad.join("\n")
    );
}

/// Guard 2: one stripe is no stripe. `multi-ring` with C=1 routes every
/// block to ring 0 with the single ring's exact geometry and latencies,
/// so the *entire report* — stats, ring counters, channels, and the
/// per-link vector — must equal the single-ring run, on the ring
/// architecture and on a ringless baseline alike.
#[test]
fn multi_ring_c1_equals_single_ring() {
    for arch in [Arch::NetCache, Arch::DmonI] {
        for app in AppId::ALL {
            let single = run_cell(arch, app, 8, 0.02);
            let mr1 = run_topo(arch, app, 8, 0.02, TopoKind::MultiRing, 1);
            assert_eq!(single, mr1, "{arch:?}/{} C=1 != single", app.name());
            assert_eq!(single.digest(), mr1.digest(), "{arch:?}/{}", app.name());
        }
    }
}

/// Guard 3: a star that fits one cluster is a degenerate star — no root
/// hops, one cache ring spanning all nodes — and must collapse to the
/// single ring report-for-report. Checked at a sub-maximal (8) and the
/// exact-boundary (16) cluster size.
#[test]
fn single_cluster_star_equals_single_ring() {
    for nodes in [8usize, 16] {
        for app in [AppId::Sor, AppId::Ocean, AppId::Water, AppId::Radix] {
            let single = run_cell(Arch::NetCache, app, nodes, 0.02);
            let star = run_topo(Arch::NetCache, app, nodes, 0.02, TopoKind::StarOfRings, 1);
            assert_eq!(single, star, "n{nodes}/{} star != single", app.name());
        }
    }
}

/// The non-degenerate fabrics must actually *be* different machines:
/// striping (C>1) changes ring-slot contention, and clustering changes
/// hop latencies. A refactor that wired the new kinds to the old paths
/// would pass guards 1–3 trivially; this pins that they diverge.
#[test]
fn non_default_fabrics_change_behavior() {
    let single = run_cell(Arch::NetCache, AppId::Sor, 16, 0.05);
    let mr2 = run_topo(Arch::NetCache, AppId::Sor, 16, 0.05, TopoKind::MultiRing, 2);
    let star = run_topo(
        Arch::NetCache,
        AppId::Sor,
        32,
        0.05,
        TopoKind::StarOfRings,
        1,
    );
    assert_ne!(
        single.digest(),
        mr2.digest(),
        "C=2 striping left the report untouched"
    );
    // The 32-node star spans two clusters: cross-cluster reads bypass
    // the probe, so its shared-cache traffic cannot match a single ring
    // over the same nodes.
    let single32 = run_cell(Arch::NetCache, AppId::Sor, 32, 0.05);
    assert_ne!(
        single32.digest(),
        star.digest(),
        "two-cluster star left the report untouched"
    );
}
