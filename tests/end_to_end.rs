//! Cross-crate integration tests: whole simulations driven through the
//! public facade, checking the paper's qualitative claims at small scale.

use netcache::apps::{AppId, Workload};
use netcache::figures::speedup_cells;
use netcache::{run_app, run_streams, Arch, EngineScratch, SysConfig};

const SCALE: f64 = 0.03;

fn run(arch: Arch, app: AppId, procs: usize, scale: f64) -> netcache::RunReport {
    let cfg = SysConfig::base(arch).with_nodes(procs);
    run_app(&cfg, &Workload::new(app, procs).scale(scale))
}

#[test]
fn every_app_runs_on_every_architecture() {
    for app in AppId::ALL {
        for arch in Arch::ALL {
            let r = run(arch, app, 8, 0.02);
            assert!(r.cycles > 0, "{} on {}", app.name(), arch.name());
            assert!(r.total_reads() > 0);
            // Time accounting sanity on every combination.
            for (i, n) in r.nodes.iter().enumerate() {
                let accounted = n.busy + n.read_stall + n.wb_stall + n.sync_stall;
                assert!(
                    accounted <= n.finish + 1,
                    "{}/{} proc {i}: accounted {accounted} > finish {}",
                    app.name(),
                    arch.name(),
                    n.finish
                );
            }
        }
    }
}

#[test]
fn netcache_never_loses_badly() {
    // Paper Fig. 6: NetCache is best or tied on every application. Allow
    // small-scale noise: it must never be more than 15% slower than the
    // best baseline.
    for app in [
        AppId::Gauss,
        AppId::Mg,
        AppId::Sor,
        AppId::Water,
        AppId::Ocean,
    ] {
        let nc = run(Arch::NetCache, app, 16, SCALE).cycles as f64;
        for arch in [Arch::LambdaNet, Arch::DmonU, Arch::DmonI] {
            let other = run(arch, app, 16, SCALE).cycles as f64;
            assert!(
                nc <= other * 1.15,
                "{}: NetCache {} vs {} {}",
                app.name(),
                nc,
                arch.name(),
                other
            );
        }
    }
}

#[test]
fn high_reuse_apps_beat_low_reuse_apps_on_hit_rate() {
    // Paper Fig. 7's grouping, on representatives of each class.
    let gauss = run(Arch::NetCache, AppId::Gauss, 16, 0.05).shared_cache_hit_rate();
    let lu = run(Arch::NetCache, AppId::Lu, 16, 0.1).shared_cache_hit_rate();
    let radix = run(Arch::NetCache, AppId::Radix, 16, 0.05).shared_cache_hit_rate();
    let fft = run(Arch::NetCache, AppId::Fft, 16, 0.5).shared_cache_hit_rate();
    assert!(gauss > 0.4, "gauss {gauss}");
    assert!(lu > 0.4, "lu {lu}");
    assert!(radix < 0.32, "radix {radix}");
    assert!(fft < 0.32, "fft {fft}");
    assert!(gauss > radix + 0.2);
    assert!(lu > fft + 0.2);
}

#[test]
fn shared_cache_reduces_read_latency_for_reuse_apps() {
    // Paper Fig. 9: read latency falls with a shared cache.
    for app in [AppId::Gauss, AppId::Mg, AppId::Ocean] {
        let cfg0 = SysConfig::netcache_no_ring();
        let with = SysConfig::base(Arch::NetCache);
        let base = run_app(&cfg0, &Workload::new(app, 16).scale(SCALE));
        let cached = run_app(&with, &Workload::new(app, 16).scale(SCALE));
        assert!(
            (cached.total_read_stall() as f64) < 0.9 * base.total_read_stall() as f64,
            "{}: {} vs {}",
            app.name(),
            cached.total_read_stall(),
            base.total_read_stall()
        );
    }
}

#[test]
fn invalidate_protocol_raises_miss_rates() {
    // §5.1: update-based systems exhibit lower 2nd-level read miss rates
    // than DMON-I (coherence misses).
    let u = run(Arch::DmonU, AppId::Sor, 8, SCALE);
    let i = run(Arch::DmonI, AppId::Sor, 8, SCALE);
    let misses = |r: &netcache::RunReport| r.nodes.iter().map(|n| n.shared_reads).sum::<u64>();
    assert!(
        misses(&i) > misses(&u),
        "DMON-I {} vs DMON-U {}",
        misses(&i),
        misses(&u)
    );
}

#[test]
fn speedup_shape_matches_paper() {
    // Fig. 5: the machine parallelizes; Em3d is superlinear (terrible
    // single-node cache behaviour). Fig. 5's cells, at smaller scales.
    let speedup = |app, scale| {
        let cells = speedup_cells(SysConfig::base(Arch::NetCache), app, scale);
        let runs = netcache::Sweep::from_points(cells.to_vec()).run(2).runs;
        runs[0].report.cycles as f64 / runs[1].report.cycles as f64
    };
    let s_sor = speedup(AppId::Sor, 0.03);
    let s_em3d = speedup(AppId::Em3d, 0.1);
    assert!(s_sor > 5.0, "sor speedup {s_sor}");
    assert!(s_em3d > 10.0, "em3d speedup {s_em3d}");
}

#[test]
fn memory_latency_growth_hurts_netcache_least() {
    // Fig. 15's trend on gauss.
    let growth = |arch: Arch| {
        let lo = run_app(
            &SysConfig::base(arch).with_mem_latency(44),
            &Workload::new(AppId::Gauss, 16).scale(SCALE),
        )
        .cycles as f64;
        let hi = run_app(
            &SysConfig::base(arch).with_mem_latency(108),
            &Workload::new(AppId::Gauss, 16).scale(SCALE),
        )
        .cycles as f64;
        hi / lo
    };
    let nc = growth(Arch::NetCache);
    let lam = growth(Arch::LambdaNet);
    assert!(nc < lam, "NetCache growth {nc:.3} vs LambdaNet {lam:.3}");
}

#[test]
fn custom_streams_api_works_end_to_end() {
    use netcache::apps::Op;
    let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
    // Four processors stream the same 64 KB region (beyond any L2, within
    // reach of the ring): the leader's misses feed everyone else.
    let streams = (0..4u64)
        .map(|p| {
            let ops = (0..4000u64)
                .flat_map(|i| {
                    // Same block sequence on every processor, offset a
                    // few iterations in time per processor.
                    let blk = ((i + p * 3) * 7) % 1024;
                    [
                        Op::Compute(3),
                        Op::Read(netcache::mem::addr::SHARED_BASE + blk * 64),
                    ]
                })
                .chain([Op::Barrier(0)])
                .collect();
            netcache::apps::OpStream::from_ops(ops)
        })
        .collect();
    let r = run_streams(&cfg, streams, &mut EngineScratch::new());
    assert_eq!(r.total_reads(), 16000);
    // Reads served off the ring (hits + rides on in-flight insertions)
    // avoid a dedicated memory access; for co-streamed data that should
    // be the majority.
    let served: u64 = r
        .nodes
        .iter()
        .map(|n| n.shared_hits + n.shared_coalesced)
        .sum();
    let remote: u64 = r.nodes.iter().map(|n| n.shared_reads).sum();
    let frac = served as f64 / remote as f64;
    assert!(frac > 0.5, "ring served only {frac:.2} of remote reads");
}

#[test]
fn larger_l2_reduces_gauss_runtime_on_baselines() {
    // Fig. 13: larger L2s help Gauss...
    let small = run_app(
        &SysConfig::base(Arch::LambdaNet).with_l2_kb(16),
        &Workload::new(AppId::Gauss, 16).scale(SCALE),
    );
    let large = run_app(
        &SysConfig::base(Arch::LambdaNet).with_l2_kb(64),
        &Workload::new(AppId::Gauss, 16).scale(SCALE),
    );
    assert!(large.cycles < small.cycles);
    // ...but a 4x larger L2 still does not beat NetCache with the base L2.
    let nc = run(Arch::NetCache, AppId::Gauss, 16, SCALE);
    assert!(
        nc.cycles < large.cycles,
        "NetCache {} vs LambdaNet/64KB {}",
        nc.cycles,
        large.cycles
    );
}
