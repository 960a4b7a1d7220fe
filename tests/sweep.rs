//! Integration tests of the parallel sweep engine: parallel execution
//! must be a pure scheduling choice — bit-identical reports, grid order
//! preserved — no matter how the host interleaves the workers.
//!
//! Same in-tree property harness as `tests/properties.rs` (the build
//! environment has no registry access, so no `proptest`).

use netcache::apps::AppId;
use netcache::sim::Xoshiro256StarStar;
use netcache::sweep::{ProgressCounters, SweepPoint};
use netcache::{Arch, Sweep, SysConfig};

/// Runs `f` over `cases` independently seeded RNGs; a panic inside one
/// case is re-raised tagged with the seed that reproduces it.
fn check(cases: u64, f: impl Fn(&mut Xoshiro256StarStar) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = 0x5EED_5EED ^ (case * 0x9E37_79B9);
        let result = std::panic::catch_unwind(|| {
            let mut rng = Xoshiro256StarStar::seeded(seed);
            f(&mut rng);
        });
        if result.is_err() {
            panic!("property failed on case {case} (rng seed {seed:#x}); see panic above");
        }
    }
}

/// A random small grid: 1–2 architectures, 1–3 apps, 2 or 4 nodes, a
/// small scale, and sometimes a ring-size axis, which crosses NetCache
/// only. Cells nest arch → app → ring size, as the CLI's do.
fn arb_sweep(rng: &mut Xoshiro256StarStar) -> Sweep {
    let mut archs = Arch::ALL.to_vec();
    rng.shuffle(&mut archs);
    archs.truncate(1 + rng.below(2) as usize);

    let mut apps = AppId::ALL.to_vec();
    rng.shuffle(&mut apps);
    apps.truncate(1 + rng.below(3) as usize);

    let nodes = if rng.chance(0.5) { 2 } else { 4 };
    let scale = 0.01 + rng.f64() * 0.03;

    let ring_kbs: &[Option<u64>] = if rng.chance(0.3) {
        &[Some(0), Some(64)]
    } else {
        &[None]
    };

    let mut points = Vec::new();
    for arch in archs {
        let rings = if arch == Arch::NetCache {
            ring_kbs
        } else {
            &[None]
        };
        for &app in &apps {
            for &ring in rings {
                let mut cfg = SysConfig::base(arch).with_nodes(nodes);
                if let Some(kb) = ring {
                    cfg = cfg.with_ring_kb(kb);
                }
                points.push(SweepPoint::new(cfg, app, scale));
            }
        }
    }
    Sweep::from_points(points)
}

// ---------------------------------------------------------------------
// The tentpole property: a parallel sweep over a random grid equals the
// serial sweep report-for-report. Parallelism is scheduling, nothing
// else — each simulation owns its whole mutable world.

#[test]
fn parallel_sweep_equals_serial_on_random_grids() {
    check(8, |rng| {
        let sweep = arb_sweep(rng);
        let jobs = 2 + rng.below(6) as usize;
        let serial = sweep.run(1);
        let parallel = sweep.run(jobs);
        assert_eq!(serial.runs.len(), parallel.runs.len());
        for (s, p) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(s.label, p.label, "grid order diverged");
            assert_eq!(
                s.report, p.report,
                "reports differ for {} at jobs={jobs}",
                s.label
            );
        }
    });
}

// ---------------------------------------------------------------------
// Grid order under an adversarial duration mix: the points are arranged
// so the FIRST grid cell is the slowest and the last is the fastest.
// With several workers, completion order is then (roughly) the reverse
// of grid order — the result must still come back in grid order.

#[test]
fn sweep_output_order_matches_grid_order_under_reversed_durations() {
    let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
    // Descending scale → descending runtime: gauss at 0.3 takes far
    // longer than radix at 0.01.
    let points = vec![
        SweepPoint::new(cfg, AppId::Gauss, 0.3),
        SweepPoint::new(cfg, AppId::Water, 0.1),
        SweepPoint::new(cfg, AppId::Fft, 0.05),
        SweepPoint::new(cfg, AppId::Sor, 0.02),
        SweepPoint::new(cfg, AppId::Radix, 0.01),
    ];
    let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    let sweep = Sweep::from_points(points);

    let counters = ProgressCounters::default();
    let result = sweep.run_observed(4, &counters);

    let got: Vec<&str> = result.runs.iter().map(|r| r.label.as_str()).collect();
    let want: Vec<&str> = labels.iter().map(String::as_str).collect();
    assert_eq!(got, want, "runs not in grid order");
    assert_eq!(counters.started(), 5);
    assert_eq!(counters.finished(), 5);

    // And the reordering really was exercised: the slowest cell is the
    // first one, so under 4 workers it cannot have finished first.
    let serial = sweep.run(1);
    for (s, p) in serial.runs.iter().zip(&result.runs) {
        assert_eq!(s.report, p.report);
    }
}

// ---------------------------------------------------------------------
// The emission paths agree with the runs, row for row.

#[test]
fn csv_and_json_have_one_row_per_cell_in_grid_order() {
    let sweep = Sweep::from_points(
        [Arch::NetCache, Arch::LambdaNet]
            .map(|a| SweepPoint::new(SysConfig::base(a).with_nodes(2), AppId::Sor, 0.02))
            .to_vec(),
    );
    let result = sweep.run(2);

    let csv = result.to_csv();
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), result.runs.len());
    for (row, run) in rows.iter().zip(&result.runs) {
        assert!(
            row.starts_with(&format!("{},", run.label)),
            "csv row out of order: {row}"
        );
        assert!(row.contains(&format!(",{},", run.report.cycles)));
    }

    let json = result.to_json();
    for run in &result.runs {
        assert!(json.contains(&format!("\"label\": \"{}\"", run.label)));
    }
    let mut last = 0;
    for run in &result.runs {
        let pos = json.find(&format!("\"label\": \"{}\"", run.label)).unwrap();
        assert!(pos > last, "json rows out of grid order");
        last = pos;
    }
}
