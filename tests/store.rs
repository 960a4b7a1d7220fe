//! Integration tests of the on-disk result store: a warm sweep must be
//! indistinguishable from a cold one in everything but wall time, an
//! interrupted sweep must resume from the cells it completed, and a
//! damaged store must heal rather than serve or crash.

use std::fs;
use std::path::PathBuf;

use netcache::apps::AppId;
use netcache::figures::speedup_cells;
use netcache::sweep::NoopObserver;
use netcache::{point_key, Arch, Store, SysConfig};
use netcache::{Sweep, SweepPoint};

/// A scratch store directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netcache-store-it-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small but heterogeneous grid: two architectures, three apps.
fn small_sweep() -> Sweep {
    let mut points = Vec::new();
    for arch in [Arch::NetCache, Arch::DmonI] {
        for app in [AppId::Sor, AppId::Fft, AppId::Water] {
            points.push(SweepPoint::new(
                SysConfig::base(arch).with_nodes(2),
                app,
                0.02,
            ));
        }
    }
    Sweep::from_points(points)
}

#[test]
fn warm_sweep_serves_every_cell_bit_identically() {
    let dir = scratch("warm");
    let sweep = small_sweep();

    let cold_store = Store::open(&dir).unwrap();
    let cold = sweep.run_stored(2, &NoopObserver, Some(&cold_store));
    assert_eq!(cold.cached_cells(), 0);
    assert_eq!(cold.computed_cells(), cold.runs.len());

    // A fresh handle on the same directory: every cell is a verified hit
    // and every report equals the cold one (RunReport equality covers
    // every digest-relevant column; wall time is excluded by design).
    let warm_store = Store::open(&dir).unwrap();
    let warm = sweep.run_stored(2, &NoopObserver, Some(&warm_store));
    assert_eq!(warm.cached_cells(), warm.runs.len());
    assert_eq!(warm.computed_cells(), 0);
    assert_eq!(warm_store.stats().hits, warm.runs.len() as u64);
    assert_eq!(warm_store.stats().invalidated, 0);
    for (c, w) in cold.runs.iter().zip(&warm.runs) {
        assert_eq!(c.label, w.label, "grid order diverged");
        assert_eq!(c.report, w.report, "warm report differs for {}", c.label);
        assert_eq!(
            c.report.digest(),
            w.report.digest(),
            "digest chain broke for {}",
            c.label
        );
    }
    // The one-worker path reads the same store.
    let serial_store = Store::open(&dir).unwrap();
    let serial = sweep.run_stored(1, &NoopObserver, Some(&serial_store));
    assert_eq!(serial.cached_cells(), serial.runs.len());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_and_matches_a_clean_serial_run() {
    let dir = scratch("resume");
    let full = small_sweep();

    // Simulate a sweep killed after three cells: only a prefix of the
    // grid made it to disk.
    let prefix = Sweep::from_points(full.points()[..3].to_vec());
    let store = Store::open(&dir).unwrap();
    prefix.run_stored(1, &NoopObserver, Some(&store));
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 3);

    // The resumed full run serves the prefix from disk and computes only
    // the remainder…
    let resumed_store = Store::open(&dir).unwrap();
    let resumed = full.run_stored(2, &NoopObserver, Some(&resumed_store));
    assert_eq!(resumed.cached_cells(), 3);
    assert_eq!(resumed.computed_cells(), full.points().len() - 3);

    // …and is bit-identical to a storeless serial run of the whole grid.
    let clean = full.run(1);
    for (r, c) in resumed.runs.iter().zip(&clean.runs) {
        assert_eq!(r.label, c.label);
        assert_eq!(r.report, c.report, "resumed report differs for {}", r.label);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cell_is_recomputed_and_healed_in_place() {
    let dir = scratch("heal");
    let sweep = small_sweep();

    let store = Store::open(&dir).unwrap();
    let cold = sweep.run_stored(2, &NoopObserver, Some(&store));

    // Damage exactly one record on disk.
    let victim = &sweep.points()[1];
    let path = store.record_path(point_key(victim));
    fs::write(&path, b"{\"netcache_store\": garbage").unwrap();

    let warm_store = Store::open(&dir).unwrap();
    let warm = sweep.run_stored(2, &NoopObserver, Some(&warm_store));
    assert_eq!(warm.cached_cells(), sweep.points().len() - 1);
    assert_eq!(warm.computed_cells(), 1);
    assert_eq!(warm_store.stats().invalidated, 1);
    for (c, w) in cold.runs.iter().zip(&warm.runs) {
        assert_eq!(c.report, w.report, "healed grid differs for {}", c.label);
    }

    // The recomputed cell overwrote the bad bytes: a third pass is 100%
    // hits.
    let third_store = Store::open(&dir).unwrap();
    let third = sweep.run_stored(2, &NoopObserver, Some(&third_store));
    assert_eq!(third.cached_cells(), sweep.points().len());
    assert_eq!(third_store.stats().invalidated, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_deeply_nested_record_is_invalidated_and_healed() {
    let dir = scratch("deep");
    let sweep = small_sweep();
    let store = Store::open(&dir).unwrap();
    let cold = sweep.run_stored(2, &NoopObserver, Some(&store));

    // A million open brackets: a recursive parser runs out of stack on
    // these long before it finds the document unterminated.
    let victim = &sweep.points()[2];
    fs::write(store.record_path(point_key(victim)), vec![b'['; 1_000_000]).unwrap();

    let warm_store = Store::open(&dir).unwrap();
    let warm = sweep.run_stored(2, &NoopObserver, Some(&warm_store));
    assert_eq!(warm.computed_cells(), 1);
    assert_eq!(warm_store.stats().invalidated, 1);
    for (c, w) in cold.runs.iter().zip(&warm.runs) {
        assert_eq!(c.report, w.report, "healed grid differs for {}", c.label);
    }
    let third_store = Store::open(&dir).unwrap();
    let third = sweep.run_stored(2, &NoopObserver, Some(&third_store));
    assert_eq!(third.cached_cells(), sweep.points().len());
    let _ = fs::remove_dir_all(&dir);
}

/// The reports of `points`, run as one sweep through `store`.
fn stored_reports(points: Vec<SweepPoint>, store: &Store) -> Vec<netcache::RunReport> {
    let result = Sweep::from_points(points).run_stored(2, &NoopObserver, Some(store));
    result.runs.into_iter().map(|r| r.report).collect()
}

#[test]
fn compare_and_speedup_read_through_the_store() {
    // One app's four-architecture row (a Fig. 6 row) and Fig. 5's two
    // cells read through the store like any sweep's.
    let dir = scratch("readthrough");
    let cfgs: Vec<SysConfig> = Arch::ALL
        .iter()
        .map(|&a| SysConfig::base(a).with_nodes(2))
        .collect();
    let row_cells = || {
        cfgs.iter()
            .map(|&c| SweepPoint::new(c, AppId::Gauss, 0.02))
            .collect::<Vec<_>>()
    };

    let store = Store::open(&dir).unwrap();
    let cold = stored_reports(row_cells(), &store);
    assert_eq!(store.stats().hits, 0);

    let warm_store = Store::open(&dir).unwrap();
    let warm = stored_reports(row_cells(), &warm_store);
    assert_eq!(warm_store.stats().hits, cfgs.len() as u64);
    assert_eq!(cold, warm, "warm row differs from cold");
    // And the storeless path agrees with both.
    let storeless = Sweep::from_points(row_cells()).run(2);
    let storeless: Vec<_> = storeless.runs.into_iter().map(|r| r.report).collect();
    assert_eq!(cold, storeless, "storeless row differs from the stored one");

    let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
    let fig5 = || speedup_cells(cfg, AppId::Sor, 0.02).to_vec();
    let speedup_dir = scratch("readthrough-speedup");
    let cold_sp = stored_reports(fig5(), &Store::open(&speedup_dir).unwrap());
    let sp_warm_store = Store::open(&speedup_dir).unwrap();
    let warm_sp = stored_reports(fig5(), &sp_warm_store);
    assert_eq!(sp_warm_store.stats().hits, 2, "both endpoints should hit");
    assert_eq!(cold_sp, warm_sp, "warm speedup differs from cold");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&speedup_dir);
}
