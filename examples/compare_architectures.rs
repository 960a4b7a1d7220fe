//! Compare all four simulated architectures on one application — a
//! single-row slice of the paper's Figure 6.
//!
//! ```text
//! cargo run --release --example compare_architectures [app] [scale]
//! ```

use netcache::apps::AppId;
use netcache::{Arch, Sweep, SweepPoint, SysConfig};

fn main() {
    let app_name = std::env::args().nth(1).unwrap_or_else(|| "mg".into());
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let Some(app) = AppId::ALL.iter().find(|a| a.name() == app_name).copied() else {
        eprintln!("unknown app {app_name}");
        std::process::exit(1);
    };

    println!(
        "{:<12} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "system", "cycles", "vs best", "avg rd lat", "rd %", "sync %"
    );
    // The four systems are independent simulations: the sweep engine fans
    // them out across host cores and returns the reports in `Arch::ALL`
    // order.
    let points = Arch::ALL
        .iter()
        .map(|&a| SweepPoint::new(SysConfig::base(a), app, scale))
        .collect();
    let jobs = std::thread::available_parallelism().map_or(1, |p| p.get());
    let result = Sweep::from_points(points).run(jobs);
    let base = result.runs[0].report.cycles;
    for r in result.runs.iter().map(|r| &r.report) {
        println!(
            "{:<12} {:>12} {:>9.2}x {:>12.0} {:>9.1}% {:>9.1}%",
            r.arch,
            r.cycles,
            r.cycles as f64 / base as f64,
            r.avg_shared_read_latency(),
            100.0 * r.read_latency_fraction(),
            100.0 * r.sync_fraction()
        );
    }
    println!();
    println!(
        "paper expectation: NetCache fastest; LambdaNet ahead of the DMONs; \
         gaps largest for high-reuse apps (gauss, lu, mg), near-ties for \
         em3d/fft/radix vs LambdaNet."
    );
}
