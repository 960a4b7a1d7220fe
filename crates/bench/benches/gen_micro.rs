//! Microbenchmarks of workload *generation*: the front-end cost of
//! producing per-processor op streams, measured both through the native
//! macro-op cursor (what the engine's elision path consumes) and through
//! the scalar iterator (one `Op` at a time, the pre-macro interface).
//! The gap between the two is the payoff of keeping loop nests
//! compressed from generator to engine instead of scalarizing at the
//! source.
//!
//! Hand-rolled harness (criterion is not in the sanctioned dependency
//! set), same discipline as `engine_micro`: warm up, time batches until
//! the budget elapses, report ns/iter. One iter generates and fully
//! drains every processor's stream for the named app, so ns/iter is the
//! end-to-end front-end cost of one workload.

use std::hint::black_box;
use std::time::Instant;

use memsys::AddressMap;
use netcache_apps::{AppId, MacroOp, OpStream, Workload};

const PROCS: usize = 8;
const SCALE: f64 = 0.05;
const BLOCK_BYTES: u64 = 64;

/// Times `f` and prints ns/iter. `budget_ms` bounds total measuring time.
fn bench(name: &str, budget_ms: u64, mut f: impl FnMut()) {
    let t0 = Instant::now();
    let mut warm = 0u64;
    while t0.elapsed().as_millis() < 20 && warm < 1_000 {
        f();
        warm += 1;
    }
    let t1 = Instant::now();
    let mut iters = 0u64;
    while t1.elapsed().as_millis() < budget_ms as u128 {
        for _ in 0..warm.max(1) {
            f();
        }
        iters += warm.max(1);
    }
    let ns = t1.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<28} {ns:>12.1} ns/iter ({iters} iters)");
}

/// Drains a stream through the macro cursor without scalarizing: nests
/// are consumed whole, the way the engine's bulk path does.
/// Returns the scalar op count the stream stood for.
fn drain_macro(s: &mut OpStream) -> u64 {
    let mut ops = 0u64;
    loop {
        enum Step {
            End,
            Ones(usize),
            Iters { rem: u64, per: u64 },
        }
        let it = s.cur_iter();
        let step = {
            let ms = s.macro_run();
            match ms.first() {
                None => Step::End,
                Some(MacroOp::One(_)) => Step::Ones(
                    ms.iter()
                        .take_while(|m| matches!(m, MacroOp::One(_)))
                        .count(),
                ),
                Some(MacroOp::Nest(nest)) => Step::Iters {
                    rem: nest.n() - it,
                    per: nest.slots().len() as u64,
                },
            }
        };
        match step {
            Step::End => break,
            Step::Ones(k) => {
                s.consume_ones(k);
                ops += k as u64;
            }
            Step::Iters { rem, per } => {
                s.consume_iters(rem);
                ops += rem * per;
            }
        }
    }
    ops
}

fn bench_app(app: AppId) {
    let map = AddressMap::new(PROCS, BLOCK_BYTES);
    let wl = Workload::new(app, PROCS).scale(SCALE);
    let name = format!("{app:?}").to_lowercase();
    bench(&format!("gen_macro_{name}"), 300, || {
        let mut total = 0u64;
        for mut s in wl.streams(&map) {
            total += drain_macro(&mut s);
        }
        black_box(total);
    });
    bench(&format!("gen_scalar_{name}"), 300, || {
        let mut total = 0u64;
        for s in wl.streams(&map) {
            for op in s {
                black_box(op);
                total += 1;
            }
        }
        black_box(total);
    });
}

fn main() {
    // One masked-nest app (wf: write-if bodies), one stencil app (sor:
    // long strided nests), one scatter-heavy (radix: mostly irreducible
    // scalar ops) — the three generator shapes.
    for app in [AppId::Wf, AppId::Sor, AppId::Radix] {
        bench_app(app);
    }
}
