//! Driving the simulator with a *custom* workload: a producer/consumer
//! pipeline written directly against the operation-stream API — the
//! extension point for studying access patterns beyond the paper's twelve
//! applications.
//!
//! One producer processor writes a ring of shared buffers; the consumers
//! read them. Under the NetCache this is the best case for a network
//! cache: every produced block is read by many consumers right after the
//! first one fetches it.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use netcache::apps::gen::chunked;
use netcache::apps::{Nest, OpStream};
use netcache::mem::addr::SHARED_BASE;
use netcache::{run_streams, Arch, EngineScratch, SysConfig};

const BUFFERS: u64 = 512; // shared buffer blocks (32 KB — twice the L2)
const ROUNDS: u64 = 40;

// Each stream is generated one round per phase, with the same chunk
// builder the twelve applications use: the engine asks for the next
// round only when it has run this one, so no trace is ever
// materialized. (A prepared `Vec<Op>` works too: `OpStream::from_ops`.)

fn producer() -> OpStream {
    chunked(|round, c| {
        for b in 0..BUFFERS {
            // Fill one block: 16 word writes + some compute.
            let mut fill = Nest::new(16);
            fill.write(SHARED_BASE + b * 64, 4);
            c.nest(fill);
            c.compute(40);
        }
        c.barrier(round as u32);
        round + 1 < ROUNDS
    })
}

fn consumer(id: u64) -> OpStream {
    chunked(move |round, c| {
        for b in 0..BUFFERS {
            // Read a few words of each buffer, offset by consumer id so
            // consumers do not read in exactly the same order.
            let buf = (b + id * 7) % BUFFERS;
            for w in [0u64, 5, 11] {
                c.read_at(SHARED_BASE + buf * 64 + w * 4);
            }
            c.compute(25);
        }
        c.barrier(round as u32);
        round + 1 < ROUNDS
    })
}

fn main() {
    for arch in [Arch::NetCache, Arch::LambdaNet] {
        let cfg = SysConfig::base(arch);
        let mut streams: Vec<OpStream> = vec![producer()];
        streams.extend((1..cfg.nodes as u64).map(consumer));
        let report = run_streams(&cfg, streams, &mut EngineScratch::new());
        println!("{}", report.summary());
        if let Some(ring) = report.ring {
            println!(
                "  one consumer's fetch serves the other {}: hit rate {:.1}%, \
                 {} coalesced in-flight reads",
                cfg.nodes - 2,
                100.0 * ring.hit_rate(),
                ring.coalesced
            );
        }
    }
}
