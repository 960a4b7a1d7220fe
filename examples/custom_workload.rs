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

use netcache::apps::{Op, OpStream};
use netcache::mem::addr::SHARED_BASE;
use netcache::{run_streams, Arch, EngineScratch, SysConfig};

const BUFFERS: u64 = 512; // shared buffer blocks (32 KB — twice the L2)
const ROUNDS: u64 = 40;

fn producer() -> OpStream {
    OpStream::lazy((0..ROUNDS).flat_map(|round| {
        let mut ops = Vec::new();
        for b in 0..BUFFERS {
            // Fill one block: 16 word writes + some compute.
            for w in 0..16 {
                ops.push(Op::Write(SHARED_BASE + b * 64 + w * 4));
            }
            ops.push(Op::Compute(40));
        }
        ops.push(Op::Barrier(round as u32));
        ops
    }))
}

fn consumer(id: u64) -> OpStream {
    OpStream::lazy((0..ROUNDS).flat_map(move |round| {
        let mut ops = Vec::new();
        for b in 0..BUFFERS {
            // Read a few words of each buffer, offset by consumer id so
            // consumers do not read in exactly the same order.
            let buf = (b + id * 7) % BUFFERS;
            for w in [0u64, 5, 11] {
                ops.push(Op::Read(SHARED_BASE + buf * 64 + w * 4));
            }
            ops.push(Op::Compute(25));
        }
        ops.push(Op::Barrier(round as u32));
        ops
    }))
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
