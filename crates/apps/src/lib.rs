//! # netcache-apps — the application workload (MINT substitute)
//!
//! The paper drives its simulators with MINT, an execution-driven front-end
//! that runs real SPLASH-2/NAS binaries and feeds the back-end a stream of
//! memory references and synchronization events per processor. We cannot
//! run MIPS binaries, so this crate *is* the front-end: for each of the 12
//! applications in the paper's Table 4 it generates, lazily and
//! deterministically, the per-processor operation stream the corresponding
//! program would produce — the same data-structure sizes, the same sharing
//! and reuse patterns, the same synchronization structure.
//!
//! What the back-end sees is identical in kind to MINT's output:
//! [`Op::Compute`] (local instruction cycles), [`Op::Read`]/[`Op::Write`]
//! (data references into a shared/private address space), and
//! [`Op::Acquire`]/[`Op::Release`]/[`Op::Barrier`] synchronization.
//! Synchronization *interleaving* is resolved by the simulator (as with
//! MINT); only the per-processor program order is fixed here, which is
//! exactly the property that makes trace-style generation faithful for
//! these data-parallel codes.
//!
//! Streams are produced in bounded chunks of at most 32 KiB per
//! processor (`gen::REFILL_BYTES`), so even paper-sized inputs never
//! materialize more than one small slice of a trace at a time.
//!
//! See each module's docs for the modeled algorithm and its expected
//! shared-cache reuse class (paper Fig. 7): **Low** (Em3d, FFT, Radix),
//! **High** (Gauss, LU, Mg), **Moderate** (CG, Ocean, Raytrace, SOR,
//! Water, WF).

pub mod gen;
pub mod ops;
pub mod trace;
pub mod workload;

mod cg;
mod em3d;
mod fft;
mod gauss;
mod lu;
mod mg;
mod ocean;
mod radix;
mod raytrace;
mod sor;
mod water;
mod wf;

pub use ops::{BarrierId, LockId, MacroOp, MacroSource, Nest, Op, OpStream, Slot};
pub use trace::TraceProfile;
pub use workload::{AppId, ReuseClass, Workload};
