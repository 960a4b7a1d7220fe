//! # memsys — memory-hierarchy substrate
//!
//! Everything below the network in a simulated node, shared by all four
//! architectures of the NetCache reproduction:
//!
//! * [`addr`] — the simulated physical address space: word/block
//!   arithmetic, the shared/private split, and block-level interleaving of
//!   shared data across home nodes (paper §4.1).
//! * [`cache`] — the direct-mapped tag array of the per-node L1 and L2
//!   (paper §4.1): one tag compare per probe, no replacement state.
//! * [`wbuf`] — the 16-entry *coalescing write buffer* (paper §4.1): writes
//!   to the same block merge into one entry carrying a word mask, so an
//!   update message transfers only the words actually modified.
//! * [`memory`] — a memory module with a FIFO input queue, separate read
//!   latency and occupancy, and the hysteresis-based update-ack flow
//!   control of the NetCache coherence protocol (paper §3.4).

pub mod addr;
pub mod cache;
pub mod memory;
pub mod wbuf;

pub use addr::{Addr, AddressMap, BlockAddr, NodeId, WordIdx};
pub use cache::{Cache, CacheCfg, Evicted};
pub use memory::{MemoryCfg, MemoryModule};
pub use wbuf::{CoalescingWriteBuffer, PushOutcome, WriteEntry};
