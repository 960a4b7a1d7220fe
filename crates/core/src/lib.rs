//! # netcache-core — the NetCache architecture and its competitors
//!
//! The primary contribution of Carrera & Bianchini's *NetCache* paper,
//! implemented as a discrete-event simulation, plus the three systems the
//! paper compares against:
//!
//! | Module | Paper section | What it is |
//! |---|---|---|
//! | [`ring`] | §3.3–3.4 | the delay-line ring organized as a shared cache |
//! | [`proto`] (NetCache) | §3 | star-coupler channels + update protocol + ring |
//! | [`proto`] (LambdaNet) | §2.3 | per-node broadcast channels, write-update |
//! | [`proto`] (DMON-U) | §2.2 | decoupled multichannel network, write-update |
//! | [`proto`] (DMON-I) | §2.2 | DMON + I-SPEED invalidate protocol |
//! | [`machine`] | §4.1 | the execution-driven back-end (MINT equivalent) |
//! | [`latency`] | Tables 1–3 | contention-free latency breakdowns |
//! | [`config`] | §4.1, §5.3–5.4 | base machine + every studied parameter |
//! | [`metrics`] | §5 | the measurements the figures are made of |
//! | [`sweep`] | §5 (all grids) | the parallel experiment sweep engine |
//! | [`store`] | — | content-addressed on-disk result store (sweep cache/resume) |
//! | [`json`] | — | strict RFC 8259 round-trip machinery (records, emitters) |
//!
//! ## Example
//!
//! ```
//! use netcache_core::{run_app, Arch, SysConfig};
//! use netcache_apps::{AppId, Workload};
//!
//! let cfg = SysConfig::base(Arch::NetCache).with_nodes(4);
//! let wl = Workload::new(AppId::Gauss, 4).scale(0.02);
//! let report = run_app(&cfg, &wl);
//! assert!(report.shared_cache_hit_rate() > 0.0);
//! ```

pub mod config;
pub mod json;
pub mod latency;
pub mod machine;
pub mod metrics;
pub mod proto;
pub mod ring;
pub mod runner;
pub mod sharers;
pub mod store;
pub mod sweep;
pub mod topology;

pub use config::{Arch, ChannelAssoc, Replacement, RingConfig, SysConfig, TopoConfig, TopoKind};
pub use machine::{run_streams, run_workload, EngineScratch};
pub use metrics::{NodeStats, RunReport};
pub use proto::{Node, ProtoCounters, Protocol, ReadKind};
pub use ring::{RingCache, RingLookup, RingStats};
pub use runner::{compare, compare_stored, run_app, speedup, speedup_stored};
pub use store::{cell_key, point_key, Store, StoreStats};
pub use sweep::{Sweep, SweepPoint, SweepResult, SweepRun, SweepSpec};
pub use topology::{Fabric, LinkCounters, Topology};
