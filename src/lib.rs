//! # netcache — facade crate
//!
//! Reproduction of *"NetCache: A Network/Cache Hybrid for Multiprocessors"*
//! (Carrera & Bianchini, COPPE/UFRJ, 1997/IPPS'99).
//!
//! This crate re-exports the whole workspace behind one name so downstream
//! users can depend on `netcache` alone:
//!
//! * [`sim`] — the discrete-event kernel ([`desim`]).
//! * [`mem`] — the memory-hierarchy substrate ([`memsys`]).
//! * [`optics`] — the optical-network substrate.
//! * [`apps`] — the 12-application workload suite (MINT substitute).
//! * everything from [`netcache_core`] at the top level: configurations,
//!   the four simulated architectures, the run driver, and metrics.
//!
//! ## Quickstart
//!
//! ```
//! use netcache::{Arch, SysConfig, run_app};
//! use netcache::apps::{AppId, Workload};
//!
//! // 16-node NetCache machine with the paper's base parameters,
//! // running a scaled-down SOR workload.
//! let cfg = SysConfig::base(Arch::NetCache);
//! let wl = Workload::new(AppId::Sor, 16).scale(0.05);
//! let report = run_app(&cfg, &wl);
//! assert!(report.cycles > 0);
//! println!("{}", report.summary());
//! ```

pub use desim as sim;
pub use memsys as mem;
pub use netcache_apps as apps;
pub use optics;

pub mod figures;

pub use netcache_core::*;
