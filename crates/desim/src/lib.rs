//! # desim — deterministic discrete-event simulation kernel
//!
//! This crate is the timing substrate used by the NetCache reproduction.
//! It deliberately contains nothing specific to multiprocessors or optics:
//! just the pieces every discrete-event simulator needs, implemented so that
//! a simulation is a *pure function of its configuration and seed*:
//!
//! * [`Time`] — the simulation clock type (processor cycles, "pcycles").
//! * [`EventQueue`] — a priority queue of timestamped events with a
//!   deterministic FIFO tie-break for simultaneous events.
//! * [`FifoServer`] — a single-resource server (memory bank, network
//!   channel) that serializes requests in arrival order.
//! * [`SlottedServer`] — a TDMA-style server in which each client owns a
//!   periodic time slot (used for optical control/request channels).
//! * [`rng`] — small, fast, reproducible PRNGs (SplitMix64, Xoshiro256**).
//! * [`stats`] — counters, accumulators and log-scale histograms used for
//!   metric collection.
//!
//! The design follows the "resource reservation" style of discrete-event
//! simulation: instead of modeling every message hop as an event, a
//! transaction processed at time `t` *walks its path*, acquiring each
//! resource along the way (`server.acquire(arrival, service)`), and the
//! final completion time is scheduled as a single event. Because the event
//! queue delivers events in nondecreasing time order, acquisitions happen in
//! (approximately) arrival order and queueing delays emerge naturally.

pub mod queue;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use server::{FifoServer, SlottedServer};
pub use stats::{Accumulator, Counter, Histogram};
pub use time::{Duration, Time};
