//! # dosgi-monitor — the Monitoring Module
//!
//! §3.1 of the paper calls monitoring *"the least mature part of all the
//! work developed as there are no adequate mechanisms to measure and
//! monitor resource usage in the actual JVM specification"* — memory is
//! only visible platform-wide via `MemoryMXBean`, CPU only roughly per
//! thread via `ThreadMXBean`, and the authors pin their hopes on **JSR-284,
//! the Resource Consumption Management API**.
//!
//! The simulation is not subject to the JVM's limits, so this crate simply
//! *implements* the measurements the paper wanted from JSR-284:
//!
//! * [`Sampler`] — turns cumulative [`UsageSnapshot`]s (from the
//!   `dosgi-osgi` ledger) into windowed rates: CPU share of a core, calls
//!   per second, memory gauge;
//! * [`MonitoringModule`] — one sampler per subject and its latest
//!   window, the inputs to autonomic policy conditions (the history of
//!   those windows lives in `dosgi-telemetry`'s series, scraped from the
//!   `monitor.<name>.*` gauges the node publishes);
//! * [`NodeCapacity`] — a node's total resources and the `fits` test the
//!   Migration Module uses when choosing a failover destination.
//!
//! [`UsageSnapshot`]: dosgi_osgi::UsageSnapshot

mod capacity;
mod module;
mod sample;

pub use capacity::NodeCapacity;
pub use module::MonitoringModule;
pub use sample::{Sampler, WindowedUsage};
