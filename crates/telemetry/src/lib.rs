//! # dosgi-telemetry — cluster-wide metrics, traces, and snapshots
//!
//! A zero-dependency observability layer for the dosgi stack:
//!
//! * a registry of named **counters** (`u64`, monotonic), **gauges**
//!   (`i64`, last-write-wins), and log-bucketed **histograms**
//!   ([`Histogram`]);
//! * **causal span tracing** — the per-node [`FlightRecorder`], whose
//!   spans carry their parent across messages and nodes ([`trace`]);
//! * a stable, schema-versioned **JSON snapshot** writer ([`Snapshot`])
//!   whose output is byte-deterministic: `BTreeMap` key order, integer
//!   arithmetic only, and simulated timestamps only.
//!
//! ## Determinism contract
//!
//! Telemetry is *passive*: it never reads the wall clock, never consumes
//! randomness, and never influences control flow in the instrumented
//! code. All timestamps it records are simulated-time microseconds
//! supplied by the caller (`SimTime::as_micros()`), so a seeded replay
//! produces a byte-identical snapshot and — because nothing observable
//! changes — a byte-identical chaos fingerprint whether telemetry is
//! enabled or disabled.
//!
//! ## Naming convention
//!
//! Metrics are named `crate.subsystem.metric`, e.g. `gcs.view.installed`,
//! `san.retry.backoff_us`, `core.registry.ops`, `ipvs.routed.n3`.
//!
//! ## Handles
//!
//! [`Telemetry`] is a cheap-clone handle. [`Telemetry::disabled`] (also
//! the `Default`) is a no-op: every operation returns immediately, so
//! library types can hold one unconditionally. [`Telemetry::new`]
//! creates an enabled registry; clones share it, which is how one
//! cluster-wide registry is threaded through nodes, stores, frameworks,
//! and directors.

mod hist;
pub mod series;
pub mod slo;
pub mod snapshot;
pub mod trace;

pub use hist::{bucket_bounds, bucket_index, Histogram, BUCKETS};
pub use series::{
    ScrapeConfig, Series, SeriesKind, SeriesPoint, SeriesScraper, DEFAULT_CADENCE_US,
    DEFAULT_SERIES_CAPACITY, DROPPED_POINTS,
};
pub use slo::{derive_health, AlertEvent, AlertWindow, HealthState, SloEngine, SloSpec};
pub use snapshot::{Snapshot, SCHEMA_VERSION};
pub use trace::{
    FlightRecorder, TraceContext, TraceEvent, TraceLog, TraceRef, DEFAULT_EVENT_CAPACITY,
    TRACE_SCHEMA_VERSION,
};

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// Counter name incremented when the alert timeline overflows.
pub const DROPPED_ALERTS: &str = "telemetry.dropped_alerts";

/// Capacity of the alert timeline (alert transitions are sparse; a run
/// that overflows this is itself an alerting bug worth seeing).
pub const ALERT_CAPACITY: usize = 1024;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    alerts: VecDeque<AlertEvent>,
}

/// Cheap-clone handle onto a shared telemetry registry (or a no-op).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// An enabled registry.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::default()),
        }
    }

    /// The no-op handle: every operation returns immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle points at a live registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // The only caller code that runs under the lock is a `read` closure,
    // which borrows the registry immutably, so a panic there leaves it
    // intact. A poisoned lock is therefore taken over, not propagated: one
    // panicking thread must not take telemetry down for every node.
    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Inner>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Increment counter `name` by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `n`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(mut g) = self.lock() {
            update(&mut g.counters, name, |c| *c += n);
        }
    }

    /// Read counter `name` (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock()
            .and_then(|g| g.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Set gauge `name` to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, v: i64) {
        if let Some(mut g) = self.lock() {
            update(&mut g.gauges, name, |gauge| *gauge = v);
        }
    }

    /// Read gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.lock().and_then(|g| g.gauges.get(name).copied())
    }

    /// Record sample `v` into histogram `name`.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(mut g) = self.lock() {
            update(&mut g.histograms, name, |h| h.record(v));
        }
    }

    /// Copy out histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().and_then(|g| g.histograms.get(name).cloned())
    }

    /// Read the whole registry under one lock — counters, gauges and
    /// histograms by reference, no clones. This is the
    /// [`SeriesScraper`]'s bulk read path; `f` must not call back into
    /// this handle (the lock is held). Returns `None` on a disabled
    /// handle (the closure is not called).
    pub fn read<R>(
        &self,
        f: impl FnOnce(
            &BTreeMap<String, u64>,
            &BTreeMap<String, i64>,
            &BTreeMap<String, Histogram>,
        ) -> R,
    ) -> Option<R> {
        self.lock()
            .map(|g| f(&g.counters, &g.gauges, &g.histograms))
    }

    /// Append an alert transition to the timeline. Overflow beyond
    /// [`ALERT_CAPACITY`] drops the oldest event and increments
    /// `telemetry.dropped_alerts`.
    pub fn record_alert(&self, event: AlertEvent) {
        if let Some(mut g) = self.lock() {
            if g.alerts.len() >= ALERT_CAPACITY {
                g.alerts.pop_front();
                update(&mut g.counters, DROPPED_ALERTS, |c| *c += 1);
            }
            g.alerts.push_back(event);
        }
    }

    /// Copy out the alert timeline, oldest first.
    pub fn alerts(&self) -> Vec<AlertEvent> {
        self.lock()
            .map(|g| g.alerts.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Materialize a deterministic snapshot of everything recorded so
    /// far. The registry keeps accumulating afterwards.
    pub fn snapshot(&self, label: &str, seed: u64) -> Snapshot {
        let mut snap = Snapshot {
            schema_version: snapshot::SCHEMA_VERSION,
            label: label.to_owned(),
            seed,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            alerts: Vec::new(),
        };
        if let Some(g) = self.lock() {
            snap.counters = g.counters.clone();
            snap.gauges = g.gauges.clone();
            snap.histograms = g.histograms.clone();
            snap.alerts = g.alerts.iter().cloned().collect();
        }
        snap
    }
}

/// Applies `f` to the metric `name` (starting from its default), looking
/// it up by `&str` so that only a name seen for the first time is copied.
fn update<V: Default>(metrics: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match metrics.get_mut(name) {
        Some(v) => f(v),
        None => {
            let mut v = V::default();
            f(&mut v);
            metrics.insert(name.to_owned(), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.incr("a.b.c");
        t.gauge_set("g", 7);
        t.record("h", 3);
        assert_eq!(t.counter("a.b.c"), 0);
        assert_eq!(t.gauge("g"), None);
        assert!(t.histogram("h").is_none());
        let snap = t.snapshot("off", 1);
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn a_panic_inside_read_does_not_poison_the_registry() {
        let t = Telemetry::new();
        t.incr("before");
        let reader = t.clone();
        let caught = std::panic::catch_unwind(move || {
            reader.read(|_, _, _| panic!("a scraper bug"));
        });
        assert!(caught.is_err());
        t.incr("before");
        t.incr("after");
        assert_eq!(t.counter("before"), 2);
        assert_eq!(t.counter("after"), 1);
        let snap = t.snapshot("s", 0);
        assert_eq!(snap.counters.get("after"), Some(&1));
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::new();
        let u = t.clone();
        t.incr("x");
        u.incr("x");
        assert_eq!(t.counter("x"), 2);
    }
}
