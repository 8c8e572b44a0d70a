//! # dosgi-telemetry — cluster-wide metrics, spans, and snapshots
//!
//! A zero-dependency observability layer for the dosgi stack:
//!
//! * a registry of named **counters** (`u64`, monotonic), **gauges**
//!   (`i64`, last-write-wins), and log-bucketed **histograms**
//!   ([`Histogram`]);
//! * **sim-time span tracing** — [`Telemetry::span_enter`] /
//!   [`Telemetry::span_exit`] with parent nesting derived from the open
//!   span stack, closed spans kept in a bounded ring buffer (overflow
//!   drops the oldest span and increments `telemetry.dropped_spans`);
//! * a stable, schema-versioned **JSON snapshot** writer ([`Snapshot`])
//!   whose output is byte-deterministic: `BTreeMap` key order, integer
//!   arithmetic only, and simulated timestamps only.
//!
//! ## Determinism contract
//!
//! Telemetry is *passive*: it never reads the wall clock, never consumes
//! randomness, and never influences control flow in the instrumented
//! code. All timestamps fed to spans are simulated-time microseconds
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
pub use snapshot::{ClosedSpan, OpenSpan, Snapshot, SCHEMA_VERSION};
pub use trace::{
    FlightRecorder, TraceContext, TraceEvent, TraceLog, TraceRef, DEFAULT_EVENT_CAPACITY,
    TRACE_SCHEMA_VERSION,
};

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// Counter name incremented when the closed-span ring buffer overflows.
pub const DROPPED_SPANS: &str = "telemetry.dropped_spans";

/// Counter name incremented when the alert timeline overflows.
pub const DROPPED_ALERTS: &str = "telemetry.dropped_alerts";

/// Default capacity of the closed-span ring buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

/// Capacity of the alert timeline (alert transitions are sparse; a run
/// that overflows this is itself an alerting bug worth seeing).
pub const ALERT_CAPACITY: usize = 1024;

/// Identifier returned by [`Telemetry::span_enter`].
///
/// `SpanId(0)` is the reserved *null* id handed out by disabled handles;
/// enabled registries start numbering at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id (never matches a live span).
    pub const NONE: SpanId = SpanId(0);
}

struct LiveSpan {
    id: u64,
    name: String,
    start_us: u64,
    parent: Option<u64>,
}

struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    next_span: u64,
    open: Vec<LiveSpan>,
    closed: VecDeque<ClosedSpan>,
    span_capacity: usize,
    alerts: VecDeque<AlertEvent>,
}

impl Inner {
    fn new(span_capacity: usize) -> Self {
        Inner {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            next_span: 1,
            open: Vec::new(),
            closed: VecDeque::new(),
            span_capacity,
            alerts: VecDeque::new(),
        }
    }
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
    /// An enabled registry with the default span-ring capacity.
    pub fn new() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled registry keeping at most `capacity` closed spans.
    pub fn with_span_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner::new(capacity.max(1))))),
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

    /// Open a span named `name` at simulated time `now_us`.
    ///
    /// The span's parent is the most recently opened still-open span.
    /// Disabled handles return [`SpanId::NONE`].
    pub fn span_enter(&self, name: &str, now_us: u64) -> SpanId {
        let Some(mut g) = self.lock() else {
            return SpanId::NONE;
        };
        let id = g.next_span;
        g.next_span += 1;
        let parent = g.open.last().map(|s| s.id);
        g.open.push(LiveSpan {
            id,
            name: name.to_owned(),
            start_us: now_us,
            parent,
        });
        SpanId(id)
    }

    /// Close the span `id` at simulated time `now_us`.
    ///
    /// Returns `false` (and records nothing) when `id` does not name an
    /// open span — an exit-without-enter is rejected, not invented. On a
    /// disabled handle this is an accepted no-op (`true`), matching the
    /// [`SpanId::NONE`] its `span_enter` handed out.
    pub fn span_exit(&self, id: SpanId, now_us: u64) -> bool {
        let Some(mut g) = self.lock() else {
            return true;
        };
        let Some(pos) = g.open.iter().rposition(|s| s.id == id.0) else {
            update(&mut g.counters, "telemetry.rejected_span_exits", |c| {
                *c += 1
            });
            return false;
        };
        let live = g.open.remove(pos);
        if g.closed.len() >= g.span_capacity {
            g.closed.pop_front();
            update(&mut g.counters, DROPPED_SPANS, |c| *c += 1);
        }
        g.closed.push_back(ClosedSpan {
            id: live.id,
            name: live.name,
            start_us: live.start_us,
            end_us: now_us,
            parent: live.parent,
        });
        true
    }

    /// Number of currently open spans.
    pub fn open_spans(&self) -> usize {
        self.lock().map(|g| g.open.len()).unwrap_or(0)
    }

    /// Materialize a deterministic snapshot of everything recorded so
    /// far. Open (unbalanced) spans are reported as open, not silently
    /// closed. The registry keeps accumulating afterwards.
    pub fn snapshot(&self, label: &str, seed: u64) -> Snapshot {
        let mut snap = Snapshot {
            schema_version: snapshot::SCHEMA_VERSION,
            label: label.to_owned(),
            seed,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: Vec::new(),
            open_spans: Vec::new(),
            alerts: Vec::new(),
        };
        if let Some(g) = self.lock() {
            snap.counters = g.counters.clone();
            snap.gauges = g.gauges.clone();
            snap.histograms = g.histograms.clone();
            snap.alerts = g.alerts.iter().cloned().collect();
            snap.spans = g.closed.iter().cloned().collect();
            snap.open_spans = g
                .open
                .iter()
                .map(|s| OpenSpan {
                    id: s.id,
                    name: s.name.clone(),
                    start_us: s.start_us,
                    parent: s.parent,
                })
                .collect();
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
        let id = t.span_enter("s", 10);
        assert_eq!(id, SpanId::NONE);
        assert!(t.span_exit(id, 20));
        let snap = t.snapshot("off", 1);
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
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

    #[test]
    fn span_nesting_assigns_parents() {
        let t = Telemetry::new();
        let outer = t.span_enter("outer", 0);
        let inner = t.span_enter("inner", 5);
        assert!(t.span_exit(inner, 9));
        assert!(t.span_exit(outer, 20));
        let snap = t.snapshot("s", 0);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "inner");
        assert_eq!(snap.spans[0].parent, Some(outer.0));
        assert_eq!(snap.spans[1].name, "outer");
        assert_eq!(snap.spans[1].parent, None);
    }

    #[test]
    fn exit_without_enter_is_rejected() {
        let t = Telemetry::new();
        assert!(!t.span_exit(SpanId(999), 5));
        assert!(!t.span_exit(SpanId::NONE, 5));
        let real = t.span_enter("real", 0);
        assert!(t.span_exit(real, 1));
        // Double-exit of the same id is also an exit-without-enter.
        assert!(!t.span_exit(real, 2));
        assert_eq!(t.counter("telemetry.rejected_span_exits"), 3);
        assert_eq!(t.snapshot("s", 0).spans.len(), 1);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let t = Telemetry::with_span_capacity(2);
        for i in 0..4u64 {
            let id = t.span_enter(&format!("s{i}"), i * 10);
            assert!(t.span_exit(id, i * 10 + 1));
        }
        let snap = t.snapshot("s", 0);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "s2");
        assert_eq!(snap.spans[1].name, "s3");
        assert_eq!(snap.counters.get(DROPPED_SPANS), Some(&2));
    }

    #[test]
    fn unbalanced_spans_reported_as_open() {
        let t = Telemetry::new();
        let a = t.span_enter("left-open", 3);
        let b = t.span_enter("closed", 4);
        assert!(t.span_exit(b, 6));
        let snap = t.snapshot("s", 0);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.open_spans.len(), 1);
        assert_eq!(snap.open_spans[0].name, "left-open");
        assert_eq!(snap.open_spans[0].id, a.0);
        assert_eq!(snap.open_spans[0].start_us, 3);
        assert_eq!(t.open_spans(), 1);
    }

    #[test]
    fn exiting_parent_before_child_keeps_child_recorded() {
        let t = Telemetry::new();
        let outer = t.span_enter("outer", 0);
        let inner = t.span_enter("inner", 1);
        // Unbalanced: outer exits first; inner stays open with its
        // parent reference intact.
        assert!(t.span_exit(outer, 2));
        assert!(t.span_exit(inner, 3));
        let snap = t.snapshot("s", 0);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[1].name, "inner");
        assert_eq!(snap.spans[1].parent, Some(outer.0));
    }
}
