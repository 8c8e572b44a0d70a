//! The cluster-wide shared object store.

use crate::backend::{BackendKind, BackendStats, StoreBackend};
use crate::fault::{FaultInjector, FaultPlan};
use crate::{StoreError, Value};
use dosgi_net::SimTime;
use dosgi_telemetry::Telemetry;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A stored value together with its monotonically increasing version.
#[derive(Debug, Clone, PartialEq)]
pub struct Versioned {
    /// Version counter: 1 on first write, +1 per update. The counter
    /// survives deletion (see [`crate::backend`]): a deleted key leaves a
    /// tombstone, and a re-created key continues counting from it, so a
    /// version number can never be observed twice for different states.
    pub version: u64,
    /// The value.
    pub value: Value,
}

/// I/O counters for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful read operations.
    pub reads: u64,
    /// Successful write operations (put, cas, delete).
    pub writes: u64,
    /// Total encoded bytes written.
    pub bytes_written: u64,
    /// Total encoded bytes read.
    pub bytes_read: u64,
    /// Operations rejected by the fault layer (brown-out, injected I/O
    /// error, torn batch).
    pub faults: u64,
    /// Writes skipped because the new value was byte-identical to the
    /// stored one (no version bump, no bytes moved).
    pub writes_skipped: u64,
    /// Encoded bytes those skipped writes would have moved — the traffic
    /// change detection saved.
    pub bytes_skipped: u64,
}

#[derive(Debug)]
struct Inner {
    backend: Box<dyn StoreBackend>,
    stats: StoreStats,
    telemetry: Telemetry,
}

/// The simulated SAN: a shared, durable, versioned key-value store.
///
/// Clones share the same underlying storage (`Arc` semantics), modeling the
/// paper's assumption that every node sees the same storage tier. Node
/// crashes in the simulation never touch this store — that is precisely the
/// property migration relies on.
///
/// Keys live inside string *namespaces* (e.g. `"framework/n3"`,
/// `"instance/42/data"`), which map onto the per-framework and per-bundle
/// storage areas of the OSGi specification.
///
/// # Backends
///
/// `SharedStore` is a thin fault-injecting, telemetry-emitting,
/// stats-accounting wrapper over a [`StoreBackend`]: the in-memory map
/// ([`SharedStore::new`], the default) or the log-structured store
/// ([`SharedStore::new_log`]). Every backend is held to the same contract
/// by the golden-fixture conformance suite in [`crate::conformance`] —
/// observable behaviour (results, versions, stats, fault interleaving)
/// must be byte-identical across backends.
///
/// # Fallibility
///
/// Every **data-plane** operation (`put`, `get`, `cas`, `delete`,
/// `read_namespace`, `delete_namespace`, `put_many`) consults the attached
/// [`FaultInjector`] first and returns `Err` during brown-outs or injected
/// I/O errors — see [`crate::fault`]. With no [`FaultPlan`] attached (the
/// default) these operations never fail for fault reasons. **Control-plane**
/// introspection (`list_keys`, `list_namespaces`, `namespace_bytes`,
/// `stats`, `peek`) is deliberately infallible: it models the simulation
/// harness's omniscient view, not a real client.
#[derive(Debug, Clone)]
pub struct SharedStore {
    inner: Arc<Mutex<Inner>>,
    faults: FaultInjector,
}

impl Default for SharedStore {
    fn default() -> Self {
        Self::with_kind(BackendKind::Map)
    }
}

impl SharedStore {
    /// Creates an empty store on the default (map) backend with an inert
    /// fault injector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store on the log-structured backend.
    pub fn new_log() -> Self {
        Self::with_kind(BackendKind::Log)
    }

    /// Creates an empty store on the named backend kind.
    pub fn with_kind(kind: BackendKind) -> Self {
        Self::with_backend(kind.build())
    }

    /// Wraps an explicit backend (e.g. a [`crate::LogBackend`] with a
    /// custom [`crate::LogConfig`] geometry).
    pub fn with_backend(backend: Box<dyn StoreBackend>) -> Self {
        SharedStore {
            inner: Arc::new(Mutex::new(Inner {
                backend,
                stats: StoreStats::default(),
                telemetry: Telemetry::default(),
            })),
            faults: FaultInjector::default(),
        }
    }

    /// The active backend's stable name (`"map"`, `"log"`).
    pub fn backend_name(&self) -> &'static str {
        self.lock().backend.name()
    }

    /// The active backend's maintenance counters (segments, compactions,
    /// live/dead bytes — diagnostic, not part of the conformance surface).
    pub fn backend_stats(&self) -> BackendStats {
        self.lock().backend.backend_stats()
    }

    /// Locks the shared state, explicitly adopting a poisoned lock: the
    /// store holds plain owned data, and every critical section leaves it
    /// structurally valid even if a caller's panic poisons the mutex.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fault(&self, op: &'static str) -> Result<(), StoreError> {
        let telemetry = self.lock().telemetry.clone();
        telemetry.incr("san.ops");
        self.faults.roll(op).inspect_err(|e| {
            self.lock().stats.faults += 1;
            telemetry.incr("san.faults");
            telemetry.incr(&format!("san.faults.{}", e.kind()));
        })
    }

    /// Attaches a telemetry handle (`san.*` metrics), shared by every
    /// clone of this store. Telemetry never affects fault injection: the
    /// injector's RNG stream is consumed identically with telemetry on
    /// or off.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        self.lock().telemetry = telemetry;
    }

    // ------------------------------------------------------------------
    // Fault layer wiring
    // ------------------------------------------------------------------

    /// The store's fault injector (a clone shares its plan and RNG
    /// stream, so tests can inspect or steer the faults it draws).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Installs a fault plan. See [`crate::fault`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.set_plan(plan);
    }

    /// Removes any fault plan; the store becomes infallible again.
    pub fn clear_faults(&self) {
        self.faults.clear();
    }

    /// Advances the fault clock (brown-out windows gate on it). The cluster
    /// driver calls this every simulation step.
    pub fn set_now(&self, now: SimTime) {
        self.faults.set_now(now);
    }

    /// Moves the fault clock forward to `now`, never back (see
    /// [`FaultInjector::advance_to`]). The real-clock runtime's workers
    /// each stamp it from the shared clock.
    pub fn advance_to(&self, now: SimTime) {
        self.faults.advance_to(now);
    }

    /// False while the store is inside an injected brown-out window.
    pub fn is_available(&self) -> bool {
        self.faults.is_available()
    }

    // ------------------------------------------------------------------
    // Data plane (fallible)
    // ------------------------------------------------------------------

    /// Writes `value` under `namespace/key`, returning the new version.
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    /// Change detection: if the new value encodes byte-identically to the
    /// stored one the write is skipped entirely — no version bump, no byte
    /// accounting, only `writes_skipped`/`san.writes.skipped_identical`.
    /// The fault roll still happens first, so the injector's RNG stream is
    /// identical whether or not the value changed.
    pub fn put(&self, namespace: &str, key: &str, value: Value) -> Result<u64, StoreError> {
        self.fault("put")?;
        let mut inner = self.lock();
        if let Some(version) = inner.backend.identical_live(namespace, key, &value) {
            inner.stats.writes_skipped += 1;
            inner.stats.bytes_skipped += value.encoded_len() as u64;
            let telemetry = inner.telemetry.clone();
            drop(inner);
            telemetry.incr("san.writes.skipped_identical");
            return Ok(version);
        }
        inner.stats.writes += 1;
        inner.stats.bytes_written += value.encoded_len() as u64;
        Ok(inner.backend.insert(namespace, key, value))
    }

    /// Atomically-intended multi-key write: all of `entries` into
    /// `namespace`, committed to the backend as one group. Under a
    /// torn-write fault only a strict prefix lands and
    /// [`StoreError::TornWrite`] reports how much; rewriting the full batch
    /// is the idempotent recovery.
    ///
    /// Keys and values may be owned or borrowed (`(String, Value)`,
    /// `(&str, &Value)`, …), so a caller holding its data elsewhere need
    /// not copy it into owned pairs just to write it.
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`] /
    /// [`StoreError::TornWrite`].
    pub fn put_many<K: AsRef<str>, V: Borrow<Value>>(
        &self,
        namespace: &str,
        entries: &[(K, V)],
    ) -> Result<usize, StoreError> {
        self.fault("put_many")?;
        let torn = self.faults.torn_len(entries.len());
        let persisted = torn.unwrap_or(entries.len());
        let mut inner = self.lock();
        let mut bytes = 0u64;
        let mut skipped = 0u64;
        let mut bytes_skipped = 0u64;
        // Per-entry change detection, same contract as `put`: an identical
        // entry costs nothing and keeps its version. `pending` carries the
        // batch-so-far state so a duplicate key compares against the value
        // queued just before it, not the pre-batch one.
        // Only a key that comes up again later in the batch needs its
        // queued value remembered, so the last entry never enters
        // `pending` and a one-entry batch allocates no map at all.
        let mut batch: Vec<(&str, &Value)> = Vec::with_capacity(persisted);
        let mut pending: HashMap<&str, &Value> = HashMap::new();
        for (i, (key, value)) in entries[..persisted].iter().enumerate() {
            let (key, value) = (key.as_ref(), value.borrow());
            // One size computation per entry (streamed, allocation-free)
            // serves change-detection stats and write accounting alike —
            // the value is never encoded just to be measured.
            let len = value.encoded_len() as u64;
            let identical = match pending.get(key) {
                Some(queued) => crate::codec::codec_eq(queued, value),
                None => inner
                    .backend
                    .identical_live(namespace, key, value)
                    .is_some(),
            };
            if identical {
                skipped += 1;
                bytes_skipped += len;
                continue;
            }
            bytes += len;
            batch.push((key, value));
            if i + 1 < persisted {
                pending.insert(key, value);
            }
        }
        if !batch.is_empty() {
            inner.backend.insert_many(namespace, &batch);
        }
        inner.stats.writes += persisted as u64 - skipped;
        inner.stats.writes_skipped += skipped;
        inner.stats.bytes_skipped += bytes_skipped;
        inner.stats.bytes_written += bytes;
        let telemetry = inner.telemetry.clone();
        match torn {
            Some(written) => {
                inner.stats.faults += 1;
                drop(inner);
                if skipped > 0 {
                    telemetry.add("san.writes.skipped_identical", skipped);
                }
                telemetry.incr("san.faults");
                telemetry.incr("san.faults.torn_write");
                Err(StoreError::TornWrite { written })
            }
            None => {
                drop(inner);
                if skipped > 0 {
                    telemetry.add("san.writes.skipped_identical", skipped);
                }
                Ok(persisted)
            }
        }
    }

    /// Reads the value under `namespace/key` (`Ok(None)` for a miss).
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    pub fn get(&self, namespace: &str, key: &str) -> Result<Option<Value>, StoreError> {
        Ok(self.get_versioned(namespace, key)?.map(|v| v.value))
    }

    /// Reads the value and its version.
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    pub fn get_versioned(
        &self,
        namespace: &str,
        key: &str,
    ) -> Result<Option<Versioned>, StoreError> {
        self.fault("get")?;
        let mut inner = self.lock();
        let v = inner.backend.get(namespace, key);
        if let Some(v) = &v {
            inner.stats.reads += 1;
            inner.stats.bytes_read += v.value.encoded_len() as u64;
        }
        Ok(v)
    }

    /// Compare-and-swap: writes `value` only if the current *live* version
    /// equals `expected` (use 0 for "key must not exist" — a deleted key
    /// counts as not existing). Returns the new version, which continues
    /// the key's monotonic counter: recreating a deleted key yields a
    /// version strictly greater than any the key ever had, never
    /// `expected + 1` re-used from before the delete.
    ///
    /// # Errors
    ///
    /// [`StoreError::CasConflict`] if the version does not match, plus
    /// fault-injected errors.
    pub fn cas(
        &self,
        namespace: &str,
        key: &str,
        expected: u64,
        value: Value,
    ) -> Result<u64, StoreError> {
        self.fault("cas")?;
        let mut inner = self.lock();
        let found = inner.backend.key_version(namespace, key).live();
        if found != expected {
            return Err(StoreError::CasConflict { expected, found });
        }
        let len = value.encoded_len() as u64;
        let version = inner.backend.insert(namespace, key, value);
        inner.stats.writes += 1;
        inner.stats.bytes_written += len;
        Ok(version)
    }

    /// Deletes `namespace/key`. The key's version counter survives as a
    /// tombstone: a later re-put of even an identical value gets a fresh
    /// version, so stale readers can never mistake the recreated key for
    /// the one they cached.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key is absent, plus fault-injected
    /// errors.
    pub fn delete(&self, namespace: &str, key: &str) -> Result<(), StoreError> {
        self.fault("delete")?;
        let mut inner = self.lock();
        if inner.backend.remove(namespace, key) {
            inner.stats.writes += 1;
            Ok(())
        } else {
            Err(StoreError::NotFound {
                namespace: namespace.to_owned(),
                key: key.to_owned(),
            })
        }
    }

    /// Deletes an entire namespace, returning how many keys it held. Every
    /// deleted key leaves a version tombstone (see [`delete`](Self::delete)).
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    pub fn delete_namespace(&self, namespace: &str) -> Result<usize, StoreError> {
        self.fault("delete_namespace")?;
        let mut inner = self.lock();
        let n = inner.backend.remove_namespace(namespace);
        if n > 0 {
            inner.stats.writes += 1;
        }
        Ok(n)
    }

    /// Reads a whole namespace as `(key, value)` pairs, sorted by key.
    ///
    /// # Errors
    ///
    /// Fault-injected [`StoreError::Unavailable`] / [`StoreError::Io`].
    pub fn read_namespace(&self, namespace: &str) -> Result<Vec<(String, Value)>, StoreError> {
        self.fault("read_namespace")?;
        let mut inner = self.lock();
        let pairs: Vec<(String, Value)> = inner
            .backend
            .read_namespace(namespace)
            .into_iter()
            .map(|(k, v)| (k, v.value))
            .collect();
        for (_, v) in &pairs {
            inner.stats.reads += 1;
            inner.stats.bytes_read += v.encoded_len() as u64;
        }
        Ok(pairs)
    }

    // ------------------------------------------------------------------
    // Control plane (infallible introspection)
    // ------------------------------------------------------------------

    /// Fault-free diagnostic read: the simulation harness's omniscient view
    /// of `namespace/key`, bypassing the fault layer and the I/O counters.
    /// Invariant checkers use this to inspect durable state *during* a
    /// brown-out; production paths must use [`get`](Self::get).
    pub fn peek(&self, namespace: &str, key: &str) -> Option<Value> {
        self.lock().backend.get(namespace, key).map(|v| v.value)
    }

    /// Like [`peek`](Self::peek) but with the version — the conformance
    /// suite's window onto the version vector.
    pub fn peek_versioned(&self, namespace: &str, key: &str) -> Option<Versioned> {
        self.lock().backend.get(namespace, key)
    }

    /// Keys in a namespace, sorted.
    pub fn list_keys(&self, namespace: &str) -> Vec<String> {
        self.lock().backend.list_keys(namespace)
    }

    /// All namespaces with at least one key, sorted.
    pub fn list_namespaces(&self) -> Vec<String> {
        self.lock().backend.list_namespaces()
    }

    /// A full omniscient dump of the live store — every namespace's
    /// key-sorted `(key, version, value)` rows — bypassing faults and
    /// stats. This is the byte surface the golden fixtures and the
    /// cross-backend equivalence tests compare.
    pub fn dump(&self) -> Vec<(String, Vec<(String, Versioned)>)> {
        let inner = self.lock();
        inner
            .backend
            .list_namespaces()
            .into_iter()
            .map(|ns| {
                let rows = inner.backend.read_namespace(&ns);
                (ns, rows)
            })
            .collect()
    }

    /// Total encoded size of a namespace in bytes (no stats impact) —
    /// the "how much state would a migration move" metric.
    pub fn namespace_bytes(&self, namespace: &str) -> u64 {
        self.lock().backend.namespace_bytes(namespace)
    }

    /// Total encoded size across every namespace equal to `prefix` or
    /// under `prefix/…` — an instance's full footprint (framework snapshot
    /// plus all bundle data areas).
    pub fn namespace_bytes_prefixed(&self, prefix: &str) -> u64 {
        let inner = self.lock();
        let sub = format!("{prefix}/");
        inner
            .backend
            .list_namespaces()
            .into_iter()
            .filter(|name| *name == prefix || name.starts_with(&sub))
            .map(|name| inner.backend.namespace_bytes(&name))
            .sum()
    }

    /// Current I/O counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Resets the I/O counters (between experiment phases).
    pub fn reset_stats(&self) {
        self.lock().stats = StoreStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every store-level unit test runs against every registered backend:
    /// the wrapper's contract is backend-independent by construction.
    fn each_backend(test: impl Fn(SharedStore)) {
        for kind in BackendKind::all() {
            test(SharedStore::with_kind(kind));
        }
    }

    #[test]
    fn put_get_round_trip_and_versions() {
        each_backend(|s| {
            assert_eq!(s.put("ns", "k", Value::Int(1)), Ok(1));
            assert_eq!(s.put("ns", "k", Value::Int(2)), Ok(2));
            assert_eq!(s.get("ns", "k"), Ok(Some(Value::Int(2))));
            assert_eq!(s.get_versioned("ns", "k").unwrap().unwrap().version, 2);
            assert_eq!(s.get("ns", "missing"), Ok(None));
        });
    }

    #[test]
    fn clones_share_storage() {
        each_backend(|s| {
            let s2 = s.clone();
            s.put("ns", "k", Value::Int(1)).unwrap();
            assert_eq!(s2.get("ns", "k"), Ok(Some(Value::Int(1))));
        });
    }

    #[test]
    fn cas_succeeds_only_on_matching_version() {
        each_backend(|s| {
            // Create-if-absent.
            assert_eq!(s.cas("ns", "k", 0, Value::Int(1)), Ok(1));
            assert_eq!(
                s.cas("ns", "k", 0, Value::Int(9)),
                Err(StoreError::CasConflict {
                    expected: 0,
                    found: 1
                })
            );
            assert_eq!(s.cas("ns", "k", 1, Value::Int(2)), Ok(2));
            assert_eq!(s.get("ns", "k"), Ok(Some(Value::Int(2))));
        });
    }

    #[test]
    fn delete_and_not_found() {
        each_backend(|s| {
            s.put("ns", "k", Value::Int(1)).unwrap();
            s.delete("ns", "k").unwrap();
            assert_eq!(s.get("ns", "k"), Ok(None));
            assert!(matches!(
                s.delete("ns", "k"),
                Err(StoreError::NotFound { .. })
            ));
        });
    }

    /// Regression for the stale-reader hazard: a delete followed by a
    /// re-put of the *identical* value must bump the version. Before the
    /// tombstone fix the recreated key reused its old version, so a PR 4
    /// change-detecting reader holding the old `(value, version)` pair
    /// would skip a re-read across the delete window and never observe
    /// that the key had been deleted and recreated.
    #[test]
    fn delete_then_identical_reput_always_bumps_the_version() {
        each_backend(|s| {
            let v = Value::Str("same".into());
            assert_eq!(s.put("ns", "k", v.clone()), Ok(1));
            s.delete("ns", "k").unwrap();
            let recreated = s.put("ns", "k", v.clone()).unwrap();
            assert!(
                recreated > 1,
                "recreated key must not reuse version 1 (got {recreated})"
            );
            assert_eq!(recreated, 2, "counter continues past the tombstone");
            // And change detection still works on the recreated key.
            assert_eq!(s.put("ns", "k", v.clone()), Ok(2));
            assert_eq!(s.stats().writes_skipped, 1);
        });
    }

    /// Same hazard through the namespace-wide delete: `delete_namespace`
    /// must tombstone every key it removes.
    #[test]
    fn delete_namespace_then_reput_always_bumps_versions() {
        each_backend(|s| {
            s.put("ns", "a", Value::Int(1)).unwrap();
            s.put("ns", "a", Value::Int(2)).unwrap();
            s.put("ns", "b", Value::Int(3)).unwrap();
            assert_eq!(s.delete_namespace("ns"), Ok(2));
            assert_eq!(s.put("ns", "a", Value::Int(2)), Ok(3), "a was at 2");
            assert_eq!(s.put("ns", "b", Value::Int(3)), Ok(2), "b was at 1");
        });
    }

    /// A deleted key counts as absent for `cas(expected = 0)`, but the
    /// granted version continues the monotonic counter.
    #[test]
    fn cas_create_after_delete_continues_the_counter() {
        each_backend(|s| {
            s.put("ns", "k", Value::Int(1)).unwrap();
            s.put("ns", "k", Value::Int(2)).unwrap();
            s.delete("ns", "k").unwrap();
            assert_eq!(
                s.cas("ns", "k", 2, Value::Int(9)),
                Err(StoreError::CasConflict {
                    expected: 2,
                    found: 0
                }),
                "a tombstoned key reads as absent to cas"
            );
            assert_eq!(s.cas("ns", "k", 0, Value::Int(9)), Ok(3));
        });
    }

    #[test]
    fn namespace_operations() {
        each_backend(|s| {
            s.put("a", "k1", Value::Int(1)).unwrap();
            s.put("a", "k2", Value::Int(2)).unwrap();
            s.put("b", "k3", Value::Int(3)).unwrap();
            assert_eq!(s.list_keys("a"), vec!["k1", "k2"]);
            assert_eq!(s.list_namespaces(), vec!["a", "b"]);
            let all = s.read_namespace("a").unwrap();
            assert_eq!(all.len(), 2);
            assert_eq!(all[0], ("k1".to_owned(), Value::Int(1)));
            assert_eq!(s.delete_namespace("a"), Ok(2));
            assert_eq!(s.list_namespaces(), vec!["b"]);
            assert_eq!(s.delete_namespace("a"), Ok(0));
        });
    }

    #[test]
    fn stats_account_bytes() {
        each_backend(|s| {
            let v = Value::Str("hello".into());
            let len = v.encoded_len() as u64;
            s.put("ns", "k", v).unwrap();
            let _ = s.get("ns", "k").unwrap();
            let st = s.stats();
            assert_eq!(st.writes, 1);
            assert_eq!(st.reads, 1);
            assert_eq!(st.bytes_written, len);
            assert_eq!(st.bytes_read, len);
            assert_eq!(st.faults, 0);
            s.reset_stats();
            assert_eq!(s.stats(), StoreStats::default());
        });
    }

    #[test]
    fn namespace_bytes_reports_encoded_size() {
        each_backend(|s| {
            let v1 = Value::Str("abc".into());
            let v2 = Value::Int(7);
            let expect = (v1.encoded_len() + v2.encoded_len()) as u64;
            s.put("ns", "k1", v1).unwrap();
            s.put("ns", "k2", v2).unwrap();
            assert_eq!(s.namespace_bytes("ns"), expect);
            assert_eq!(s.namespace_bytes("other"), 0);
        });
    }

    #[test]
    fn prefixed_bytes_cover_sub_namespaces_only() {
        each_backend(|s| {
            s.put("inst/a", "k", Value::Int(1)).unwrap();
            s.put("inst/a/data/x", "k", Value::Int(2)).unwrap();
            s.put("inst/ab", "k", Value::Int(3)).unwrap(); // sibling, NOT under inst/a
            let expect = Value::Int(1).encoded_len() as u64 + Value::Int(2).encoded_len() as u64;
            assert_eq!(s.namespace_bytes_prefixed("inst/a"), expect);
            assert!(s.namespace_bytes_prefixed("inst/ab") > 0);
            assert_eq!(s.namespace_bytes_prefixed("nope"), 0);
        });
    }

    #[test]
    fn misses_do_not_count_as_reads() {
        each_backend(|s| {
            let _ = s.get("ns", "missing").unwrap();
            assert_eq!(s.stats().reads, 0);
        });
    }

    #[test]
    fn identical_put_skips_version_bump_and_bytes() {
        each_backend(|s| {
            let v = Value::Str("same".into());
            assert_eq!(s.put("ns", "k", v.clone()), Ok(1));
            let before = s.stats();
            // Identical rewrite: same version back, nothing counted as a write.
            assert_eq!(s.put("ns", "k", v.clone()), Ok(1));
            let after = s.stats();
            assert_eq!(after.writes, before.writes);
            assert_eq!(after.bytes_written, before.bytes_written);
            assert_eq!(after.writes_skipped, before.writes_skipped + 1);
            assert_eq!(s.get_versioned("ns", "k").unwrap().unwrap().version, 1);
            // A different value still bumps.
            assert_eq!(s.put("ns", "k", Value::Str("new".into())), Ok(2));
            assert_eq!(s.stats().writes, before.writes + 1);
        });
    }

    #[test]
    fn identical_put_uses_codec_equality_for_floats() {
        each_backend(|s| {
            s.put("ns", "f", Value::Float(0.0)).unwrap();
            // -0.0 == 0.0 under PartialEq but encodes differently: must write.
            assert_eq!(s.put("ns", "f", Value::Float(-0.0)), Ok(2));
            // Bit-identical NaN is a skip even though NaN != NaN.
            s.put("ns", "n", Value::Float(f64::NAN)).unwrap();
            assert_eq!(s.put("ns", "n", Value::Float(f64::NAN)), Ok(1));
            assert_eq!(s.stats().writes_skipped, 1);
        });
    }

    #[test]
    fn put_many_skips_identical_entries_only() {
        each_backend(|s| {
            s.put("ns", "a", Value::Int(1)).unwrap();
            s.put("ns", "b", Value::Int(2)).unwrap();
            s.reset_stats();
            let entries = vec![
                ("a".to_owned(), Value::Int(1)),  // identical → skipped
                ("b".to_owned(), Value::Int(22)), // changed → written
                ("c".to_owned(), Value::Int(3)),  // new → written
            ];
            assert_eq!(s.put_many("ns", &entries), Ok(3));
            let st = s.stats();
            assert_eq!(st.writes, 2);
            assert_eq!(st.writes_skipped, 1);
            assert_eq!(
                st.bytes_written,
                (Value::Int(22).encoded_len() + Value::Int(3).encoded_len()) as u64
            );
            assert_eq!(s.get_versioned("ns", "a").unwrap().unwrap().version, 1);
            assert_eq!(s.get_versioned("ns", "b").unwrap().unwrap().version, 2);
        });
    }

    #[test]
    fn put_many_duplicate_keys_compare_against_the_batch() {
        each_backend(|s| {
            // Second occurrence identical to the first: skipped (it compares
            // against the value queued within the batch, not pre-batch state).
            let entries = vec![
                ("k".to_owned(), Value::Int(1)),
                ("k".to_owned(), Value::Int(1)),
            ];
            assert_eq!(s.put_many("ns", &entries), Ok(2));
            let st = s.stats();
            assert_eq!(st.writes, 1);
            assert_eq!(st.writes_skipped, 1);
            assert_eq!(s.get_versioned("ns", "k").unwrap().unwrap().version, 1);
            // Differing duplicate bumps twice.
            let entries = vec![
                ("j".to_owned(), Value::Int(1)),
                ("j".to_owned(), Value::Int(2)),
            ];
            assert_eq!(s.put_many("ns", &entries), Ok(2));
            assert_eq!(s.get_versioned("ns", "j").unwrap().unwrap().version, 2);
        });
    }

    #[test]
    fn put_many_writes_all_entries_when_healthy() {
        each_backend(|s| {
            let entries = vec![
                ("a".to_owned(), Value::Int(1)),
                ("b".to_owned(), Value::Int(2)),
            ];
            assert_eq!(s.put_many("ns", &entries), Ok(2));
            assert_eq!(s.get("ns", "a"), Ok(Some(Value::Int(1))));
            assert_eq!(s.get("ns", "b"), Ok(Some(Value::Int(2))));
            assert_eq!(s.stats().writes, 2);
        });
    }

    #[test]
    fn torn_put_many_persists_exactly_the_reported_prefix() {
        each_backend(|s| {
            s.set_fault_plan(FaultPlan::none().with_torn_writes(1.0));
            let entries: Vec<(String, Value)> =
                (0..6).map(|i| (format!("k{i}"), Value::Int(i))).collect();
            let Err(StoreError::TornWrite { written }) = s.put_many("ns", &entries) else {
                panic!("rate-1.0 torn plan must tear");
            };
            assert!(written < entries.len());
            assert_eq!(s.list_keys("ns").len(), written);
            // Recovery: rewriting the whole batch is idempotent and complete.
            s.clear_faults();
            assert_eq!(s.put_many("ns", &entries), Ok(6));
            assert_eq!(s.list_keys("ns").len(), 6);
        });
    }

    #[test]
    fn brownout_blocks_data_plane_but_not_peek() {
        each_backend(|s| {
            s.put("ns", "k", Value::Int(7)).unwrap();
            s.set_fault_plan(
                FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(10)),
            );
            assert!(!s.is_available());
            assert_eq!(s.get("ns", "k"), Err(StoreError::Unavailable));
            assert_eq!(
                s.put("ns", "k", Value::Int(8)),
                Err(StoreError::Unavailable)
            );
            assert_eq!(s.read_namespace("ns"), Err(StoreError::Unavailable));
            assert_eq!(s.delete_namespace("ns"), Err(StoreError::Unavailable));
            // The omniscient observer still sees the durable value.
            assert_eq!(s.peek("ns", "k"), Some(Value::Int(7)));
            assert!(s.stats().faults >= 4);
            // Time moves past the window: the store heals.
            s.set_now(SimTime::from_secs(10));
            assert!(s.is_available());
            assert_eq!(s.get("ns", "k"), Ok(Some(Value::Int(7))));
        });
    }

    #[test]
    fn flaky_store_fails_deterministically_per_seed() {
        let run = |kind, seed| {
            let s = SharedStore::with_kind(kind);
            s.set_fault_plan(FaultPlan::flaky(0.5, seed));
            (0..64)
                .map(|i| s.put("ns", &format!("k{i}"), Value::Int(i)).is_err())
                .collect::<Vec<_>>()
        };
        for kind in BackendKind::all() {
            assert_eq!(run(kind, 7), run(kind, 7));
            assert_ne!(
                run(kind, 7),
                run(kind, 8),
                "different seeds, different fault pattern"
            );
        }
        // And the fault pattern is backend-independent: the injector's RNG
        // stream is consumed by the wrapper, above the backend seam.
        assert_eq!(run(BackendKind::Map, 7), run(BackendKind::Log, 7));
    }

    #[test]
    fn dump_covers_every_live_namespace_with_versions() {
        each_backend(|s| {
            s.put("b", "k", Value::Int(1)).unwrap();
            s.put("a", "k", Value::Int(2)).unwrap();
            s.put("a", "k", Value::Int(3)).unwrap();
            s.delete("b", "k").unwrap();
            let dump = s.dump();
            assert_eq!(dump.len(), 1, "namespace b is all tombstones");
            assert_eq!(dump[0].0, "a");
            assert_eq!(dump[0].1[0].1.version, 2);
            assert_eq!(s.peek_versioned("a", "k").unwrap().version, 2);
        });
    }

    /// A batch given as borrowed `(&str, &Value)` pairs writes exactly
    /// what the same batch as owned `(String, Value)` pairs writes —
    /// versions, values and stats — and both match applying the entries
    /// one `put` at a time, duplicates and unsorted keys included.
    #[test]
    fn prop_borrowed_and_owned_batches_write_identically() {
        use dosgi_testkit::{prop, prop_verify_eq, Gen};
        // Few keys and values, so batches repeat keys and rewrite stored
        // values byte-identically.
        let entry = Gen::new(|rng| {
            (
                format!("k{}", rng.u64_below(5)),
                Value::Int(rng.u64_below(3) as i64),
            )
        });
        let batch = prop::vecs(entry, 0, 10);
        let case = Gen::new(move |rng| (batch.sample(rng), batch.sample(rng)));
        prop::check(
            "prop_borrowed_and_owned_batches_write_identically",
            &case,
            |(before, batch)| {
                for kind in BackendKind::all() {
                    let [owned, borrowed, one_by_one] =
                        [(); 3].map(|_| SharedStore::with_kind(kind));
                    for s in [&owned, &borrowed, &one_by_one] {
                        s.put_many("ns", before).expect("no faults armed");
                    }
                    let refs: Vec<(&str, &Value)> =
                        batch.iter().map(|(k, v)| (k.as_str(), v)).collect();
                    prop_verify_eq!(owned.put_many("ns", batch), Ok(batch.len()));
                    prop_verify_eq!(borrowed.put_many("ns", &refs), Ok(batch.len()));
                    for (k, v) in batch {
                        one_by_one.put("ns", k, v.clone()).expect("no faults armed");
                    }
                    prop_verify_eq!(owned.dump(), borrowed.dump());
                    prop_verify_eq!(owned.stats(), borrowed.stats());
                    prop_verify_eq!(owned.dump(), one_by_one.dump());
                    prop_verify_eq!(owned.stats(), one_by_one.stats());
                }
                Ok(())
            },
        );
    }
}
