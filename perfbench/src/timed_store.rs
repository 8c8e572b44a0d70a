//! A timing [`StoreBackend`] decorator.
//!
//! Wraps any backend, forwards every call unchanged, and counts calls and
//! nanoseconds for the four data-path operations the workloads exercise:
//! `get`, `insert`, `insert_many` and `read_namespace`. The counters are
//! shared through an `Arc`, so the benchmark reads them while the store
//! lives inside a running cluster.

use dosgi_san::{BackendStats, KeyVersion, StoreBackend, Value, Versioned};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The timed operations, in report order.
pub const OPS: [&str; 4] = ["get", "insert", "insert_many", "read_namespace"];

/// Calls and nanoseconds per timed operation.
#[derive(Debug, Default)]
pub struct BackendCounters {
    calls: [AtomicU64; 4],
    ns: [AtomicU64; 4],
}

impl BackendCounters {
    /// `(calls, ns)` per operation, indexed like [`OPS`].
    pub fn read(&self) -> [(u64, u64); 4] {
        std::array::from_fn(|i| {
            (
                self.calls[i].load(Ordering::Relaxed),
                self.ns[i].load(Ordering::Relaxed),
            )
        })
    }
}

/// The decorator.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn StoreBackend>,
    counters: Arc<BackendCounters>,
}

impl TimedBackend {
    /// Wraps `inner`; read the timings through the returned counters.
    pub fn new(inner: Box<dyn StoreBackend>) -> (Self, Arc<BackendCounters>) {
        let counters = Arc::new(BackendCounters::default());
        (
            TimedBackend {
                inner,
                counters: counters.clone(),
            },
            counters,
        )
    }

    fn record(&self, op: usize, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.counters.calls[op].fetch_add(1, Ordering::Relaxed);
        self.counters.ns[op].fetch_add(ns, Ordering::Relaxed);
    }
}

impl StoreBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, namespace: &str, key: &str) -> Option<Versioned> {
        let t0 = Instant::now();
        let v = self.inner.get(namespace, key);
        self.record(0, t0);
        v
    }

    fn key_version(&self, namespace: &str, key: &str) -> KeyVersion {
        self.inner.key_version(namespace, key)
    }

    fn identical_live(&self, namespace: &str, key: &str, value: &Value) -> Option<u64> {
        self.inner.identical_live(namespace, key, value)
    }

    fn insert(&mut self, namespace: &str, key: &str, value: Value) -> u64 {
        let t0 = Instant::now();
        let v = self.inner.insert(namespace, key, value);
        self.record(1, t0);
        v
    }

    fn insert_many(&mut self, namespace: &str, entries: &[(&str, &Value)]) {
        let t0 = Instant::now();
        self.inner.insert_many(namespace, entries);
        self.record(2, t0);
    }

    fn remove(&mut self, namespace: &str, key: &str) -> bool {
        self.inner.remove(namespace, key)
    }

    fn remove_namespace(&mut self, namespace: &str) -> usize {
        self.inner.remove_namespace(namespace)
    }

    fn read_namespace(&self, namespace: &str) -> Vec<(String, Versioned)> {
        let t0 = Instant::now();
        let v = self.inner.read_namespace(namespace);
        self.record(3, t0);
        v
    }

    fn list_keys(&self, namespace: &str) -> Vec<String> {
        self.inner.list_keys(namespace)
    }

    fn list_namespaces(&self) -> Vec<String> {
        self.inner.list_namespaces()
    }

    fn namespace_bytes(&self, namespace: &str) -> u64 {
        self.inner.namespace_bytes(namespace)
    }

    fn backend_stats(&self) -> BackendStats {
        self.inner.backend_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_san::MapBackend;
    use dosgi_testkit::prop::{self, Gen};
    use dosgi_testkit::prop_verify_eq;

    /// One backend call with its arguments, drawn from a small key space
    /// so that overwrites, tombstones and re-inserts all happen.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u8, u8),
        KeyVersion(u8, u8),
        Identical(u8, u8, i64),
        Insert(u8, u8, i64),
        InsertMany(u8, Vec<(u8, i64)>),
        Remove(u8, u8),
        RemoveNamespace(u8),
        ReadNamespace(u8),
        ListKeys(u8),
        ListNamespaces,
        NamespaceBytes(u8),
    }

    fn ops() -> Gen<Vec<Op>> {
        let op = Gen::new(|rng| {
            let ns = rng.u64_below(3) as u8;
            let key = rng.u64_below(5) as u8;
            let v = rng.i64_in(-3, 3);
            match rng.u64_below(11) {
                0 => Op::Get(ns, key),
                1 => Op::KeyVersion(ns, key),
                2 => Op::Identical(ns, key, v),
                3 | 4 => Op::Insert(ns, key, v),
                5 => Op::InsertMany(
                    ns,
                    (0..rng.u64_below(4))
                        .map(|_| (rng.u64_below(5) as u8, rng.i64_in(-3, 3)))
                        .collect(),
                ),
                6 => Op::Remove(ns, key),
                7 => Op::RemoveNamespace(ns),
                8 => Op::ReadNamespace(ns),
                9 => Op::ListKeys(ns),
                _ => match key {
                    0 => Op::ListNamespaces,
                    _ => Op::NamespaceBytes(ns),
                },
            }
        });
        prop::vecs(op, 0, 60)
    }

    /// Applies `op` and renders every observable result as text.
    fn apply(b: &mut dyn StoreBackend, op: &Op) -> String {
        let ns = |n: &u8| format!("ns{n}");
        let key = |k: &u8| format!("k{k}");
        match op {
            Op::Get(n, k) => format!("{:?}", b.get(&ns(n), &key(k))),
            Op::KeyVersion(n, k) => format!("{:?}", b.key_version(&ns(n), &key(k))),
            Op::Identical(n, k, v) => {
                format!("{:?}", b.identical_live(&ns(n), &key(k), &Value::Int(*v)))
            }
            Op::Insert(n, k, v) => format!("{:?}", b.insert(&ns(n), &key(k), Value::Int(*v))),
            Op::InsertMany(n, entries) => {
                let keys: Vec<String> = entries.iter().map(|(k, _)| key(k)).collect();
                let values: Vec<Value> = entries.iter().map(|(_, v)| Value::Int(*v)).collect();
                let refs: Vec<(&str, &Value)> =
                    keys.iter().map(String::as_str).zip(values.iter()).collect();
                b.insert_many(&ns(n), &refs);
                String::new()
            }
            Op::Remove(n, k) => format!("{:?}", b.remove(&ns(n), &key(k))),
            Op::RemoveNamespace(n) => format!("{:?}", b.remove_namespace(&ns(n))),
            Op::ReadNamespace(n) => format!("{:?}", b.read_namespace(&ns(n))),
            Op::ListKeys(n) => format!("{:?}", b.list_keys(&ns(n))),
            Op::ListNamespaces => format!("{:?}", b.list_namespaces()),
            Op::NamespaceBytes(n) => format!("{:?}", b.namespace_bytes(&ns(n))),
        }
    }

    #[test]
    fn decorated_map_behaves_exactly_like_plain_map() {
        prop::check("timed backend is transparent", &ops(), |ops| {
            let mut plain = MapBackend::new();
            let (mut timed, counters) = TimedBackend::new(Box::new(MapBackend::new()));
            for op in ops {
                prop_verify_eq!(apply(&mut plain, op), apply(&mut timed, op), "op {op:?}");
            }
            prop_verify_eq!(plain.backend_stats(), timed.backend_stats());
            prop_verify_eq!(timed.name(), "map");
            let timed_calls: u64 = counters.read().iter().map(|(c, _)| c).sum();
            let expected = ops
                .iter()
                .filter(|op| {
                    matches!(
                        op,
                        Op::Get(..) | Op::Insert(..) | Op::InsertMany(..) | Op::ReadNamespace(_)
                    )
                })
                .count() as u64;
            prop_verify_eq!(timed_calls, expected);
            Ok(())
        });
    }
}
