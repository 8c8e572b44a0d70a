//! The service registry.

use crate::{
    BundleId, CallContext, Filter, PropValue, Service, ServiceError, ServiceEvent,
    ServiceEventKind, ServiceId, UsageLedger,
};
use dosgi_san::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, RwLock};

/// A registered service: metadata plus the (type-erased) implementation.
pub struct ServiceRecord {
    /// The service's id.
    pub id: ServiceId,
    /// The bundle that registered it.
    pub owner: BundleId,
    /// The interface names it is registered under.
    pub interfaces: Vec<String>,
    /// Its property dictionary (includes the auto-set `objectClass`,
    /// `service.id` and `service.ranking` keys, as in OSGi).
    pub properties: BTreeMap<String, PropValue>,
    /// Its ranking; higher wins ties in [`ServiceRegistry::best`].
    pub ranking: i64,
    implementation: Box<dyn Service>,
}

impl fmt::Debug for ServiceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceRecord")
            .field("id", &self.id)
            .field("owner", &self.owner)
            .field("interfaces", &self.interfaces)
            .field("ranking", &self.ranking)
            .finish_non_exhaustive()
    }
}

/// Immutable registration metadata published to concurrent readers: every
/// field of a [`ServiceRecord`] except the (necessarily exclusive)
/// implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMeta {
    /// The service's id.
    pub id: ServiceId,
    /// The bundle that registered it.
    pub owner: BundleId,
    /// The interface names it is registered under.
    pub interfaces: Vec<String>,
    /// Its property dictionary.
    pub properties: BTreeMap<String, PropValue>,
    /// Its ranking.
    pub ranking: i64,
}

/// Number of independent read shards. Interface names hash onto shards, so
/// concurrent lookups of different interfaces almost never contend on the
/// same lock; a power of two keeps the modulo a mask.
const SHARD_COUNT: usize = 16;

/// Stable FNV-1a over the interface name — must not vary across runs or
/// threads (shard choice is part of no observable behavior, but stability
/// keeps reasoning simple).
fn shard_of(interface: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in interface.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) & (SHARD_COUNT - 1)
}

/// One shard's published index: interface → matching registrations,
/// pre-sorted by ranking descending then id ascending (the OSGi tie-break)
/// so readers never sort.
#[derive(Debug, Default)]
struct ShardIndex {
    by_interface: BTreeMap<String, Arc<[Arc<ServiceMeta>]>>,
}

/// A cloneable, `Send + Sync` read handle onto the registry's
/// interface index — the concurrent lookup path for the real-clock
/// runtime.
///
/// Copy-on-write sharding: writers ([`ServiceRegistry::register`] and
/// friends) rebuild only the affected interface's entry inside its shard
/// and swap the shard's `Arc`; readers take a shard read lock just long
/// enough to clone an `Arc`, then work lock-free on the immutable
/// snapshot. Lookups of different interfaces land on different shards with
/// probability `1 - 1/16`, so they don't serialize behind a single lock.
///
/// Reads are **snapshot-consistent, not linearizable**: a lookup
/// concurrent with a registration may see the index from just before or
/// just after it — exactly the semantics OSGi service trackers already
/// live with.
#[derive(Debug, Clone)]
pub struct RegistryReader {
    shards: Arc<[RwLock<Arc<ShardIndex>>; SHARD_COUNT]>,
}

impl RegistryReader {
    fn new() -> Self {
        RegistryReader {
            shards: Arc::new(std::array::from_fn(|_| {
                RwLock::new(Arc::new(ShardIndex::default()))
            })),
        }
    }

    /// The published snapshot for `interface`'s shard.
    fn snapshot(&self, interface: &str) -> Arc<ShardIndex> {
        let guard = self.shards[shard_of(interface)]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        Arc::clone(&guard)
    }

    /// Registrations offering `interface`, ordered by ranking descending
    /// then id ascending. Allocation-free beyond the returned `Arc` clone.
    pub fn lookup(&self, interface: &str) -> Arc<[Arc<ServiceMeta>]> {
        self.snapshot(interface)
            .by_interface
            .get(interface)
            .cloned()
            .unwrap_or_else(|| Arc::from(Vec::new()))
    }

    /// Like [`lookup`](Self::lookup), narrowed by an LDAP-style filter.
    pub fn lookup_filtered(&self, interface: &str, filter: &Filter) -> Vec<Arc<ServiceMeta>> {
        self.snapshot(interface)
            .by_interface
            .get(interface)
            .map(|entries| {
                entries
                    .iter()
                    .filter(|m| filter.matches(&m.properties))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The best (highest-ranked, then lowest-id) service offering
    /// `interface`.
    pub fn best(&self, interface: &str) -> Option<ServiceId> {
        self.snapshot(interface)
            .by_interface
            .get(interface)
            .and_then(|entries| entries.first())
            .map(|m| m.id)
    }
}

/// The framework's service registry.
///
/// Services are registered under one or more interface names with a property
/// dictionary; consumers look them up by interface, optionally narrowed by
/// an LDAP-style [`Filter`], and receive references ordered by ranking
/// (descending) then id (ascending) — the OSGi tie-break.
///
/// The `&self` methods serve the deterministic single-threaded path; for
/// concurrent readers (real-clock runtime, other node threads) a
/// copy-on-write [`RegistryReader`] handle is available via
/// [`reader`](Self::reader) — registrations publish their metadata to it
/// on every mutation.
#[derive(Debug)]
pub struct ServiceRegistry {
    services: BTreeMap<ServiceId, ServiceRecord>,
    /// Interface name → ids registered under it. Interfaces are fixed at
    /// registration (property updates cannot change them), so the index
    /// only moves on register/unregister; lookups by interface scan just
    /// the candidate set instead of every registration.
    by_interface: BTreeMap<String, BTreeSet<ServiceId>>,
    /// Cached published metadata per service, shared by every interface
    /// entry in the reader's shards (rebuilt when properties change).
    meta: BTreeMap<ServiceId, Arc<ServiceMeta>>,
    reader: RegistryReader,
    next_id: u64,
    events: Vec<ServiceEvent>,
}

impl Default for ServiceRegistry {
    fn default() -> Self {
        ServiceRegistry {
            services: BTreeMap::new(),
            by_interface: BTreeMap::new(),
            meta: BTreeMap::new(),
            reader: RegistryReader::new(),
            next_id: 0,
            events: Vec::new(),
        }
    }
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cloneable, `Send + Sync` handle for concurrent by-interface
    /// lookups. Handles observe every mutation made after (and before)
    /// they were taken — they all share the registry's shard set.
    pub fn reader(&self) -> RegistryReader {
        self.reader.clone()
    }

    /// Rebuilds the published metadata for `id` from its record.
    fn refresh_meta(&mut self, id: ServiceId) {
        let rec = &self.services[&id];
        self.meta.insert(
            id,
            Arc::new(ServiceMeta {
                id: rec.id,
                owner: rec.owner,
                interfaces: rec.interfaces.clone(),
                properties: rec.properties.clone(),
                ranking: rec.ranking,
            }),
        );
    }

    /// Republishes the affected interfaces' entries into their shards:
    /// copy-on-write per shard, so in-flight readers keep their snapshot.
    fn republish(&self, interfaces: &[String]) {
        for iface in interfaces {
            let entries: Vec<Arc<ServiceMeta>> = self
                .by_interface
                .get(iface)
                .map(|ids| {
                    let mut v: Vec<Arc<ServiceMeta>> = ids
                        .iter()
                        .filter_map(|id| self.meta.get(id))
                        .cloned()
                        .collect();
                    v.sort_by(|a, b| b.ranking.cmp(&a.ranking).then(a.id.cmp(&b.id)));
                    v
                })
                .unwrap_or_default();
            let shard = &self.reader.shards[shard_of(iface)];
            let mut guard = shard.write().unwrap_or_else(|e| e.into_inner());
            let mut next = ShardIndex {
                by_interface: guard.by_interface.clone(),
            };
            if entries.is_empty() {
                next.by_interface.remove(iface);
            } else {
                next.by_interface.insert(iface.clone(), Arc::from(entries));
            }
            *guard = Arc::new(next);
        }
    }

    /// Registers `implementation` under `interfaces` on behalf of `owner`.
    ///
    /// The keys `objectClass`, `service.id` and `service.ranking` are set
    /// automatically (`service.ranking` is read from `properties` if present,
    /// defaulting to 0).
    ///
    /// # Panics
    ///
    /// Panics if `interfaces` is empty — a service must be registered under
    /// at least one name.
    pub fn register(
        &mut self,
        owner: BundleId,
        interfaces: &[&str],
        mut properties: BTreeMap<String, PropValue>,
        implementation: Box<dyn Service>,
    ) -> ServiceId {
        assert!(
            !interfaces.is_empty(),
            "a service must offer at least one interface"
        );
        let id = ServiceId(self.next_id);
        self.next_id += 1;
        let ranking = match properties.get("service.ranking") {
            Some(PropValue::Int(r)) => *r,
            _ => 0,
        };
        let interfaces: Vec<String> = interfaces.iter().map(|s| (*s).to_owned()).collect();
        properties.insert(
            "objectClass".to_owned(),
            PropValue::List(interfaces.clone()),
        );
        properties.insert("service.id".to_owned(), PropValue::Int(id.0 as i64));
        properties.insert("service.ranking".to_owned(), PropValue::Int(ranking));
        for iface in &interfaces {
            self.by_interface
                .entry(iface.clone())
                .or_default()
                .insert(id);
        }
        self.services.insert(
            id,
            ServiceRecord {
                id,
                owner,
                interfaces: interfaces.clone(),
                properties,
                ranking,
                implementation,
            },
        );
        self.events.push(ServiceEvent {
            service: id,
            interfaces,
            kind: ServiceEventKind::Registered,
        });
        self.refresh_meta(id);
        let ifaces = self.services[&id].interfaces.clone();
        self.republish(&ifaces);
        id
    }

    /// Removes a registration.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Gone`] if the id is unknown.
    pub fn unregister(&mut self, id: ServiceId) -> Result<(), ServiceError> {
        match self.services.remove(&id) {
            Some(rec) => {
                for iface in &rec.interfaces {
                    if let Some(ids) = self.by_interface.get_mut(iface) {
                        ids.remove(&id);
                        if ids.is_empty() {
                            self.by_interface.remove(iface);
                        }
                    }
                }
                self.meta.remove(&id);
                self.republish(&rec.interfaces);
                self.events.push(ServiceEvent {
                    service: id,
                    interfaces: rec.interfaces,
                    kind: ServiceEventKind::Unregistering,
                });
                Ok(())
            }
            None => Err(ServiceError::Gone(id)),
        }
    }

    /// Removes every service registered by `owner` (called when a bundle
    /// stops), returning the ids removed.
    pub fn unregister_bundle(&mut self, owner: BundleId) -> Vec<ServiceId> {
        let ids: Vec<ServiceId> = self
            .services
            .values()
            .filter(|r| r.owner == owner)
            .map(|r| r.id)
            .collect();
        for id in &ids {
            let _ = self.unregister(*id);
        }
        ids
    }

    /// Replaces a service's properties (preserving the auto-set keys) and
    /// emits a `Modified` event.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Gone`] if the id is unknown.
    pub fn set_properties(
        &mut self,
        id: ServiceId,
        mut properties: BTreeMap<String, PropValue>,
    ) -> Result<(), ServiceError> {
        let rec = self.services.get_mut(&id).ok_or(ServiceError::Gone(id))?;
        let ranking = match properties.get("service.ranking") {
            Some(PropValue::Int(r)) => *r,
            _ => rec.ranking,
        };
        properties.insert(
            "objectClass".to_owned(),
            PropValue::List(rec.interfaces.clone()),
        );
        properties.insert("service.id".to_owned(), PropValue::Int(id.0 as i64));
        properties.insert("service.ranking".to_owned(), PropValue::Int(ranking));
        rec.ranking = ranking;
        rec.properties = properties;
        self.events.push(ServiceEvent {
            service: id,
            interfaces: rec.interfaces.clone(),
            kind: ServiceEventKind::Modified,
        });
        self.refresh_meta(id);
        let ifaces = self.services[&id].interfaces.clone();
        self.republish(&ifaces);
        Ok(())
    }

    /// References matching `interface` (if given) and `filter` (if given),
    /// ordered by ranking descending then id ascending. An interface query
    /// scans only the ids indexed under that interface, not every
    /// registration.
    pub fn references(
        &self,
        interface: Option<&str>,
        filter: Option<&Filter>,
    ) -> Vec<&ServiceRecord> {
        let mut out: Vec<&ServiceRecord> = match interface {
            Some(i) => self
                .by_interface
                .get(i)
                .into_iter()
                .flatten()
                .filter_map(|id| self.services.get(id))
                .filter(|r| filter.is_none_or(|f| f.matches(&r.properties)))
                .collect(),
            None => self
                .services
                .values()
                .filter(|r| filter.is_none_or(|f| f.matches(&r.properties)))
                .collect(),
        };
        out.sort_by(|a, b| by_rank(a, b));
        out
    }

    /// The best (highest-ranked, then lowest-id) service offering
    /// `interface`.
    pub fn best(&self, interface: &str) -> Option<ServiceId> {
        self.by_interface
            .get(interface)?
            .iter()
            .filter_map(|id| self.services.get(id))
            .min_by(|a, b| by_rank(a, b))
            .map(|r| r.id)
    }

    /// Looks up a record by id.
    pub fn record(&self, id: ServiceId) -> Option<&ServiceRecord> {
        self.services.get(&id)
    }

    /// Invokes `method` on service `id`, charging resource use to the
    /// owning bundle's account in `ledger`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Gone`] for unknown ids, plus whatever the
    /// implementation returns.
    pub fn call(
        &mut self,
        id: ServiceId,
        ledger: &mut UsageLedger,
        method: &str,
        arg: &Value,
    ) -> Result<Value, ServiceError> {
        let rec = self.services.get_mut(&id).ok_or(ServiceError::Gone(id))?;
        ledger.count_call(rec.owner);
        let mut ctx = CallContext::new(rec.owner, ledger);
        rec.implementation.call(&mut ctx, method, arg)
    }

    /// Like [`call`](Self::call), but with the owning bundle's persistent
    /// storage area attached to the context. Returns the result and whether
    /// the call dirtied the area (the framework then flushes it to the
    /// SAN).
    ///
    /// # Errors
    ///
    /// Same as [`call`](Self::call).
    pub fn call_with_store(
        &mut self,
        id: ServiceId,
        ledger: &mut UsageLedger,
        data: &mut std::collections::BTreeMap<String, Value>,
        method: &str,
        arg: &Value,
    ) -> Result<(Value, bool), ServiceError> {
        let rec = self.services.get_mut(&id).ok_or(ServiceError::Gone(id))?;
        ledger.count_call(rec.owner);
        let mut ctx = CallContext::with_store(rec.owner, ledger, data);
        let result = rec.implementation.call(&mut ctx, method, arg);
        let dirty = ctx.is_dirty();
        result.map(|v| (v, dirty))
    }

    /// The bundle that registered service `id`.
    pub fn owner_of(&self, id: ServiceId) -> Option<BundleId> {
        self.services.get(&id).map(|r| r.owner)
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True if no services are registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Drains accumulated registry events.
    pub fn take_events(&mut self) -> Vec<ServiceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The OSGi reference order: ranking descending, then id ascending.
fn by_rank(a: &ServiceRecord, b: &ServiceRecord) -> std::cmp::Ordering {
    b.ranking.cmp(&a.ranking).then(a.id.cmp(&b.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::SimDuration;

    fn echo_service() -> Box<dyn Service> {
        Box::new(
            |ctx: &mut CallContext<'_>, method: &str, arg: &Value| match method {
                "echo" => {
                    ctx.charge_cpu(SimDuration::from_micros(10));
                    Ok(arg.clone())
                }
                other => Err(ServiceError::MethodNotFound {
                    service: ServiceId(0),
                    method: other.to_owned(),
                }),
            },
        )
    }

    fn props(ranking: i64) -> BTreeMap<String, PropValue> {
        let mut p = BTreeMap::new();
        p.insert("service.ranking".to_owned(), PropValue::Int(ranking));
        p
    }

    #[test]
    fn register_sets_standard_properties() {
        let mut r = ServiceRegistry::new();
        let id = r.register(
            BundleId(1),
            &["log.Service"],
            BTreeMap::new(),
            echo_service(),
        );
        let rec = r.record(id).unwrap();
        assert_eq!(
            rec.properties.get("objectClass"),
            Some(&PropValue::List(vec!["log.Service".into()]))
        );
        assert_eq!(rec.properties.get("service.id"), Some(&PropValue::Int(0)));
        assert_eq!(rec.ranking, 0);
    }

    /// `best` picks the minimum in reference order without sorting; it
    /// must agree with the head of the sorted `references` list through
    /// registrations, unregistrations and ranking changes, with ties.
    #[test]
    fn prop_best_is_the_first_reference() {
        use dosgi_testkit::{prop, prop_verify_eq, Gen};
        const IFACES: [&str; 3] = ["a", "b", "c"];
        // (op, interface mask, ranking, pick): op 0–2 registers, 3
        // unregisters, 4 re-ranks. Rankings span -1..=1, so ties are common.
        let op = Gen::new(|rng| {
            (
                rng.u64_below(5),
                rng.usize_in(1, 7),
                rng.u64_below(3) as i64 - 1,
                rng.usize_in(0, 31),
            )
        });
        let gen = prop::vecs(op, 1, 30);
        prop::check("prop_best_is_the_first_reference", &gen, |ops| {
            let mut r = ServiceRegistry::new();
            let mut live: Vec<ServiceId> = Vec::new();
            for &(kind, mask, ranking, pick) in ops {
                match kind {
                    0..=2 => {
                        let ifaces: Vec<&str> = IFACES
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) != 0)
                            .map(|(_, s)| *s)
                            .collect();
                        live.push(r.register(BundleId(1), &ifaces, props(ranking), echo_service()));
                    }
                    3 if !live.is_empty() => {
                        let id = live.remove(pick % live.len());
                        r.unregister(id).expect("live");
                    }
                    4 if !live.is_empty() => {
                        let id = live[pick % live.len()];
                        r.set_properties(id, props(ranking)).expect("live");
                    }
                    _ => {}
                }
                for iface in IFACES.iter().chain(&["none"]) {
                    let first = r.references(Some(iface), None).first().map(|s| s.id);
                    prop_verify_eq!(r.best(iface), first, "interface {iface}");
                }
            }
            Ok(())
        });
    }

    #[test]
    fn ranking_orders_references() {
        let mut r = ServiceRegistry::new();
        let low = r.register(BundleId(1), &["svc"], props(1), echo_service());
        let high = r.register(BundleId(1), &["svc"], props(9), echo_service());
        let mid = r.register(BundleId(2), &["svc"], props(5), echo_service());
        let refs = r.references(Some("svc"), None);
        assert_eq!(
            refs.iter().map(|x| x.id).collect::<Vec<_>>(),
            vec![high, mid, low]
        );
        assert_eq!(r.best("svc"), Some(high));
    }

    #[test]
    fn equal_ranking_breaks_ties_by_lowest_id() {
        let mut r = ServiceRegistry::new();
        let first = r.register(BundleId(1), &["svc"], props(5), echo_service());
        let _second = r.register(BundleId(1), &["svc"], props(5), echo_service());
        assert_eq!(r.best("svc"), Some(first));
    }

    #[test]
    fn filter_narrows_lookup() {
        let mut r = ServiceRegistry::new();
        let mut p = BTreeMap::new();
        p.insert("vendor".to_owned(), PropValue::from("acme"));
        let acme = r.register(BundleId(1), &["svc"], p, echo_service());
        let _plain = r.register(BundleId(1), &["svc"], BTreeMap::new(), echo_service());
        let f: Filter = "(vendor=acme)".parse().unwrap();
        let refs = r.references(Some("svc"), Some(&f));
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].id, acme);
        // Filter on objectClass works because registration injects it.
        let f: Filter = "(objectClass=svc)".parse().unwrap();
        assert_eq!(r.references(None, Some(&f)).len(), 2);
    }

    #[test]
    fn call_dispatches_and_charges_owner() {
        let mut r = ServiceRegistry::new();
        let mut ledger = UsageLedger::new();
        let id = r.register(BundleId(7), &["svc"], BTreeMap::new(), echo_service());
        let out = r.call(id, &mut ledger, "echo", &Value::Int(3)).unwrap();
        assert_eq!(out, Value::Int(3));
        let snap = ledger.snapshot(BundleId(7));
        assert_eq!(snap.calls, 1);
        assert_eq!(snap.cpu, SimDuration::from_micros(10));
        assert!(matches!(
            r.call(ServiceId(99), &mut ledger, "echo", &Value::Null),
            Err(ServiceError::Gone(_))
        ));
    }

    #[test]
    fn unregister_and_events() {
        let mut r = ServiceRegistry::new();
        let id = r.register(BundleId(1), &["svc"], BTreeMap::new(), echo_service());
        r.unregister(id).unwrap();
        assert!(r.is_empty());
        assert!(matches!(r.unregister(id), Err(ServiceError::Gone(_))));
        let events = r.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, ServiceEventKind::Registered);
        assert_eq!(events[1].kind, ServiceEventKind::Unregistering);
        assert!(r.take_events().is_empty());
    }

    #[test]
    fn unregister_bundle_sweeps_all_of_its_services() {
        let mut r = ServiceRegistry::new();
        let a = r.register(BundleId(1), &["x"], BTreeMap::new(), echo_service());
        let _b = r.register(BundleId(2), &["x"], BTreeMap::new(), echo_service());
        let c = r.register(BundleId(1), &["y"], BTreeMap::new(), echo_service());
        let removed = r.unregister_bundle(BundleId(1));
        assert_eq!(removed, vec![a, c]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn interface_index_tracks_churn() {
        let mut r = ServiceRegistry::new();
        // Multi-interface registration appears under every name.
        let ab = r.register(BundleId(1), &["a", "b"], BTreeMap::new(), echo_service());
        let b = r.register(BundleId(2), &["b"], BTreeMap::new(), echo_service());
        assert_eq!(r.references(Some("a"), None).len(), 1);
        assert_eq!(r.references(Some("b"), None).len(), 2);
        assert!(r.references(Some("zzz"), None).is_empty());
        // Unregistering removes it from every interface's candidate set.
        r.unregister(ab).unwrap();
        assert!(r.references(Some("a"), None).is_empty());
        assert_eq!(
            r.references(Some("b"), None)
                .iter()
                .map(|x| x.id)
                .collect::<Vec<_>>(),
            vec![b]
        );
        // Bundle sweep keeps the index in step too.
        r.unregister_bundle(BundleId(2));
        assert!(r.references(Some("b"), None).is_empty());
        assert!(r.by_interface.is_empty());
    }

    #[test]
    fn indexed_lookup_matches_full_scan() {
        let mut r = ServiceRegistry::new();
        for i in 0..20 {
            let iface = ["x", "y", "z"][i % 3];
            let _ = r.register(
                BundleId(1 + (i % 4) as u64),
                &[iface, "common"],
                props((i as i64 * 7) % 5),
                echo_service(),
            );
        }
        for iface in ["x", "y", "z", "common"] {
            let indexed: Vec<ServiceId> = r
                .references(Some(iface), None)
                .iter()
                .map(|x| x.id)
                .collect();
            // Oracle: the old full scan over every record.
            let mut scan: Vec<&ServiceRecord> = r
                .services
                .values()
                .filter(|rec| rec.interfaces.iter().any(|x| x == iface))
                .collect();
            scan.sort_by(|a, b| b.ranking.cmp(&a.ranking).then(a.id.cmp(&b.id)));
            let scan: Vec<ServiceId> = scan.iter().map(|x| x.id).collect();
            assert_eq!(indexed, scan);
        }
    }

    #[test]
    fn set_properties_updates_ranking_and_emits_modified() {
        let mut r = ServiceRegistry::new();
        let id = r.register(BundleId(1), &["svc"], BTreeMap::new(), echo_service());
        r.set_properties(id, props(42)).unwrap();
        assert_eq!(r.record(id).unwrap().ranking, 42);
        let kinds: Vec<ServiceEventKind> = r.take_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![ServiceEventKind::Registered, ServiceEventKind::Modified]
        );
    }

    #[test]
    #[should_panic(expected = "at least one interface")]
    fn register_requires_an_interface() {
        let mut r = ServiceRegistry::new();
        let _ = r.register(BundleId(1), &[], BTreeMap::new(), echo_service());
    }

    #[test]
    fn reader_tracks_every_mutation() {
        let mut r = ServiceRegistry::new();
        let reader = r.reader();
        assert!(reader.lookup("svc").is_empty());
        let low = r.register(BundleId(1), &["svc"], props(1), echo_service());
        let high = r.register(BundleId(1), &["svc", "alt"], props(9), echo_service());
        // Same order as the exclusive path: ranking desc, id asc.
        let ids: Vec<ServiceId> = reader.lookup("svc").iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![high, low]);
        assert_eq!(reader.best("svc"), r.best("svc"));
        assert_eq!(reader.best("alt"), Some(high));
        // Property updates re-rank the published entries.
        r.set_properties(low, props(99)).unwrap();
        assert_eq!(reader.best("svc"), Some(low));
        assert_eq!(
            reader.lookup("svc")[0].properties.get("service.ranking"),
            Some(&PropValue::Int(99))
        );
        // Unregistration removes the published entry everywhere.
        r.unregister(high).unwrap();
        assert!(reader.lookup("alt").is_empty());
        assert_eq!(
            reader
                .lookup("svc")
                .iter()
                .map(|m| m.id)
                .collect::<Vec<_>>(),
            vec![low]
        );
        // A handle taken late sees the same state as an early one.
        let late = r.reader();
        assert_eq!(late.best("svc"), reader.best("svc"));
    }

    #[test]
    fn reader_filtered_lookup_matches_exclusive_path() {
        let mut r = ServiceRegistry::new();
        for i in 0..12 {
            let mut p = props(i % 3);
            p.insert(
                "vendor".to_owned(),
                PropValue::from(if i % 2 == 0 { "acme" } else { "other" }),
            );
            let _ = r.register(BundleId(1), &["svc"], p, echo_service());
        }
        let f: Filter = "(vendor=acme)".parse().unwrap();
        let reader = r.reader();
        let via_reader: Vec<ServiceId> = reader
            .lookup_filtered("svc", &f)
            .iter()
            .map(|m| m.id)
            .collect();
        let via_registry: Vec<ServiceId> = r
            .references(Some("svc"), Some(&f))
            .iter()
            .map(|x| x.id)
            .collect();
        assert_eq!(via_reader, via_registry);
    }

    #[test]
    fn reader_is_send_sync_and_survives_concurrent_churn() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RegistryReader>();

        let mut r = ServiceRegistry::new();
        for i in 0..8 {
            let _ = r.register(
                BundleId(i),
                &[format!("iface.{i}").as_str()],
                props(i as i64),
                echo_service(),
            );
        }
        let reader = r.reader();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let reader = reader.clone();
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    let mut done = false;
                    // At least one full sweep even if the writer already
                    // finished; then spin until told to stop.
                    while !done {
                        done = stop.load(std::sync::atomic::Ordering::Relaxed);
                        for i in 0..8 {
                            let entries = reader.lookup(&format!("iface.{i}"));
                            // Snapshots are always internally consistent:
                            // ranking descending, id ascending on ties.
                            for w in entries.windows(2) {
                                assert!(
                                    w[0].ranking > w[1].ranking
                                        || (w[0].ranking == w[1].ranking && w[0].id < w[1].id),
                                    "ordering violated"
                                );
                            }
                            seen += entries.len();
                        }
                        let _ = reader.best(&format!("iface.{t}"));
                    }
                    seen
                })
            })
            .collect();
        // Writer churns registrations while the readers spin.
        for round in 0..200 {
            let id = r.register(
                BundleId(99),
                &[format!("iface.{}", round % 8).as_str()],
                props(round),
                echo_service(),
            );
            r.unregister(id).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in readers {
            assert!(t.join().expect("no reader panicked") > 0);
        }
    }
}
