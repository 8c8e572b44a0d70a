//! The framework: bundle lifecycle orchestration, class loading, services,
//! start levels and persistent state.

use crate::loader::BootDelegation;
use crate::loader::LoadPath;
use crate::persist;
use crate::{
    Activator, ActivatorFactory, BundleContext, BundleError, BundleEvent, BundleEventKind,
    BundleId, BundleManifest, BundleState, ClassRef, FrameworkEvent, LoadError, PropValue, Service,
    ServiceError, ServiceEvent, ServiceId, ServiceRegistry, SymbolName, UsageLedger, Version,
    Wiring,
};
use dosgi_san::{SharedStore, StoreError, Value};
use dosgi_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Framework construction parameters.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// A human-readable name; also the default persistence namespace.
    pub name: String,
    /// Packages served by the platform itself (the `java.*` analogue).
    pub boot: BootDelegation,
    /// The initial active start level.
    pub start_level: u32,
}

impl FrameworkConfig {
    /// A config named `name` with standard boot delegation and start level 1.
    pub fn new(name: &str) -> Self {
        FrameworkConfig {
            name: name.to_owned(),
            boot: BootDelegation::standard(),
            start_level: 1,
        }
    }
}

/// An installed bundle.
pub struct Bundle {
    /// Framework-local id.
    pub id: BundleId,
    /// The bundle's manifest.
    pub manifest: BundleManifest,
    /// Current lifecycle state.
    pub state: BundleState,
    /// Whether the bundle is persistently started (survives reboots and
    /// start-level sweeps; the OSGi "autostart" setting).
    pub autostart: bool,
    /// The revision that last owned the bundle's persisted data area.
    /// Normally equals `manifest.version`; an in-place upgrade checks the
    /// target against it before adopting the state.
    pub state_version: Version,
    pub(crate) activator: Option<Box<dyn Activator>>,
}

impl fmt::Debug for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bundle")
            .field("id", &self.id)
            .field("symbolic_name", &self.manifest.symbolic_name)
            .field("version", &self.manifest.version)
            .field("state", &self.state)
            .field("autostart", &self.autostart)
            .finish_non_exhaustive()
    }
}

/// The outcome of an in-place [`Framework::upgrade_bundle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeReport {
    /// The bundle that was swapped.
    pub bundle: BundleId,
    /// The revision that quiesced and handed its state off.
    pub from: Version,
    /// The revision that adopted the state.
    pub to: Version,
    /// Entries in the handed-off data area at swap time.
    pub handoff_keys: usize,
}

/// An OSGi-like framework instance.
///
/// See the [crate docs](crate) for the model. A `Framework` is used both as
/// the **host** platform of a node and (wrapped by `dosgi-vosgi`) as each
/// customer's **virtual instance**.
pub struct Framework {
    config: FrameworkConfig,
    bundles: BTreeMap<BundleId, Bundle>,
    next_bundle: u64,
    registry: ServiceRegistry,
    wirings: BTreeMap<BundleId, Wiring>,
    ledger: UsageLedger,
    bundle_events: Vec<BundleEvent>,
    framework_events: Vec<FrameworkEvent>,
    data_areas: HashMap<String, BTreeMap<String, Value>>,
    store: Option<(SharedStore, String)>,
    /// Snapshot rows (header / `bundle/<id>`) whose in-memory state is
    /// ahead of the SAN; the next persist writes exactly these rows.
    dirty_rows: BTreeSet<String>,
    /// Snapshot rows pending deletion on the SAN (uninstalled bundles,
    /// the legacy monolithic key after a migration restore).
    deleted_rows: BTreeSet<String>,
    /// Data areas whose SAN write-through failed; flush pending.
    dirty_areas: BTreeSet<String>,
    telemetry: Telemetry,
}

impl fmt::Debug for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Framework")
            .field("name", &self.config.name)
            .field("bundles", &self.bundles.len())
            .field("services", &self.registry.len())
            .field("start_level", &self.config.start_level)
            .finish_non_exhaustive()
    }
}

/// The SAN namespace of bundle `sn`'s data area under framework
/// namespace `ns`: `<ns>/data/<sn>`, built in one allocation.
fn data_namespace(ns: &str, sn: &str) -> String {
    const DATA: &str = "/data/";
    let mut out = String::with_capacity(ns.len() + DATA.len() + sn.len());
    out.push_str(ns);
    out.push_str(DATA);
    out.push_str(sn);
    out
}

impl Framework {
    /// Creates a framework with default configuration.
    pub fn new(name: &str) -> Self {
        Self::with_config(FrameworkConfig::new(name))
    }

    /// Creates a framework from an explicit configuration.
    pub fn with_config(config: FrameworkConfig) -> Self {
        let mut fw = Framework {
            config,
            bundles: BTreeMap::new(),
            next_bundle: 1,
            registry: ServiceRegistry::new(),
            wirings: BTreeMap::new(),
            ledger: UsageLedger::new(),
            bundle_events: Vec::new(),
            framework_events: Vec::new(),
            data_areas: HashMap::new(),
            store: None,
            dirty_rows: BTreeSet::new(),
            deleted_rows: BTreeSet::new(),
            dirty_areas: BTreeSet::new(),
            telemetry: Telemetry::disabled(),
        };
        fw.framework_events.push(FrameworkEvent::Started);
        fw
    }

    /// Attaches a telemetry handle; bundle lifecycle transitions are
    /// counted as `osgi.lifecycle.<kind>`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The framework's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Attaches a SAN store; framework state and bundle data areas become
    /// persistent under `namespace`, as the OSGi specification requires.
    ///
    /// # Errors
    ///
    /// The initial snapshot write may fail with a transient [`StoreError`];
    /// the store stays attached and the snapshot is flushed on the next
    /// successful [`flush_persist`](Self::flush_persist).
    pub fn attach_store(&mut self, store: SharedStore, namespace: &str) -> Result<(), StoreError> {
        self.store = Some((store, namespace.to_owned()));
        self.mark_all_rows_dirty();
        self.persist()
    }

    /// The persistence namespace, if a store is attached.
    pub fn store_namespace(&self) -> Option<&str> {
        self.store.as_ref().map(|(_, ns)| ns.as_str())
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Installs a bundle, leaving it `INSTALLED`.
    ///
    /// # Errors
    ///
    /// [`BundleError::DuplicateBundle`] if a bundle with the same symbolic
    /// name and version is already installed.
    pub fn install(
        &mut self,
        manifest: BundleManifest,
        activator: Option<Box<dyn Activator>>,
    ) -> Result<BundleId, BundleError> {
        if let Some(existing) = self.bundles.values().find(|b| {
            b.manifest.symbolic_name == manifest.symbolic_name
                && b.manifest.version == manifest.version
        }) {
            return Err(BundleError::DuplicateBundle {
                existing: existing.id,
            });
        }
        let id = BundleId(self.next_bundle);
        self.next_bundle += 1;
        let state_version = manifest.version;
        self.bundles.insert(
            id,
            Bundle {
                id,
                manifest,
                state: BundleState::Installed,
                autostart: false,
                state_version,
                activator,
            },
        );
        self.event(id, BundleEventKind::Installed);
        self.mark_header_dirty(); // next_bundle advanced
        self.mark_bundle_dirty(id);
        let _ = self.persist();
        Ok(id)
    }

    /// Attempts to resolve every `INSTALLED` bundle. Returns the ids that
    /// newly resolved.
    pub fn resolve_all(&mut self) -> Vec<BundleId> {
        let candidates: BTreeMap<BundleId, &BundleManifest> = self
            .bundles
            .values()
            .filter(|b| b.state == BundleState::Installed)
            .map(|b| (b.id, &b.manifest))
            .collect();
        let resolved_pool: BTreeMap<BundleId, &BundleManifest> = self
            .bundles
            .values()
            .filter(|b| b.state.is_resolved())
            .map(|b| (b.id, &b.manifest))
            .collect();
        let report = crate::resolver::resolve(&candidates, &resolved_pool);
        let ids: Vec<BundleId> = report.resolved.keys().copied().collect();
        for (id, wiring) in report.resolved {
            self.wirings.insert(id, wiring);
            self.bundles
                .get_mut(&id)
                .expect("resolver only reports candidate ids")
                .state = BundleState::Resolved;
            self.event(id, BundleEventKind::Resolved);
            self.mark_bundle_dirty(id);
        }
        if !ids.is_empty() {
            let _ = self.persist();
        }
        ids
    }

    /// Starts a bundle: resolves it if necessary, runs its activator, and
    /// marks it `ACTIVE` and persistently started. Starting an `ACTIVE`
    /// bundle is a no-op.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`], [`BundleError::ResolutionFailed`],
    /// [`BundleError::ActivatorFailed`] (bundle rolls back to `RESOLVED`),
    /// or [`BundleError::InvalidTransition`] from transient/terminal states.
    pub fn start(&mut self, id: BundleId) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        match state {
            BundleState::Active => return Ok(()),
            BundleState::Installed => {
                self.resolve_all();
                let state = self.bundle_state(id)?;
                if state == BundleState::Installed {
                    let missing = self
                        .bundles
                        .get(&id)
                        .expect("bundle_state checked id above")
                        .manifest
                        .imports
                        .iter()
                        .filter(|i| !i.optional)
                        .map(|i| i.name.clone())
                        .collect();
                    return Err(BundleError::ResolutionFailed {
                        bundle: id,
                        missing,
                    });
                }
            }
            BundleState::Resolved => {}
            other => {
                return Err(BundleError::InvalidTransition {
                    bundle: id,
                    state: other,
                    operation: "start",
                })
            }
        }
        self.set_state(id, BundleState::Starting);
        let mut activator = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above")
            .activator
            .take();
        let result = match activator.as_mut() {
            Some(a) => {
                let mut ctx = BundleContext::new(id, self);
                a.start(&mut ctx)
            }
            None => Ok(()),
        };
        let bundle = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above");
        bundle.activator = activator;
        match result {
            Ok(()) => {
                bundle.state = BundleState::Active;
                bundle.autostart = true;
                self.event(id, BundleEventKind::Started);
                self.mark_bundle_dirty(id);
                let _ = self.persist();
                Ok(())
            }
            Err(message) => {
                bundle.state = BundleState::Resolved;
                // Services a half-started activator registered are swept.
                self.registry.unregister_bundle(id);
                self.framework_events.push(FrameworkEvent::Error {
                    bundle: Some(id),
                    message: message.clone(),
                });
                Err(BundleError::ActivatorFailed {
                    bundle: id,
                    message,
                })
            }
        }
    }

    /// Stops an `ACTIVE` bundle: runs its activator's `stop`, sweeps its
    /// services, and clears the persistent-start flag. Stopping a non-active
    /// bundle is a no-op.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] for unknown ids.
    pub fn stop(&mut self, id: BundleId) -> Result<(), BundleError> {
        self.stop_internal(id, true)
    }

    /// Stops a bundle without clearing its persistent-start flag — used by
    /// start-level sweeps and framework shutdown, after which the bundle
    /// must come back on restart (OSGi semantics).
    pub fn stop_transient(&mut self, id: BundleId) -> Result<(), BundleError> {
        self.stop_internal(id, false)
    }

    fn stop_internal(&mut self, id: BundleId, persistent: bool) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        if state != BundleState::Active {
            if persistent {
                if let Some(b) = self.bundles.get_mut(&id) {
                    b.autostart = false;
                }
                // Captured by the next persist, like any deferred change.
                self.mark_bundle_dirty(id);
            }
            return Ok(());
        }
        self.set_state(id, BundleState::Stopping);
        let mut activator = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above")
            .activator
            .take();
        let result = match activator.as_mut() {
            Some(a) => {
                let mut ctx = BundleContext::new(id, self);
                a.stop(&mut ctx)
            }
            None => Ok(()),
        };
        if let Err(message) = result {
            self.framework_events.push(FrameworkEvent::Error {
                bundle: Some(id),
                message,
            });
        }
        self.registry.unregister_bundle(id);
        let bundle = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above");
        bundle.activator = activator;
        bundle.state = BundleState::Resolved;
        if persistent {
            bundle.autostart = false;
        }
        self.event(id, BundleEventKind::Stopped);
        self.mark_bundle_dirty(id);
        let _ = self.persist();
        Ok(())
    }

    /// Uninstalls a bundle (stopping it first if active).
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] or [`BundleError::InvalidTransition`] if
    /// called from a transient state.
    pub fn uninstall(&mut self, id: BundleId) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        if !state.can_uninstall() {
            return Err(BundleError::InvalidTransition {
                bundle: id,
                state,
                operation: "uninstall",
            });
        }
        if state == BundleState::Active {
            self.stop(id)?;
        }
        self.bundles.remove(&id);
        self.wirings.remove(&id);
        self.ledger.forget(id);
        self.event(id, BundleEventKind::Uninstalled);
        if self.store.is_some() {
            let key = persist::bundle_key(id);
            self.dirty_rows.remove(&key);
            self.deleted_rows.insert(key);
        }
        let _ = self.persist();
        Ok(())
    }

    /// Replaces a bundle's manifest at run-time (the OSGi `update`
    /// operation): the bundle is stopped if active, re-wired, and restarted
    /// if it was active — the "change a module without disrupting the
    /// production environment" capability the paper's introduction credits
    /// OSGi with.
    ///
    /// # Errors
    ///
    /// Lifecycle errors from the embedded stop/start, or
    /// [`BundleError::ResolutionFailed`] if the new manifest cannot wire.
    pub fn update(&mut self, id: BundleId, manifest: BundleManifest) -> Result<(), BundleError> {
        self.update_with_activator(id, manifest, None)
    }

    /// Like [`update`](Self::update), but also replaces the bundle's
    /// activator — the analogue of the new bundle revision bringing a new
    /// activator class. The old activator's `stop` runs first; the new one
    /// `start`s. `None` keeps the existing activator.
    ///
    /// # Errors
    ///
    /// As [`update`](Self::update).
    pub fn update_with_activator(
        &mut self,
        id: BundleId,
        manifest: BundleManifest,
        activator: Option<Box<dyn Activator>>,
    ) -> Result<(), BundleError> {
        let state = self.bundle_state(id)?;
        let was_active = state == BundleState::Active;
        if was_active {
            self.stop_transient(id)?;
        }
        let bundle = self
            .bundles
            .get_mut(&id)
            .expect("bundle_state checked id above");
        bundle.manifest = manifest;
        bundle.state = BundleState::Installed;
        // `update` gives no state-handoff guarantee: the new revision owns
        // whatever the data area holds, so the compatibility anchor moves.
        bundle.state_version = bundle.manifest.version;
        if let Some(a) = activator {
            bundle.activator = Some(a);
        }
        self.wirings.remove(&id);
        self.event(id, BundleEventKind::Updated);
        self.mark_bundle_dirty(id);
        self.refresh();
        if was_active {
            self.start(id)?;
        }
        let _ = self.persist();
        Ok(())
    }

    /// Hot-swaps a bundle in place with **state handoff** — the paper's
    /// "change a module without disrupting the production environment"
    /// promise taken all the way to stateful bundles:
    ///
    /// 1. **Compatibility gate** — the target manifest must keep the
    ///    symbolic name and share the major version with the revision that
    ///    owns the persisted state ([`Bundle::state_version`]). Rejected
    ///    upgrades leave the old revision serving, untouched.
    /// 2. **Quiesce** — the old revision is stopped transiently (its
    ///    autostart flag survives, as across a framework reboot).
    /// 3. **Persist** — dirty snapshot rows and data areas are flushed so
    ///    the handed-off state is durable. A SAN failure here **rolls
    ///    back**: the old revision restarts and the (usually transient)
    ///    [`BundleError::Store`] tells the caller to retry.
    /// 4. **Adopt** — the new revision is swapped in and started; because
    ///    data areas are keyed by symbolic name, it reads exactly the
    ///    state the old revision quiesced with. The instance's *other*
    ///    bundles keep serving throughout.
    ///
    /// Downgrades ride the same path — any target within the state's major
    /// version may adopt.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`], [`BundleError::IncompatibleUpgrade`]
    /// (never transient), [`BundleError::Store`] from the persist phase
    /// (old revision restored), or a start error from the adopt phase
    /// (the bundle is then degraded — autostart set but not `ACTIVE` —
    /// and a retried upgrade with the same target is idempotent).
    pub fn upgrade_bundle(
        &mut self,
        id: BundleId,
        manifest: BundleManifest,
        activator: Option<Box<dyn Activator>>,
    ) -> Result<UpgradeReport, BundleError> {
        let (sn, from, state_version, state) = {
            let b = self.bundles.get(&id).ok_or(BundleError::NotFound(id))?;
            (
                b.manifest.symbolic_name.clone(),
                b.manifest.version,
                b.state_version,
                b.state,
            )
        };
        if manifest.symbolic_name != sn || manifest.version.major != state_version.major {
            return Err(BundleError::IncompatibleUpgrade {
                bundle: id,
                state: state_version,
                target: manifest.version,
            });
        }
        let was_active = state == BundleState::Active;
        if was_active {
            self.stop_transient(id)?;
        }
        if let Err(e) = self.flush_persist() {
            // Roll back: the old revision resumes serving; the caller
            // retries the whole upgrade once the SAN recovers.
            if was_active {
                let _ = self.start(id);
            }
            return Err(BundleError::Store(e));
        }
        let handoff_keys = self
            .data_areas
            .get(sn.as_str())
            .map(BTreeMap::len)
            .unwrap_or(0);
        let bundle = self
            .bundles
            .get_mut(&id)
            .expect("bundle presence checked above");
        bundle.manifest = manifest;
        bundle.state = BundleState::Installed;
        let to = bundle.manifest.version;
        bundle.state_version = to;
        if let Some(a) = activator {
            bundle.activator = Some(a);
        }
        self.wirings.remove(&id);
        self.event(id, BundleEventKind::Upgraded);
        self.mark_bundle_dirty(id);
        self.refresh();
        if was_active {
            self.start(id)?;
        }
        let _ = self.persist();
        Ok(UpgradeReport {
            bundle: id,
            from,
            to,
            handoff_keys,
        })
    }

    /// Recomputes all wirings from scratch. Active bundles whose imports can
    /// no longer be satisfied are stopped and demoted to `INSTALLED`
    /// (a simplified OSGi *refresh packages* operation).
    pub fn refresh(&mut self) {
        let candidates: BTreeMap<BundleId, &BundleManifest> = self
            .bundles
            .values()
            .filter(|b| b.state != BundleState::Uninstalled)
            .map(|b| (b.id, &b.manifest))
            .collect();
        let report = crate::resolver::resolve(&candidates, &BTreeMap::new());
        let failed: Vec<BundleId> = report.failed.keys().copied().collect();
        self.wirings = report.resolved.clone();
        for (id, _) in report.resolved {
            let b = self
                .bundles
                .get_mut(&id)
                .expect("resolver only reports installed ids");
            if b.state == BundleState::Installed {
                b.state = BundleState::Resolved;
                self.event(id, BundleEventKind::Resolved);
                self.mark_bundle_dirty(id);
            }
        }
        for id in failed {
            let state = self.bundles.get(&id).map(|b| b.state);
            if state == Some(BundleState::Active) {
                let _ = self.stop_transient(id);
            }
            let demoted = self.bundles.get_mut(&id).is_some_and(|b| {
                if b.state != BundleState::Installed {
                    b.state = BundleState::Installed;
                    true
                } else {
                    false
                }
            });
            if demoted {
                self.mark_bundle_dirty(id);
            }
            self.wirings.remove(&id);
        }
    }

    // ------------------------------------------------------------------
    // Start levels and shutdown
    // ------------------------------------------------------------------

    /// The active start level.
    pub fn start_level(&self) -> u32 {
        self.config.start_level
    }

    /// Moves the framework to `level`: persistently-started bundles at or
    /// below the level are started (ascending level order); active bundles
    /// above it are stopped transiently (descending order). Activator
    /// failures are recorded as framework events and do not abort the sweep.
    pub fn set_start_level(&mut self, level: u32) {
        let mut to_start: Vec<(u32, BundleId)> = self
            .bundles
            .values()
            .filter(|b| {
                b.autostart && b.state != BundleState::Active && b.manifest.start_level <= level
            })
            .map(|b| (b.manifest.start_level, b.id))
            .collect();
        to_start.sort();
        let mut to_stop: Vec<(u32, BundleId)> = self
            .bundles
            .values()
            .filter(|b| b.state == BundleState::Active && b.manifest.start_level > level)
            .map(|b| (b.manifest.start_level, b.id))
            .collect();
        to_stop.sort_by(|a, b| b.cmp(a));
        for (_, id) in to_stop {
            let _ = self.stop_transient(id);
        }
        for (_, id) in to_start {
            if let Err(e) = self.start(id) {
                self.framework_events.push(FrameworkEvent::Error {
                    bundle: Some(id),
                    message: e.to_string(),
                });
            }
        }
        self.config.start_level = level;
        self.framework_events
            .push(FrameworkEvent::StartLevelChanged { level });
        self.mark_header_dirty();
        let _ = self.persist();
    }

    /// Orderly shutdown: stops all active bundles in descending start-level
    /// order *without* clearing their persistent-start flags, then persists
    /// the final state. After `restore`, the same bundles come back.
    pub fn shutdown(&mut self) {
        self.framework_events.push(FrameworkEvent::ShuttingDown);
        let mut active: Vec<(u32, BundleId)> = self
            .bundles
            .values()
            .filter(|b| b.state == BundleState::Active)
            .map(|b| (b.manifest.start_level, b.id))
            .collect();
        active.sort_by(|a, b| b.cmp(a));
        for (_, id) in active {
            let _ = self.stop_transient(id);
        }
        let _ = self.persist();
    }

    // ------------------------------------------------------------------
    // Class loading
    // ------------------------------------------------------------------

    /// Loads `symbol` through `bundle`'s class space: boot delegation, then
    /// imported packages, then the bundle's own content.
    ///
    /// # Errors
    ///
    /// See [`LoadError`]. An `INSTALLED` bundle triggers a resolution
    /// attempt first, as in OSGi.
    pub fn load_class(
        &mut self,
        bundle: BundleId,
        symbol: &SymbolName,
    ) -> Result<ClassRef, LoadError> {
        let state = self
            .bundles
            .get(&bundle)
            .map(|b| b.state)
            .ok_or(LoadError::Unresolved(bundle))?;
        if state == BundleState::Installed {
            self.resolve_all();
        }
        let b = self
            .bundles
            .get(&bundle)
            .ok_or(LoadError::Unresolved(bundle))?;
        if !b.state.is_resolved() {
            return Err(LoadError::Unresolved(bundle));
        }
        // 1. Boot delegation.
        if self.config.boot.covers(symbol.package()) {
            return Ok(ClassRef {
                symbol: symbol.clone(),
                defined_by: None,
                via: LoadPath::Boot,
            });
        }
        // 2. Imported packages (imports shadow own content, as in OSGi).
        if let Some(wiring) = self.wirings.get(&bundle) {
            if let Some(&(exporter, _)) = wiring.imports.get(symbol.package()) {
                let exp = self
                    .bundles
                    .get(&exporter)
                    .ok_or_else(|| LoadError::NotFound(symbol.clone()))?;
                let pkg = exp
                    .manifest
                    .exports
                    .iter()
                    .find(|e| &e.name == symbol.package())
                    .ok_or_else(|| LoadError::NotFound(symbol.clone()))?;
                return if pkg.symbols.iter().any(|s| s == symbol.simple()) {
                    Ok(ClassRef {
                        symbol: symbol.clone(),
                        defined_by: Some(exporter),
                        via: LoadPath::Import,
                    })
                } else {
                    Err(LoadError::NoSuchSymbol {
                        package: symbol.package().clone(),
                        simple: symbol.simple().to_owned(),
                    })
                };
            }
        }
        // 3. The bundle's own content.
        for pkg in b.manifest.own_packages() {
            if &pkg.name == symbol.package() {
                return if pkg.symbols.iter().any(|s| s == symbol.simple()) {
                    Ok(ClassRef {
                        symbol: symbol.clone(),
                        defined_by: Some(bundle),
                        via: LoadPath::Own,
                    })
                } else {
                    Err(LoadError::NoSuchSymbol {
                        package: symbol.package().clone(),
                        simple: symbol.simple().to_owned(),
                    })
                };
            }
        }
        Err(LoadError::NotFound(symbol.clone()))
    }

    // ------------------------------------------------------------------
    // Services
    // ------------------------------------------------------------------

    /// Registers a service on behalf of `owner`.
    pub fn register_service(
        &mut self,
        owner: BundleId,
        interfaces: &[&str],
        properties: BTreeMap<String, PropValue>,
        implementation: Box<dyn Service>,
    ) -> ServiceId {
        self.registry
            .register(owner, interfaces, properties, implementation)
    }

    /// The best service offering `interface`.
    pub fn best_service(&self, interface: &str) -> Option<ServiceId> {
        self.registry.best(interface)
    }

    /// Invokes a service, charging usage to its owner. The owning bundle's
    /// persistent storage area is attached to the call context; if the call
    /// writes to it, the area is flushed to the SAN afterwards — so a
    /// stateful service's persisted state is already on shared storage when
    /// a crash happens.
    ///
    /// # Errors
    ///
    /// Lookup and implementation errors (see [`ServiceError`]).
    pub fn call_service(
        &mut self,
        id: ServiceId,
        method: &str,
        arg: &Value,
    ) -> Result<Value, ServiceError> {
        let Some(owner) = self
            .registry
            .owner_of(id)
            .and_then(|b| self.bundles.get(&b))
        else {
            // Unknown service: let the registry produce the right error.
            return self.registry.call(id, &mut self.ledger, method, arg);
        };
        let sn = owner.manifest.symbolic_name.as_str();
        let area = match self.data_areas.get_mut(sn) {
            Some(area) => area,
            None => self.data_areas.entry(sn.to_owned()).or_default(),
        };
        // After a restore the in-memory area starts empty while the SAN
        // holds the persisted state: warm it up on first access. A failed
        // warm-up fails the call — running the service against possibly
        // incomplete state would silently drop persisted writes.
        if area.is_empty() {
            if let Some((store, ns)) = &self.store {
                let pairs = store
                    .read_namespace(&data_namespace(ns, sn))
                    .map_err(ServiceError::Store)?;
                area.extend(pairs);
            }
        }
        let (value, dirty) =
            self.registry
                .call_with_store(id, &mut self.ledger, area, method, arg)?;
        if let (true, Some((store, ns))) = (dirty, &self.store) {
            let entries: Vec<(&str, &Value)> = area.iter().map(|(k, v)| (k.as_str(), v)).collect();
            if let Err(e) = store.put_many(&data_namespace(ns, sn), &entries) {
                // The in-memory effect stands, but the caller must NOT
                // treat the call as durably acknowledged; the area is
                // re-flushed by the node tick.
                self.dirty_areas.insert(sn.to_owned());
                return Err(ServiceError::Store(e));
            }
        }
        Ok(value)
    }

    /// Read access to the service registry.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// Mutable access to the service registry (used by the vosgi layer to
    /// register manager services and share host services).
    pub fn registry_mut(&mut self) -> &mut ServiceRegistry {
        &mut self.registry
    }

    // ------------------------------------------------------------------
    // Bundle data areas (persistent storage)
    // ------------------------------------------------------------------

    /// Writes to a bundle's persistent storage area (write-through to the
    /// SAN if attached), charging the bytes to the bundle's disk account.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] for unknown bundles;
    /// [`BundleError::Store`] when the SAN write-through fails — the
    /// in-memory area is updated regardless and marked dirty for a later
    /// [`flush_persist`](Self::flush_persist).
    pub fn bundle_store_put(
        &mut self,
        bundle: BundleId,
        key: &str,
        value: Value,
    ) -> Result<(), BundleError> {
        let sn = self
            .bundles
            .get(&bundle)
            .map(|b| b.manifest.symbolic_name.as_str().to_owned())
            .ok_or(BundleError::NotFound(bundle))?;
        self.ledger.charge_disk(bundle, value.encoded_len() as u64);
        self.data_areas
            .entry(sn.clone())
            .or_default()
            .insert(key.to_owned(), value.clone());
        if let Some((store, ns)) = &self.store {
            if let Err(e) = store.put(&data_namespace(ns, &sn), key, value) {
                self.dirty_areas.insert(sn);
                return Err(BundleError::Store(e));
            }
        }
        Ok(())
    }

    /// Reads from a bundle's persistent storage area (falling back to the
    /// SAN, which is how state written before a migration is found again on
    /// the destination node).
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] for unknown bundles; [`BundleError::Store`]
    /// when the SAN fallback read fails.
    pub fn bundle_store_get(
        &self,
        bundle: BundleId,
        key: &str,
    ) -> Result<Option<Value>, BundleError> {
        let sn = self
            .bundles
            .get(&bundle)
            .map(|b| b.manifest.symbolic_name.as_str().to_owned())
            .ok_or(BundleError::NotFound(bundle))?;
        if let Some(v) = self.data_areas.get(&sn).and_then(|m| m.get(key)) {
            return Ok(Some(v.clone()));
        }
        match &self.store {
            Some((store, ns)) => Ok(store.get(&data_namespace(ns, &sn), key)?),
            None => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// A bundle's current state.
    ///
    /// # Errors
    ///
    /// [`BundleError::NotFound`] for unknown ids.
    pub fn bundle_state(&self, id: BundleId) -> Result<BundleState, BundleError> {
        self.bundles
            .get(&id)
            .map(|b| b.state)
            .ok_or(BundleError::NotFound(id))
    }

    /// Looks up a bundle by id.
    pub fn bundle(&self, id: BundleId) -> Option<&Bundle> {
        self.bundles.get(&id)
    }

    /// Iterates over installed bundles in id order.
    pub fn bundles(&self) -> impl Iterator<Item = &Bundle> {
        self.bundles.values()
    }

    /// Bundles that should be running but are not: marked autostart, within
    /// the active start level, yet not `ACTIVE` — typically because their
    /// activator failed during a [`restore`](Framework::restore) (e.g. a
    /// transient SAN read error while recovering state). A restored
    /// framework with degraded bundles is only *partially* re-materialized;
    /// the adoption layer treats that as a failed adoption and retries.
    pub fn degraded_bundles(&self) -> Vec<BundleId> {
        self.bundles
            .values()
            .filter(|b| {
                b.autostart
                    && b.manifest.start_level <= self.config.start_level
                    && !b.state.is_active()
            })
            .map(|b| b.id)
            .collect()
    }

    /// Finds a bundle by symbolic name (any version; lowest id wins).
    pub fn find_bundle(&self, symbolic_name: &str) -> Option<BundleId> {
        self.bundles
            .values()
            .find(|b| b.manifest.symbolic_name.as_str() == symbolic_name)
            .map(|b| b.id)
    }

    /// The wiring of a resolved bundle.
    pub fn wiring(&self, id: BundleId) -> Option<&Wiring> {
        self.wirings.get(&id)
    }

    /// The resource-usage ledger.
    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    /// Mutable access to the ledger (activation-time accounting).
    pub fn ledger_mut(&mut self) -> &mut UsageLedger {
        &mut self.ledger
    }

    /// Drains queued bundle events.
    pub fn take_bundle_events(&mut self) -> Vec<BundleEvent> {
        std::mem::take(&mut self.bundle_events)
    }

    /// Drains queued framework events.
    pub fn take_framework_events(&mut self) -> Vec<FrameworkEvent> {
        std::mem::take(&mut self.framework_events)
    }

    /// Drains queued service events.
    pub fn take_service_events(&mut self) -> Vec<ServiceEvent> {
        self.registry.take_events()
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Marks a bundle's snapshot row as ahead of the SAN. Every in-memory
    /// lifecycle mutation must mark the rows it touched; the persist call
    /// sites then flush exactly the marked rows (write-behind on failure).
    fn mark_bundle_dirty(&mut self, id: BundleId) {
        if self.store.is_some() {
            self.dirty_rows.insert(persist::bundle_key(id));
        }
    }

    /// Marks the header row (`next_bundle` / `start_level`) dirty.
    fn mark_header_dirty(&mut self) {
        if self.store.is_some() {
            self.dirty_rows.insert(persist::HEADER_KEY.to_owned());
        }
    }

    /// Marks every snapshot row dirty — used when the SAN copy cannot be
    /// assumed to match anything (store attach, restore). Change detection
    /// in the store makes rewriting an identical row free.
    fn mark_all_rows_dirty(&mut self) {
        if self.store.is_none() {
            return;
        }
        self.dirty_rows.insert(persist::HEADER_KEY.to_owned());
        let keys: Vec<String> = self
            .bundles
            .keys()
            .map(|id| persist::bundle_key(*id))
            .collect();
        self.dirty_rows.extend(keys);
    }

    /// Writes the changed snapshot rows of the framework state to the
    /// attached store, if any. Called automatically after every lifecycle
    /// mutation; rows that did not change since the last persist are not
    /// rewritten (dirty-tracking at bundle granularity), and the store
    /// additionally skips rows whose bytes are identical.
    ///
    /// Persistence is **write-behind** with respect to lifecycle progress: a
    /// transient SAN failure does not roll back the in-memory transition.
    /// Instead the framework leaves the rows marked dirty, records a
    /// [`FrameworkEvent::Error`], and relies on a later
    /// [`flush_persist`](Self::flush_persist) (the node tick drives one with
    /// backoff) to converge durable state.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] from the failed write; the rows stay dirty.
    pub fn persist(&mut self) -> Result<(), StoreError> {
        let Some((store, ns)) = self.store.clone() else {
            return Ok(());
        };
        match self.persist_rows(&store, &ns) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.framework_events.push(FrameworkEvent::Error {
                    bundle: None,
                    message: format!("snapshot persist deferred: {e}"),
                });
                Err(e)
            }
        }
    }

    fn persist_rows(&mut self, store: &SharedStore, ns: &str) -> Result<(), StoreError> {
        // Deletes first: an uninstalled bundle's row must be gone before a
        // concurrent restore could reassemble it into a stale bundle.
        let deletes: Vec<String> = self.deleted_rows.iter().cloned().collect();
        for key in deletes {
            match store.delete(ns, &key) {
                Ok(()) | Err(StoreError::NotFound { .. }) => {
                    self.deleted_rows.remove(&key);
                }
                Err(e) => return Err(e),
            }
        }
        if self.dirty_rows.is_empty() {
            return Ok(());
        }
        let mut entries: Vec<(String, Value)> = Vec::with_capacity(self.dirty_rows.len());
        for key in &self.dirty_rows {
            if key == persist::HEADER_KEY {
                entries.push((
                    key.clone(),
                    persist::header_row(self.next_bundle, self.config.start_level),
                ));
            } else if let Some(id) = persist::parse_bundle_key(key) {
                // A dirty row for a since-uninstalled bundle was replaced
                // by a delete marker; nothing to write.
                if let Some(b) = self.bundles.get(&id) {
                    entries.push((key.clone(), persist::bundle_row(b)));
                }
            }
        }
        store.put_many(ns, &entries)?;
        self.telemetry
            .add("persist.rows_written", entries.len() as u64);
        self.telemetry.add(
            "persist.rows_skipped",
            (self.bundles.len() as u64 + 1).saturating_sub(entries.len() as u64),
        );
        self.dirty_rows.clear();
        Ok(())
    }

    /// True when a snapshot-row or data-area write-through failed and
    /// durable state lags the in-memory state.
    pub fn persist_dirty(&self) -> bool {
        !self.dirty_rows.is_empty() || !self.deleted_rows.is_empty() || !self.dirty_areas.is_empty()
    }

    /// Retries every pending persistence: dirty snapshot rows, pending row
    /// deletes, and each data area whose write-through failed. Stops at the
    /// first error, leaving the remainder dirty for the next attempt.
    ///
    /// # Errors
    ///
    /// The first [`StoreError`] hit; [`persist_dirty`](Self::persist_dirty)
    /// remains true.
    pub fn flush_persist(&mut self) -> Result<(), StoreError> {
        // The node tick calls this for every framework every step; the
        // common case is that nothing is dirty, and it must cost nothing.
        if !self.persist_dirty() {
            return Ok(());
        }
        let Some((store, ns)) = self.store.clone() else {
            self.dirty_rows.clear();
            self.deleted_rows.clear();
            self.dirty_areas.clear();
            return Ok(());
        };
        if !self.dirty_rows.is_empty() || !self.deleted_rows.is_empty() {
            self.persist()?;
        }
        let pending: Vec<String> = self.dirty_areas.iter().cloned().collect();
        for sn in pending {
            let entries: Vec<(&str, &Value)> = self
                .data_areas
                .get(&sn)
                .map(|a| a.iter().map(|(k, v)| (k.as_str(), v)).collect())
                .unwrap_or_default();
            // Rewriting the full area is the idempotent recovery for torn
            // batch writes as well as plain failures.
            store.put_many(&data_namespace(&ns, &sn), &entries)?;
            self.dirty_areas.remove(&sn);
        }
        Ok(())
    }

    /// The encoded size of the persisted snapshot rows in bytes (0 when no
    /// store is attached) — the state a migration must move.
    pub fn snapshot_bytes(&self) -> u64 {
        match &self.store {
            // A metric, not a data read: namespace_bytes bypasses the fault
            // layer so sizing stays observable during brown-outs.
            Some((store, ns)) => store.namespace_bytes(ns),
            None => 0,
        }
    }

    /// Reconstructs a framework from the per-bundle snapshot rows stored
    /// under `namespace` (reassembled via `read_namespace`; a legacy
    /// monolithic snapshot restores too and is converted to rows),
    /// reinstalling every bundle (activators re-created via `factory`) and
    /// restarting the ones that were persistently started.
    ///
    /// This is the paper's migration/redeployment path: the OSGi spec makes
    /// framework state persistent, the SAN makes it visible cluster-wide, so
    /// any node can re-materialize the instance.
    ///
    /// # Errors
    ///
    /// [`BundleError::CorruptState`] when no snapshot exists or it fails to
    /// parse; [`BundleError::Store`] when the SAN rejects the read (usually
    /// transient — the adoption retry loop distinguishes the two).
    pub fn restore(
        config: FrameworkConfig,
        store: SharedStore,
        namespace: &str,
        factory: &ActivatorFactory,
    ) -> Result<Framework, BundleError> {
        let rows = store.read_namespace(namespace)?;
        let legacy = rows.iter().any(|(k, _)| k == persist::LEGACY_SNAPSHOT_KEY)
            && !rows.iter().any(|(k, _)| k == persist::HEADER_KEY);
        let parsed = persist::assemble(&rows)
            .map_err(BundleError::CorruptState)?
            .ok_or_else(|| BundleError::CorruptState(format!("no snapshot in {namespace}")))?;
        let mut fw = Framework::with_config(config);
        fw.config.start_level = parsed.start_level;
        for record in &parsed.bundles {
            let activator = factory.create(&record.manifest);
            fw.bundles.insert(
                record.id,
                Bundle {
                    id: record.id,
                    manifest: record.manifest.clone(),
                    state: BundleState::Installed,
                    autostart: record.autostart,
                    state_version: record.state_version,
                    activator,
                },
            );
            fw.event(record.id, BundleEventKind::Installed);
        }
        fw.next_bundle = parsed.next_bundle;
        // Attach the store before restarting anything: activators read
        // their persisted data areas during start.
        fw.store = Some((store, namespace.to_owned()));
        if legacy {
            // The trailing persist rewrites the state as rows; drop the
            // monolithic key so the namespace holds exactly one copy.
            fw.deleted_rows
                .insert(persist::LEGACY_SNAPSHOT_KEY.to_owned());
        }
        fw.resolve_all();
        // Restart persistently-started bundles within the start level, in
        // (start level, id) order.
        let mut to_start: Vec<(u32, BundleId)> = parsed
            .bundles
            .iter()
            .filter(|r| r.autostart && r.manifest.start_level <= parsed.start_level)
            .map(|r| (r.manifest.start_level, r.id))
            .collect();
        to_start.sort();
        for (_, id) in to_start {
            if let Err(e) = fw.start(id) {
                fw.framework_events.push(FrameworkEvent::Error {
                    bundle: Some(id),
                    message: e.to_string(),
                });
            }
        }
        // Re-mark everything: restored in-memory states can lag the rows
        // just read (e.g. a bundle persisted RESOLVED that no longer
        // resolves stays INSTALLED). Unchanged rows cost nothing to
        // rewrite thanks to store-level change detection.
        fw.mark_all_rows_dirty();
        let _ = fw.persist();
        Ok(fw)
    }

    fn event(&mut self, bundle: BundleId, kind: BundleEventKind) {
        let label = match kind {
            BundleEventKind::Installed => "osgi.lifecycle.installed",
            BundleEventKind::Resolved => "osgi.lifecycle.resolved",
            BundleEventKind::Started => "osgi.lifecycle.started",
            BundleEventKind::Stopped => "osgi.lifecycle.stopped",
            BundleEventKind::Updated => "osgi.lifecycle.updated",
            BundleEventKind::Upgraded => "osgi.lifecycle.upgraded",
            BundleEventKind::Uninstalled => "osgi.lifecycle.uninstalled",
        };
        self.telemetry.incr(label);
        self.bundle_events.push(BundleEvent { bundle, kind });
    }

    fn set_state(&mut self, id: BundleId, state: BundleState) {
        if let Some(b) = self.bundles.get_mut(&id) {
            b.state = state;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnActivator, ManifestBuilder, Version, VersionRange};
    use dosgi_san::SharedStore;

    fn log_manifest() -> BundleManifest {
        ManifestBuilder::new("org.test.log", Version::new(1, 0, 0))
            .export_package("org.test.log.api", Version::new(1, 0, 0), ["Logger"])
            .build()
            .unwrap()
    }

    fn app_manifest() -> BundleManifest {
        ManifestBuilder::new("org.test.app", Version::new(1, 0, 0))
            .import_package("org.test.log.api", "[1.0,2.0)".parse().unwrap())
            .private_package("org.test.app.impl", ["Main"])
            .start_level(2)
            .build()
            .unwrap()
    }

    fn log_activator() -> Box<dyn Activator> {
        Box::new(FnActivator::on_start(|ctx| {
            let mut props = BTreeMap::new();
            props.insert("service.ranking".to_owned(), PropValue::Int(5));
            ctx.register_service(
                &["org.test.log.Logger"],
                props,
                Box::new(
                    |_: &mut crate::CallContext<'_>, method: &str, arg: &Value| match method {
                        "log" => Ok(arg.clone()),
                        other => Err(ServiceError::Failed(format!("no {other}"))),
                    },
                ),
            );
            Ok(())
        }))
    }

    #[test]
    fn install_assigns_ids_and_rejects_duplicates() {
        let mut fw = Framework::new("t");
        let a = fw.install(log_manifest(), None).unwrap();
        assert_eq!(a, BundleId(1));
        assert!(matches!(
            fw.install(log_manifest(), None),
            Err(BundleError::DuplicateBundle { existing }) if existing == a
        ));
        // Same name, different version is fine.
        let m2 = ManifestBuilder::new("org.test.log", Version::new(2, 0, 0))
            .build()
            .unwrap();
        assert_eq!(fw.install(m2, None).unwrap(), BundleId(2));
    }

    #[test]
    fn start_resolves_and_runs_activator() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.start(log).unwrap();
        fw.start(app).unwrap();
        assert!(fw.bundle_state(log).unwrap().is_active());
        assert!(fw.bundle_state(app).unwrap().is_active());
        // The activator registered the logger service.
        let sid = fw.best_service("org.test.log.Logger").unwrap();
        let out = fw.call_service(sid, "log", &Value::from("hi")).unwrap();
        assert_eq!(out, Value::from("hi"));
        // Starting an active bundle is a no-op.
        fw.start(log).unwrap();
    }

    #[test]
    fn start_fails_cleanly_on_unresolvable_imports() {
        let mut fw = Framework::new("t");
        let app = fw.install(app_manifest(), None).unwrap();
        let err = fw.start(app).unwrap_err();
        assert!(matches!(err, BundleError::ResolutionFailed { bundle, .. } if bundle == app));
        assert_eq!(fw.bundle_state(app).unwrap(), BundleState::Installed);
    }

    #[test]
    fn failing_activator_rolls_back_and_sweeps_services() {
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("org.test.bad", Version::new(1, 0, 0))
            .build()
            .unwrap();
        let id = fw
            .install(
                m,
                Some(Box::new(FnActivator::on_start(|ctx| {
                    // Register, then fail: the registration must be swept.
                    ctx.register_service(
                        &["ghost"],
                        BTreeMap::new(),
                        Box::new(|_: &mut crate::CallContext<'_>, _: &str, _: &Value| {
                            Ok(Value::Null)
                        }),
                    );
                    Err("deliberate".to_owned())
                }))),
            )
            .unwrap();
        let err = fw.start(id).unwrap_err();
        assert!(matches!(err, BundleError::ActivatorFailed { .. }));
        assert_eq!(fw.bundle_state(id).unwrap(), BundleState::Resolved);
        assert!(fw.best_service("ghost").is_none());
        let events = fw.take_framework_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, FrameworkEvent::Error { bundle: Some(b), .. } if *b == id)));
    }

    #[test]
    fn stop_unregisters_services_and_clears_autostart() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        assert!(fw.bundle(log).unwrap().autostart);
        fw.stop(log).unwrap();
        assert_eq!(fw.bundle_state(log).unwrap(), BundleState::Resolved);
        assert!(!fw.bundle(log).unwrap().autostart);
        assert!(fw.best_service("org.test.log.Logger").is_none());
        // Stop of non-active bundle is a no-op.
        fw.stop(log).unwrap();
    }

    #[test]
    fn uninstall_removes_bundle_and_dependents_lose_resolution() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.start(log).unwrap();
        fw.start(app).unwrap();
        fw.uninstall(log).unwrap();
        assert!(matches!(
            fw.bundle_state(log),
            Err(BundleError::NotFound(_))
        ));
        // Refresh demotes the dependent.
        fw.refresh();
        assert_eq!(fw.bundle_state(app).unwrap(), BundleState::Installed);
    }

    #[test]
    fn update_replaces_manifest_and_restarts() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        let v2 = ManifestBuilder::new("org.test.log", Version::new(1, 1, 0))
            .export_package(
                "org.test.log.api",
                Version::new(1, 1, 0),
                ["Logger", "Appender"],
            )
            .build()
            .unwrap();
        fw.update(log, v2).unwrap();
        assert!(fw.bundle_state(log).unwrap().is_active());
        assert_eq!(
            fw.bundle(log).unwrap().manifest.version,
            Version::new(1, 1, 0)
        );
        let kinds: Vec<BundleEventKind> = fw.take_bundle_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&BundleEventKind::Updated));
        // Service re-registered by the restarted activator.
        assert!(fw.best_service("org.test.log.Logger").is_some());
    }

    #[test]
    fn upgrade_hands_state_to_new_revision() {
        let store = SharedStore::new();
        let mut fw = Framework::new("u");
        fw.attach_store(store.clone(), "u").unwrap();
        let m1 = ManifestBuilder::new("org.test.ctr", Version::new(1, 0, 0))
            .build()
            .unwrap();
        let id = fw.install(m1, None).unwrap();
        fw.start(id).unwrap();
        fw.bundle_store_put(id, "n", Value::Int(41)).unwrap();
        let m2 = ManifestBuilder::new("org.test.ctr", Version::new(1, 2, 0))
            .build()
            .unwrap();
        // The new activator proves adoption: it reads the handed-off state
        // and fails the start if the handoff lost it.
        let report = fw
            .upgrade_bundle(
                id,
                m2,
                Some(Box::new(FnActivator::on_start(|ctx| {
                    match ctx.store_get("n").map_err(|e| e.to_string())? {
                        Some(Value::Int(n)) => ctx
                            .store_put("n", Value::Int(n + 1))
                            .map_err(|e| e.to_string()),
                        other => Err(format!("state not handed off: {other:?}")),
                    }
                }))),
            )
            .unwrap();
        assert_eq!(report.from, Version::new(1, 0, 0));
        assert_eq!(report.to, Version::new(1, 2, 0));
        assert_eq!(report.handoff_keys, 1);
        assert!(fw.bundle_state(id).unwrap().is_active());
        assert_eq!(fw.bundle(id).unwrap().state_version, Version::new(1, 2, 0));
        assert_eq!(fw.bundle_store_get(id, "n").unwrap(), Some(Value::Int(42)));
        let kinds: Vec<BundleEventKind> = fw.take_bundle_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&BundleEventKind::Upgraded));
        // The swap is durable: a restore comes back at the new revision
        // with the same compatibility anchor.
        let factory = ActivatorFactory::new();
        let fw2 = Framework::restore(FrameworkConfig::new("u"), store, "u", &factory).unwrap();
        let id2 = fw2.find_bundle("org.test.ctr").unwrap();
        assert_eq!(
            fw2.bundle(id2).unwrap().manifest.version,
            Version::new(1, 2, 0)
        );
        assert_eq!(
            fw2.bundle(id2).unwrap().state_version,
            Version::new(1, 2, 0)
        );
    }

    #[test]
    fn upgrade_rejects_incompatible_targets_untouched() {
        let mut fw = Framework::new("u");
        let id = fw
            .install(
                ManifestBuilder::new("a.b", Version::new(1, 4, 0))
                    .build()
                    .unwrap(),
                None,
            )
            .unwrap();
        fw.start(id).unwrap();
        let major = ManifestBuilder::new("a.b", Version::new(2, 0, 0))
            .build()
            .unwrap();
        assert!(matches!(
            fw.upgrade_bundle(id, major, None),
            Err(BundleError::IncompatibleUpgrade { state, target, .. })
                if state == Version::new(1, 4, 0) && target == Version::new(2, 0, 0)
        ));
        let renamed = ManifestBuilder::new("a.c", Version::new(1, 5, 0))
            .build()
            .unwrap();
        assert!(matches!(
            fw.upgrade_bundle(id, renamed, None),
            Err(BundleError::IncompatibleUpgrade { .. })
        ));
        // The old revision never stopped serving.
        assert!(fw.bundle_state(id).unwrap().is_active());
        assert_eq!(
            fw.bundle(id).unwrap().manifest.version,
            Version::new(1, 4, 0)
        );
        // A downgrade within the major is a legal handoff.
        let downgrade = ManifestBuilder::new("a.b", Version::new(1, 2, 0))
            .build()
            .unwrap();
        let report = fw.upgrade_bundle(id, downgrade, None).unwrap();
        assert_eq!(report.to, Version::new(1, 2, 0));
        assert!(fw.bundle_state(id).unwrap().is_active());
    }

    #[test]
    fn upgrade_rolls_back_on_store_failure() {
        use dosgi_san::FaultPlan;
        let store = SharedStore::new();
        let mut fw = Framework::new("u");
        fw.attach_store(store.clone(), "u").unwrap();
        let id = fw
            .install(
                ManifestBuilder::new("a.b", Version::new(1, 0, 0))
                    .build()
                    .unwrap(),
                None,
            )
            .unwrap();
        fw.start(id).unwrap();
        store.set_fault_plan(FaultPlan::flaky(1.0, 7));
        let v2 = ManifestBuilder::new("a.b", Version::new(1, 1, 0))
            .build()
            .unwrap();
        let err = fw.upgrade_bundle(id, v2.clone(), None).unwrap_err();
        assert!(matches!(err, BundleError::Store(_)));
        // Rolled back: the old revision is serving again.
        assert!(fw.bundle_state(id).unwrap().is_active());
        assert_eq!(
            fw.bundle(id).unwrap().manifest.version,
            Version::new(1, 0, 0)
        );
        // Heal and retry: the same upgrade now lands.
        store.faults().clear();
        let report = fw.upgrade_bundle(id, v2, None).unwrap();
        assert_eq!(report.to, Version::new(1, 1, 0));
        assert!(fw.bundle_state(id).unwrap().is_active());
    }

    #[test]
    fn class_loading_follows_delegation_order() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), None).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.resolve_all();

        // Boot delegation.
        let sym = SymbolName::parse("std.collections.HashMap").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Boot);
        assert_eq!(r.defined_by, None);

        // Imported package resolves in the exporter.
        let sym = SymbolName::parse("org.test.log.api.Logger").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Import);
        assert_eq!(r.defined_by, Some(log));

        // Own private content.
        let sym = SymbolName::parse("org.test.app.impl.Main").unwrap();
        let r = fw.load_class(app, &sym).unwrap();
        assert_eq!(r.via, LoadPath::Own);
        assert_eq!(r.defined_by, Some(app));

        // Wired package without the symbol: NoSuchSymbol, no fallback.
        let sym = SymbolName::parse("org.test.log.api.Missing").unwrap();
        assert!(matches!(
            fw.load_class(app, &sym),
            Err(LoadError::NoSuchSymbol { .. })
        ));

        // Unknown package.
        let sym = SymbolName::parse("com.nowhere.X").unwrap();
        assert!(matches!(
            fw.load_class(app, &sym),
            Err(LoadError::NotFound(_))
        ));

        // Private content of another bundle is NOT visible.
        let sym = SymbolName::parse("org.test.app.impl.Main").unwrap();
        assert!(matches!(
            fw.load_class(log, &sym),
            Err(LoadError::NotFound(_))
        ));
    }

    #[test]
    fn start_levels_sweep_up_and_down() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap(); // level 1
        let app = fw.install(app_manifest(), None).unwrap(); // level 2
        fw.start(log).unwrap();
        fw.start(app).unwrap();
        // Sweep down to level 1: app stops (transiently), log stays.
        fw.set_start_level(1);
        assert_eq!(fw.bundle_state(app).unwrap(), BundleState::Resolved);
        assert!(
            fw.bundle(app).unwrap().autostart,
            "transient stop keeps autostart"
        );
        assert!(fw.bundle_state(log).unwrap().is_active());
        // Sweep back up: app restarts.
        fw.set_start_level(2);
        assert!(fw.bundle_state(app).unwrap().is_active());
        assert_eq!(fw.start_level(), 2);
    }

    #[test]
    fn shutdown_then_restore_recreates_active_set() {
        let store = SharedStore::new();
        let mut factory = ActivatorFactory::new();
        factory.register("org.test.log", |_| log_activator());

        let mut fw = Framework::new("node-a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        let app = fw.install(app_manifest(), None).unwrap();
        fw.set_start_level(2);
        fw.start(log).unwrap();
        fw.start(app).unwrap();
        fw.shutdown();
        assert_eq!(fw.bundle_state(log).unwrap(), BundleState::Resolved);
        drop(fw);

        // "Another node" restores from the SAN.
        let fw2 =
            Framework::restore(FrameworkConfig::new("node-b"), store, "fw/a", &factory).unwrap();
        assert_eq!(fw2.start_level(), 2);
        assert!(fw2.bundle_state(log).unwrap().is_active());
        assert!(fw2.bundle_state(app).unwrap().is_active());
        // The activator was re-created and re-registered its service.
        assert!(fw2.best_service("org.test.log.Logger").is_some());
        // Ids preserved.
        assert_eq!(fw2.find_bundle("org.test.app"), Some(app));
    }

    #[test]
    fn restore_fails_on_missing_snapshot() {
        let err = Framework::restore(
            FrameworkConfig::new("x"),
            SharedStore::new(),
            "nope",
            &ActivatorFactory::new(),
        )
        .unwrap_err();
        assert!(matches!(err, BundleError::CorruptState(_)));
    }

    #[test]
    fn data_area_survives_restore_via_san() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        let log = fw.install(log_manifest(), None).unwrap();
        fw.bundle_store_put(log, "counter", Value::Int(41)).unwrap();
        drop(fw);

        let fw2 = Framework::restore(
            FrameworkConfig::new("b"),
            store,
            "fw/a",
            &ActivatorFactory::new(),
        )
        .unwrap();
        let log2 = fw2.find_bundle("org.test.log").unwrap();
        assert_eq!(
            fw2.bundle_store_get(log2, "counter"),
            Ok(Some(Value::Int(41)))
        );
        assert_eq!(fw2.bundle_store_get(log2, "missing"), Ok(None));
    }

    #[test]
    fn ledger_tracks_service_calls() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        let sid = fw.best_service("org.test.log.Logger").unwrap();
        for _ in 0..5 {
            fw.call_service(sid, "log", &Value::Null).unwrap();
        }
        assert_eq!(fw.ledger().snapshot(log).calls, 5);
    }

    #[test]
    fn snapshot_bytes_reports_persisted_size() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        assert_eq!(fw.snapshot_bytes(), 0);
        fw.attach_store(store, "fw/a").unwrap();
        fw.install(log_manifest(), None).unwrap();
        assert!(fw.snapshot_bytes() > 0);
    }

    #[test]
    fn events_flow_for_full_lifecycle() {
        let mut fw = Framework::new("t");
        let log = fw.install(log_manifest(), Some(log_activator())).unwrap();
        fw.start(log).unwrap();
        fw.stop(log).unwrap();
        fw.uninstall(log).unwrap();
        let kinds: Vec<BundleEventKind> = fw.take_bundle_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BundleEventKind::Installed,
                BundleEventKind::Resolved,
                BundleEventKind::Started,
                BundleEventKind::Stopped,
                BundleEventKind::Uninstalled,
            ]
        );
        let service_kinds: Vec<crate::ServiceEventKind> =
            fw.take_service_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            service_kinds,
            vec![
                crate::ServiceEventKind::Registered,
                crate::ServiceEventKind::Unregistering
            ]
        );
    }

    #[test]
    fn optional_import_wires_when_available() {
        let mut fw = Framework::new("t");
        let m = ManifestBuilder::new("opt.app", Version::new(1, 0, 0))
            .import_package_optional("org.test.log.api", VersionRange::ANY)
            .build()
            .unwrap();
        let app = fw.install(m, None).unwrap();
        fw.resolve_all();
        assert_eq!(fw.bundle_state(app).unwrap(), BundleState::Resolved);
        assert!(fw.wiring(app).unwrap().imports.is_empty());
        // Install the exporter, refresh: the optional import now wires.
        let log = fw.install(log_manifest(), None).unwrap();
        fw.refresh();
        assert_eq!(
            fw.wiring(app)
                .unwrap()
                .exporter_of(&crate::PackageName::new("org.test.log.api").unwrap()),
            Some(log)
        );
    }

    // ------------------------------------------------------------------
    // Storage fault behavior
    // ------------------------------------------------------------------

    use dosgi_net::SimTime;
    use dosgi_san::FaultPlan;

    fn counter_activator() -> Box<dyn Activator> {
        Box::new(FnActivator::on_start(|ctx| {
            ctx.register_service(
                &["org.test.Counter"],
                BTreeMap::new(),
                Box::new(
                    |cc: &mut crate::CallContext<'_>, method: &str, _: &Value| match method {
                        "incr" => {
                            let n = match cc.store_get("n") {
                                Some(Value::Int(n)) => n,
                                _ => 0,
                            };
                            cc.store_put("n", Value::Int(n + 1));
                            Ok(Value::Int(n + 1))
                        }
                        other => Err(ServiceError::Failed(format!("no {other}"))),
                    },
                ),
            );
            Ok(())
        }))
    }

    #[test]
    fn persist_failure_defers_then_flush_converges() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        fw.install(log_manifest(), None).unwrap();

        // Brown-out: the lifecycle mutation proceeds in memory, the
        // snapshot write is deferred (write-behind).
        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(5)));
        let app = fw.install(app_manifest(), None).unwrap();
        assert!(fw.persist_dirty());
        assert!(fw.bundle_state(app).is_ok());
        assert!(fw.flush_persist().is_err(), "still browned out");

        // Heal, flush: durable state converges and restore sees both.
        store.set_now(SimTime::from_secs(5));
        fw.flush_persist().unwrap();
        assert!(!fw.persist_dirty());
        drop(fw);
        let fw2 = Framework::restore(
            FrameworkConfig::new("b"),
            store,
            "fw/a",
            &ActivatorFactory::new(),
        )
        .unwrap();
        assert!(fw2.find_bundle("org.test.app").is_some());
    }

    #[test]
    fn unacked_service_write_is_reflushed_not_lost() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        let c = fw
            .install(
                ManifestBuilder::new("org.test.counter", Version::new(1, 0, 0))
                    .build()
                    .unwrap(),
                Some(counter_activator()),
            )
            .unwrap();
        fw.start(c).unwrap();
        let sid = fw.best_service("org.test.Counter").unwrap();
        assert_eq!(
            fw.call_service(sid, "incr", &Value::Null),
            Ok(Value::Int(1))
        );

        // Brown-out: the increment applies in memory but the write-through
        // fails, so the caller must NOT count it as acknowledged.
        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(5)));
        assert!(matches!(
            fw.call_service(sid, "incr", &Value::Null),
            Err(ServiceError::Store(dosgi_san::StoreError::Unavailable))
        ));
        assert!(fw.persist_dirty());
        assert_eq!(
            store.peek("fw/a/data/org.test.counter", "n"),
            Some(Value::Int(1)),
            "durable state keeps only the acknowledged increment"
        );

        // Heal and flush: the deferred write lands; SAN ≥ acked holds.
        store.set_now(SimTime::from_secs(5));
        fw.flush_persist().unwrap();
        assert_eq!(
            store.peek("fw/a/data/org.test.counter", "n"),
            Some(Value::Int(2))
        );
    }

    #[test]
    fn restore_surfaces_transient_store_errors() {
        let store = SharedStore::new();
        let mut fw = Framework::new("a");
        fw.attach_store(store.clone(), "fw/a").unwrap();
        fw.install(log_manifest(), None).unwrap();
        drop(fw);

        store.set_fault_plan(FaultPlan::none().with_brownout(SimTime::ZERO, SimTime::from_secs(5)));
        let err = Framework::restore(
            FrameworkConfig::new("b"),
            store.clone(),
            "fw/a",
            &ActivatorFactory::new(),
        )
        .unwrap_err();
        assert!(matches!(&err, BundleError::Store(e) if e.is_transient()));

        store.set_now(SimTime::from_secs(5));
        assert!(Framework::restore(
            FrameworkConfig::new("b"),
            store,
            "fw/a",
            &ActivatorFactory::new(),
        )
        .is_ok());
    }

    /// Random lifecycle sequences with SAN faults injected mid-stream: the
    /// store-attached framework must (a) never let a fault change a
    /// lifecycle outcome (its in-memory state stays byte-identical to a
    /// storeless oracle applying the same ops), and (b) once the SAN heals
    /// and the write-behind rows flush, its per-bundle rows must reassemble
    /// byte-identically to the monolithic snapshot the oracle would write.
    /// Restoring from the rows and from the legacy monolithic snapshot must
    /// then agree byte-for-byte too. The whole property runs against
    /// *every* registered SAN backend — the storeless oracle is the same,
    /// so this is the backend conformance suite's view from the OSGi layer.
    #[test]
    fn prop_row_persistence_matches_monolithic_oracle_under_faults() {
        use dosgi_testkit::{prop, prop_verify, Gen, PropResult};

        #[derive(Debug, Clone)]
        enum Op {
            Install(u8),
            Start(u8),
            Stop(u8),
            Uninstall(u8),
            SetStartLevel(u8),
            DataPut(u8),
            Fault(u8),
            Heal,
        }

        fn pool() -> Vec<BundleManifest> {
            (0..8u32)
                .map(|i| {
                    let mut b =
                        ManifestBuilder::new(&format!("org.prop.b{i}"), Version::new(1, 0, 0))
                            .private_package(&format!("org.prop.b{i}.impl"), ["Main"]);
                    if i % 3 == 0 {
                        b = b.start_level(2);
                    }
                    b.build().unwrap()
                })
                .collect()
        }

        fn apply(
            fw: &mut Framework,
            manifests: &[BundleManifest],
            op: &Op,
            store: Option<&SharedStore>,
        ) {
            match *op {
                Op::Install(n) => {
                    let _ = fw.install(manifests[n as usize % manifests.len()].clone(), None);
                }
                Op::Start(n) => {
                    let _ = fw.start(BundleId(u64::from(n) % 12 + 1));
                }
                Op::Stop(n) => {
                    let _ = fw.stop(BundleId(u64::from(n) % 12 + 1));
                }
                Op::Uninstall(n) => {
                    let _ = fw.uninstall(BundleId(u64::from(n) % 12 + 1));
                }
                Op::SetStartLevel(n) => fw.set_start_level(u32::from(n)),
                Op::DataPut(n) => {
                    let _ = fw.bundle_store_put(
                        BundleId(u64::from(n) % 12 + 1),
                        &format!("k{}", n % 3),
                        Value::Int(i64::from(n)),
                    );
                }
                Op::Fault(n) => {
                    // Only the store-attached framework sees the SAN; the
                    // oracle has none to fault.
                    if let Some(store) = store {
                        store.set_fault_plan(
                            FaultPlan::flaky(f64::from(n % 40) / 100.0, u64::from(n) * 977 + 13)
                                .with_torn_writes(f64::from(n % 3) / 4.0),
                        );
                    }
                }
                Op::Heal => {
                    if let Some(store) = store {
                        store.faults().clear();
                    }
                }
            }
        }

        let ops = prop::vecs(
            prop::one_of(vec![
                prop::u8s(0, 7).map(Op::Install),
                prop::u8s(0, 11).map(Op::Start),
                prop::u8s(0, 11).map(Op::Stop),
                prop::u8s(0, 11).map(Op::Uninstall),
                prop::u8s(1, 3).map(Op::SetStartLevel),
                prop::u8s(0, 11).map(Op::DataPut),
                prop::u8s(0, 99).map(Op::Fault),
                Gen::new(|_| Op::Heal),
            ]),
            1,
            40,
        );

        prop::check_with(
            &prop::Config::with_cases(200),
            "prop_row_persistence_matches_monolithic_oracle_under_faults",
            &ops,
            |ops: &Vec<Op>| -> PropResult {
                for kind in dosgi_san::BackendKind::all() {
                    let manifests = pool();
                    let store = SharedStore::with_kind(kind);
                    let ns = "prop/fw";
                    let mut fw = Framework::new(ns);
                    fw.attach_store(store.clone(), ns).expect("clean attach");
                    let mut oracle = Framework::new(ns);
                    for op in ops {
                        apply(&mut fw, &manifests, op, Some(&store));
                        apply(&mut oracle, &manifests, op, None);
                    }
                    store.faults().clear();
                    fw.flush_persist().expect("flush after heal");

                    let mono = persist::snapshot(
                        oracle.next_bundle,
                        oracle.start_level(),
                        oracle.bundles(),
                    );
                    let live = persist::snapshot(fw.next_bundle, fw.start_level(), fw.bundles());
                    prop_verify!(
                        live.encode() == mono.encode(),
                        "faulted framework on `{kind}` diverged from the storeless oracle in memory"
                    );

                    let rows = store.read_namespace(ns).expect("healed SAN");
                    let assembled = persist::assemble(&rows)
                        .expect("well-formed rows")
                        .expect("header row present");
                    let rebuilt: Vec<Bundle> = assembled
                        .bundles
                        .into_iter()
                        .map(|r| Bundle {
                            id: r.id,
                            manifest: r.manifest,
                            state: r.state,
                            autostart: r.autostart,
                            state_version: r.state_version,
                            activator: None,
                        })
                        .collect();
                    let from_rows = persist::snapshot(
                        assembled.next_bundle,
                        assembled.start_level,
                        rebuilt.iter(),
                    );
                    prop_verify!(
                        from_rows.encode() == mono.encode(),
                        "persisted rows on `{kind}` diverge from the monolithic oracle snapshot"
                    );

                    // Restore equivalence: rows vs the legacy monolithic key.
                    let legacy_store = SharedStore::with_kind(kind);
                    legacy_store
                        .put(ns, persist::LEGACY_SNAPSHOT_KEY, mono)
                        .expect("clean legacy write");
                    let factory = ActivatorFactory::new();
                    drop(fw);
                    let from_row_store =
                        Framework::restore(FrameworkConfig::new(ns), store.clone(), ns, &factory)
                            .expect("restore from rows");
                    let from_legacy = Framework::restore(
                        FrameworkConfig::new(ns),
                        legacy_store.clone(),
                        ns,
                        &factory,
                    )
                    .expect("restore from legacy snapshot");
                    let a = persist::snapshot(
                        from_row_store.next_bundle,
                        from_row_store.start_level(),
                        from_row_store.bundles(),
                    );
                    let b = persist::snapshot(
                        from_legacy.next_bundle,
                        from_legacy.start_level(),
                        from_legacy.bundles(),
                    );
                    prop_verify!(
                        a.encode() == b.encode(),
                        "row restore and legacy-snapshot restore disagree on `{kind}`"
                    );
                }
                Ok(())
            },
        );
    }
}
