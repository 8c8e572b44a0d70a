//! One node of the dependable distributed OSGi environment.

use crate::autonomic::AutonomicModule;
use crate::events::{AdoptReason, NodeEvent};
use crate::msg::AppPayload;
use crate::placement::PlacementPolicy;
use crate::registry::{ClusterRegistry, InstanceStatus};
use crate::workloads;
use crate::CoreError;
use dosgi_gcs::{FabricTransport, GcsConfig, GcsEvent, GcsWire, GroupNode};
use dosgi_monitor::{MonitoringModule, NodeCapacity};
use dosgi_net::{Fabric, NodeId, SimDuration, SimTime};
use dosgi_osgi::{BundleManifest, Framework};
use dosgi_policy::PolicyAction;
use dosgi_san::{SharedStore, Value};
use dosgi_telemetry::{FlightRecorder, Telemetry, TraceContext, TraceRef};
use dosgi_vosgi::{InstanceDescriptor, InstanceManager, ResourceQuota};
use std::collections::{BTreeMap, BTreeSet};

/// The wire type carried by the cluster's simulated network.
pub type Wire = GcsWire<AppPayload>;

/// How often a running node sweeps the registry for stranded instances.
const STRANDED_SWEEP_PERIOD: SimDuration = SimDuration::from_millis(1_000);

/// A node's coarse operational state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeState {
    /// Serving normally.
    #[default]
    Running,
    /// Migrating its instances away ahead of a graceful shutdown.
    Draining,
    /// Powered down for consolidation (paper §4's green side effect).
    Hibernated,
    /// Orderly stopped (drain complete).
    Stopped,
}

/// Per-node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Group communication timing.
    pub gcs: GcsConfig,
    /// Monitoring sample period.
    pub sample_interval: SimDuration,
    /// Placement discipline for failover and SLA migrations.
    pub placement: PlacementPolicy,
    /// Physical capacity.
    pub capacity: NodeCapacity,
    /// Autonomic policy script (`None` disables the module — the E10
    /// baseline).
    pub policy: Option<String>,
    /// Autonomic evaluation period.
    pub policy_interval: SimDuration,
    /// Simulated cost of installing + starting one bundle (re-materializing
    /// an instance pays this per bundle; calibrated to a small 2008-era
    /// bundle start).
    pub start_cost_per_bundle: SimDuration,
    /// SAN latency profile: adoption pays a read of the instance's
    /// persisted state.
    pub san: dosgi_san::SanProfile,
    /// Retry/backoff discipline for adoption against a faulty SAN: a
    /// transiently-failing re-materialization is retried with exponential
    /// backoff; once the budget is exhausted the instance is quarantined
    /// (kept in the registry, re-claimed when the SAN heals).
    pub retry: dosgi_san::RetryPolicy,
    /// Simulated cost of the in-place revision swap during a hot bundle
    /// upgrade (manifest replacement + re-wire + activator start against
    /// already-warm state). The per-upgrade blackout is this plus a SAN
    /// write of the bundle's dirty state — µs-scale, as opposed to the
    /// ms-scale whole-instance migration path.
    pub upgrade_swap_cost: SimDuration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            gcs: GcsConfig::lan(),
            sample_interval: SimDuration::from_millis(250),
            placement: PlacementPolicy::FewestInstances,
            capacity: NodeCapacity::standard(),
            policy: Some(crate::autonomic::DEFAULT_POLICY.to_owned()),
            policy_interval: SimDuration::from_millis(500),
            start_cost_per_bundle: SimDuration::from_millis(50),
            san: dosgi_san::SanProfile::fast(),
            retry: dosgi_san::RetryPolicy::persistence(),
            upgrade_swap_cost: SimDuration::from_micros(150),
        }
    }
}

/// One cluster node: host OSGi framework + Instance Manager + Migration
/// Module + Monitoring Module + Autonomic Module + GCS endpoint.
pub struct DosgiNode {
    id: NodeId,
    state: NodeState,
    config: NodeConfig,
    mgr: InstanceManager,
    gcs: GroupNode<AppPayload>,
    registry: ClusterRegistry,
    monitor: MonitoringModule,
    autonomic: Option<AutonomicModule>,
    draining_peers: BTreeSet<NodeId>,
    departed_peers: BTreeSet<NodeId>,
    throttled: BTreeSet<String>,
    hibernate_when_empty: bool,
    last_sample: Option<SimTime>,
    last_sweep: Option<SimTime>,
    hello_sent: bool,
    store: SharedStore,
    pending_adoptions: Vec<PendingAdoption>,
    pending_upgrades: Vec<PendingUpgrade>,
    events: Vec<NodeEvent>,
    telemetry: Telemetry,
    recorder: FlightRecorder,
    // Open failover/heal claim roots, keyed by instance: minted when this
    // node orders an `Adopted` claim, closed when the claim's delivery
    // resolves the race (either way) in the total order.
    claim_traces: BTreeMap<String, TraceRef>,
    // Open `upgrade/<instance>` roots, keyed by `<instance>/<bundle>` —
    // the same discipline as `claim_traces`: minted when the upgrade is
    // requested, *reused* by every transient-fault retry, and closed
    // exactly once when the upgrade completes or fails permanently. This
    // is what keeps a SAN-faulted upgrade from leaking an open span per
    // retry.
    upgrade_traces: BTreeMap<String, TraceRef>,
    // The (ended) root of the most recent completed upgrade per instance:
    // the wave orchestrator joins its `undrain/` span to this trace so the
    // un-drain is causally ordered after the new revision's adoption.
    finished_upgrade_traces: BTreeMap<String, TraceRef>,
    // The open `shutdown`/`hibernate` root while draining; closed when the
    // drain completes.
    lifecycle_trace: TraceRef,
}

#[derive(Debug, Clone)]
struct PendingAdoption {
    ready_at: SimTime,
    name: String,
    reason: AdoptReason,
    /// How many materialization attempts already failed transiently.
    attempt: u32,
    /// The causal `adopt/<name>` trace span, if the triggering control
    /// message carried a context; closed when the ticket materializes, is
    /// overruled, or quarantines.
    trace: TraceRef,
}

/// A queued in-place bundle upgrade: the swap happens once `ready_at`
/// passes (the modeled blackout), against the replicated-registry check
/// that the instance is still homed here.
#[derive(Debug, Clone)]
struct PendingUpgrade {
    ready_at: SimTime,
    /// The hosting instance.
    name: String,
    /// The replacement revision's manifest.
    manifest: BundleManifest,
    /// How many swap attempts already failed transiently.
    attempt: u32,
}

impl std::fmt::Debug for DosgiNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DosgiNode")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("instances", &self.mgr.len())
            .field("view", &self.gcs.view().members.len())
            .finish_non_exhaustive()
    }
}

impl DosgiNode {
    /// Creates a node: host framework with the standard host bundles (log,
    /// HTTP, metrics) started, SAN attached, GCS endpoint joined.
    pub fn new(
        id: NodeId,
        peers: Vec<NodeId>,
        config: NodeConfig,
        store: SharedStore,
        now: SimTime,
    ) -> Self {
        let mut host = Framework::new(&format!("host/{id}"));
        // A node booting during a SAN fault keeps its snapshot dirty; the
        // tick's flush loop converges it once the SAN answers again.
        let _ = host.attach_store(store.clone(), &format!("host/{id}"));
        let factory = workloads::standard_factory();
        for manifest in workloads::host_bundles() {
            let activator = factory.create(&manifest);
            let bid = host.install(manifest, activator).expect("fresh framework");
            host.start(bid).expect("host bundles start");
        }
        let mut mgr = InstanceManager::new(host, workloads::standard_repository(), factory);
        mgr.attach_store(store.clone());
        let autonomic = config.policy.as_ref().map(|script| {
            AutonomicModule::new(script, config.policy_interval)
                .expect("node policy script must compile")
        });
        DosgiNode {
            id,
            state: NodeState::Running,
            gcs: GroupNode::new(id, peers, config.gcs, now),
            config,
            mgr,
            registry: ClusterRegistry::new(),
            monitor: MonitoringModule::new(),
            autonomic,
            draining_peers: BTreeSet::new(),
            departed_peers: BTreeSet::new(),
            throttled: BTreeSet::new(),
            hibernate_when_empty: false,
            last_sample: None,
            last_sweep: None,
            hello_sent: false,
            store,
            pending_adoptions: Vec::new(),
            pending_upgrades: Vec::new(),
            events: Vec::new(),
            telemetry: Telemetry::disabled(),
            recorder: FlightRecorder::disabled(),
            claim_traces: BTreeMap::new(),
            upgrade_traces: BTreeMap::new(),
            finished_upgrade_traces: BTreeMap::new(),
            lifecycle_trace: TraceRef::NONE,
        }
    }

    /// Attaches a telemetry handle, propagated to the GCS endpoint and
    /// the instance manager (host framework + instance frameworks).
    /// Telemetry is passive; protocol behaviour is unchanged.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.gcs.set_telemetry(telemetry.clone());
        self.mgr.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Attaches a flight recorder for causal protocol tracing. Like
    /// telemetry, the recorder is strictly passive: spans are stamped from
    /// the simulated clock and a logical (Lamport) clock, never from wall
    /// time or the RNG, so protocol behaviour is bit-identical with the
    /// recorder on or off.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = recorder;
    }

    /// The node's flight recorder (disabled unless attached).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Operational state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// The node's copy of the replicated instance registry.
    pub fn registry(&self) -> &ClusterRegistry {
        &self.registry
    }

    /// The node's instance manager.
    pub fn manager(&self) -> &InstanceManager {
        &self.mgr
    }

    /// Mutable instance-manager access (tests and workload drivers).
    pub fn manager_mut(&mut self) -> &mut InstanceManager {
        &mut self.mgr
    }

    /// A lock-sharded read handle onto the host framework's service
    /// registry. The handle is `Send + Sync` and stays live after this node
    /// is moved onto a worker thread, so concurrent `by_interface` lookups
    /// never serialize behind the node itself.
    pub fn registry_reader(&self) -> dosgi_osgi::RegistryReader {
        self.mgr.host().registry().reader()
    }

    /// The node's monitoring module.
    pub fn monitor(&self) -> &MonitoringModule {
        &self.monitor
    }

    /// The current membership view.
    pub fn view(&self) -> &dosgi_gcs::View {
        self.gcs.view()
    }

    /// Debug visibility into the GCS endpoint: pending (unsequenced)
    /// ordered messages.
    #[doc(hidden)]
    pub fn gcs_pending(&self) -> usize {
        self.gcs.pending_orders()
    }

    /// Drains accumulated node events.
    pub fn take_events(&mut self) -> Vec<NodeEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of accumulated (undrained) events. Long-running drivers use
    /// this to bound the buffer when nobody is collecting.
    pub fn events_len(&self) -> usize {
        self.events.len()
    }

    /// True if `name` is an SLA-throttled instance.
    pub fn is_throttled(&self, name: &str) -> bool {
        self.throttled.contains(name)
    }

    /// True if the instance is running locally.
    pub fn probe_local(&self, name: &str) -> bool {
        self.mgr
            .find_by_name(name)
            .and_then(|id| self.mgr.instance(id))
            .map(|i| i.is_running())
            .unwrap_or(false)
    }

    /// Calls a service of a locally running instance.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not running here;
    /// service errors otherwise.
    pub fn call_local(
        &mut self,
        name: &str,
        interface: &str,
        method: &str,
        arg: &Value,
    ) -> Result<Value, CoreError> {
        let iid = self
            .mgr
            .find_by_name(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        Ok(self.mgr.call_service(iid, interface, method, arg)?)
    }

    // ------------------------------------------------------------------
    // Cluster operations
    // ------------------------------------------------------------------

    /// Deploys a new instance locally and announces it cluster-wide.
    ///
    /// # Errors
    ///
    /// Instance-manager errors (duplicate name, unknown bundle, …).
    pub fn deploy(
        &mut self,
        descriptor: InstanceDescriptor,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) -> Result<(), CoreError> {
        let name = descriptor.name.clone();
        let value = descriptor.to_value();
        let iid = self.mgr.create_instance(descriptor)?;
        self.mgr.start_instance(iid)?;
        self.order(
            net,
            AppPayload::Deployed {
                name: name.clone(),
                descriptor: value,
                home: self.id,
            },
        );
        self.events.push(NodeEvent::Deployed { at: now, name });
        Ok(())
    }

    /// Requests migration of a locally-placed instance to `to`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not here,
    /// [`CoreError::BadMigration`] for a self-destination.
    pub fn migrate_away(
        &mut self,
        name: &str,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
    ) -> Result<(), CoreError> {
        self.migrate_away_traced(name, to, net, TraceRef::NONE)
    }

    /// Like [`migrate_away`](Self::migrate_away) but attaching the minted
    /// `migrate/<name>` span under `parent` (a drain root, say) instead of
    /// starting a fresh trace. The span closes as soon as the `Migrate` is
    /// handed to the total order — the release and adoption phases attach
    /// to it causally via the propagated context.
    fn migrate_away_traced(
        &mut self,
        name: &str,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
        parent: TraceRef,
    ) -> Result<(), CoreError> {
        if to == self.id {
            return Err(CoreError::BadMigration("destination is the source".into()));
        }
        if self.mgr.find_by_name(name).is_none() {
            return Err(CoreError::NotPlaced(name.to_owned()));
        }
        let now_us = net.now().as_micros();
        let span = if parent.is_some() {
            self.recorder
                .child_of(parent, &format!("migrate/{name}"), now_us)
        } else {
            self.recorder.root(&format!("migrate/{name}"), now_us)
        };
        let ctx = self.recorder.context(span);
        self.order_traced(
            net,
            AppPayload::Migrate {
                name: name.to_owned(),
                from: self.id,
                to,
            },
            ctx,
        );
        self.recorder.end(span, now_us);
        Ok(())
    }

    /// Permanently removes a locally-placed instance: stops it, wipes its
    /// SAN state and announces the removal cluster-wide.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not running here.
    pub fn undeploy(&mut self, name: &str, net: &mut impl Fabric<Wire>) -> Result<(), CoreError> {
        let iid = self
            .mgr
            .find_by_name(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        let _ = self.mgr.stop_instance(iid);
        self.mgr.destroy_instance(iid, true)?;
        self.monitor.forget(name);
        self.throttled.remove(name);
        if let Some(a) = &mut self.autonomic {
            a.forget(name);
        }
        self.order(
            net,
            AppPayload::Undeployed {
                name: name.to_owned(),
            },
        );
        Ok(())
    }

    /// Begins a graceful shutdown: announce draining, migrate every local
    /// instance away; once empty the node leaves the group and stops
    /// (§3.2's "normal expected shutdown" path).
    pub fn begin_shutdown(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if self.state != NodeState::Running {
            return;
        }
        self.state = NodeState::Draining;
        self.events.push(NodeEvent::Draining { at: now });
        let root = self.recorder.root("shutdown", now.as_micros());
        self.lifecycle_trace = root;
        let ctx = self.recorder.context(root);
        self.order_traced(net, AppPayload::Draining { node: self.id }, ctx);
        self.migrate_all_local(net, root);
    }

    fn migrate_all_local(&mut self, net: &mut impl Fabric<Wire>, parent: TraceRef) {
        let locals: Vec<String> = self
            .mgr
            .instances()
            .map(|i| i.descriptor.name.clone())
            .collect();
        let candidates = self.placement_candidates();
        for name in locals {
            if let Some(dest) =
                self.config
                    .placement
                    .choose(&name, &candidates, &self.registry, &BTreeMap::new())
            {
                self.telemetry.incr("core.placement.decisions");
                let _ = self.migrate_away_traced(&name, dest, net, parent);
            }
        }
    }

    fn placement_candidates(&self) -> Vec<NodeId> {
        self.gcs
            .view()
            .members
            .iter()
            .filter(|m| **m != self.id && !self.draining_peers.contains(m))
            .copied()
            .collect()
    }

    // ------------------------------------------------------------------
    // The tick: the node's event loop
    // ------------------------------------------------------------------

    /// Processes incoming messages, runs the failure detector, samples
    /// usage and evaluates policies. The cluster driver calls this at every
    /// simulation step.
    pub fn tick(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if matches!(self.state, NodeState::Hibernated | NodeState::Stopped) {
            return;
        }
        // Inbound messages → protocol engine.
        for env in net.drain(self.id) {
            let mut t = FabricTransport::new(net, self.id);
            self.gcs.handle(&mut t, env.from, env.payload, now);
        }
        {
            let mut t = FabricTransport::new(net, self.id);
            self.gcs.tick(&mut t, now);
        }
        // Protocol events → migration/failover logic.
        for event in self.gcs.take_events() {
            self.on_gcs_event(event, net, now);
        }
        if !self.hello_sent {
            self.hello_sent = true;
            // The digest lets the answering peer ship a per-record delta
            // instead of the full registry. A freshly restarted node has an
            // empty registry, so its digest is empty and the delta
            // degenerates to a full snapshot — same convergence, fewer
            // bytes whenever the sender already holds current records.
            let digest = self.registry.digest();
            self.order(
                net,
                AppPayload::Hello {
                    node: self.id,
                    digest,
                },
            );
        }
        self.process_pending_adoptions(net, now);
        self.process_pending_upgrades(now);
        self.flush_deferred_persistence();
        self.sample(now);
        self.run_autonomic(net, now);
        self.sweep_stranded(net, now);
        self.check_drained(net, now);
    }

    /// The earliest instant at which [`tick`](Self::tick) has work to do
    /// if no message arrives first; a result at or before `now` means it
    /// has work now. Between two ticks only a message or a call into the
    /// node (deploy, migrate, call, …) can bring it forward, so a driver
    /// may skip ticks with an empty mailbox until this deadline without
    /// changing anything the node does. [`SimTime::MAX`] for a node that
    /// no longer ticks (hibernated or stopped).
    ///
    /// It is `now` while the first hello, deferred persistence (with the
    /// SAN answering) or a completed drain is outstanding, and otherwise
    /// the earliest of the group endpoint's timers (heartbeat, suspicion,
    /// proposal and order resends), pending adoptions and upgrades
    /// (including retry backoff), and the sample, policy and
    /// stranded-sweep periods.
    pub fn next_deadline(&self, now: SimTime) -> SimTime {
        if matches!(self.state, NodeState::Hibernated | NodeState::Stopped) {
            return SimTime::MAX;
        }
        if !self.hello_sent
            || (self.mgr.persist_dirty() && self.store.is_available())
            || self.drain_complete()
        {
            return now;
        }
        let running = self.state == NodeState::Running;
        let sample = self
            .last_sample
            .map_or(SimTime::ZERO, |at| at + self.config.sample_interval);
        let policy = self
            .autonomic
            .as_ref()
            .filter(|_| running)
            .map(AutonomicModule::due_at);
        let sweep = running.then(|| {
            self.last_sweep
                .map_or(SimTime::ZERO, |at| at + STRANDED_SWEEP_PERIOD)
        });
        self.pending_adoptions
            .iter()
            .map(|p| p.ready_at)
            .chain(self.pending_upgrades.iter().map(|p| p.ready_at))
            .chain([Some(sample), policy, sweep].into_iter().flatten())
            .fold(self.gcs.next_deadline(now), SimTime::min)
    }

    /// Write-behind convergence: lifecycle transitions never roll back on a
    /// transient SAN failure — the framework marks its snapshot/data areas
    /// dirty instead. Each tick retries the flush (cheap no-op when nothing
    /// is dirty), gated on the SAN answering at all so a brown-out is not
    /// hammered every 5 ms.
    fn flush_deferred_persistence(&mut self) {
        if self.store.is_available() {
            self.mgr.flush_persist_all();
        }
    }

    /// Level-triggered failover: periodically claim any instance whose
    /// placement points at a node outside the current view. The
    /// edge-triggered path (view changes) catches ordinary crashes; this
    /// sweep catches the races it cannot — e.g. a `Migrate` sequenced
    /// *after* the destination's death was already processed, which leaves
    /// a record homed on a dead node with no further view change to react
    /// to. Claims stay race-free: they carry the observed dead home and
    /// the first one in the total order wins everywhere.
    fn sweep_stranded(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if self.state != NodeState::Running {
            return;
        }
        let due = self
            .last_sweep
            .map(|at| now.since(at) >= STRANDED_SWEEP_PERIOD)
            .unwrap_or(true);
        if !due {
            return;
        }
        self.last_sweep = Some(now);
        let view = self.gcs.view();
        if !view.has_majority(self.gcs.universe() - self.departed_peers.len()) {
            return;
        }
        let stranded: Vec<NodeId> = {
            let mut v: Vec<NodeId> = self
                .registry
                .records()
                .flat_map(|r| {
                    let to = match r.status {
                        InstanceStatus::Migrating { to } => Some(to),
                        _ => None,
                    };
                    std::iter::once(r.home).chain(to)
                })
                .filter(|n| !view.contains(*n))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        // Also retry plain `Orphaned` records whose home is back *inside*
        // the view: a spurious suspicion (message loss) can orphan a record
        // and lose the claim in the view churn, after which the home's
        // rejoin means no further view change will ever re-trigger
        // failover. The claim rules keep this race-free — a claim against
        // an `Orphaned` record wins exactly once in the total order.
        if !stranded.is_empty() || !self.registry.orphans().is_empty() {
            self.handle_failover(&stranded, net);
        }
        self.heal_quarantined(net);
    }

    /// The healing half of quarantine: once the SAN answers again, re-claim
    /// every quarantined instance homed here via the total order
    /// (`prior_home: self` makes the claim valid on every replica) — the
    /// winning claim flips the record back to `Placed` and the normal
    /// adoption path re-materializes the instance from the SAN.
    fn heal_quarantined(&mut self, net: &mut impl Fabric<Wire>) {
        if !self.store.is_available() {
            return;
        }
        let healable: Vec<String> = self
            .registry
            .records()
            .filter(|r| r.status == InstanceStatus::Quarantined && r.home == self.id)
            .filter(|r| !self.pending_adoptions.iter().any(|p| p.name == r.name))
            .map(|r| r.name.clone())
            .collect();
        for name in healable {
            let ctx = self.claim_context(&name, "heal", net.now().as_micros());
            self.order_traced(
                net,
                AppPayload::Adopted {
                    name,
                    node: self.id,
                    prior_home: self.id,
                },
                ctx,
            );
        }
    }

    /// The trace context for a failover/heal claim on `name`: reuses the
    /// open claim root if an earlier claim is still unresolved (the sweep
    /// retries lost claims), otherwise mints a fresh `<kind>/<name>` root.
    fn claim_context(&mut self, name: &str, kind: &str, now_us: u64) -> Option<TraceContext> {
        let span = match self.claim_traces.get(name) {
            Some(&s) => s,
            None => {
                let s = self.recorder.root(&format!("{kind}/{name}"), now_us);
                self.claim_traces.insert(name.to_owned(), s);
                s
            }
        };
        self.recorder.context(span)
    }

    fn order(&mut self, net: &mut impl Fabric<Wire>, payload: AppPayload) {
        let mut t = FabricTransport::new(net, self.id);
        self.gcs.order(&mut t, payload);
    }

    fn order_traced(
        &mut self,
        net: &mut impl Fabric<Wire>,
        payload: AppPayload,
        ctx: Option<TraceContext>,
    ) {
        let mut t = FabricTransport::new(net, self.id);
        self.gcs.order_traced(&mut t, payload, ctx);
    }

    fn on_gcs_event(
        &mut self,
        event: GcsEvent<AppPayload>,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        match event {
            GcsEvent::ViewChange { view, joined, left } => {
                self.events.push(NodeEvent::ViewChanged {
                    at: now,
                    members: view.members.clone(),
                    left: left.clone(),
                });
                // Classify departures: a node that announced Draining left
                // voluntarily and stops counting toward the quorum
                // universe; anything else is a crash.
                for l in &left {
                    if self.draining_peers.remove(l) {
                        self.departed_peers.insert(*l);
                    }
                }
                for j in &joined {
                    self.draining_peers.remove(j);
                    self.departed_peers.remove(j);
                }
                // State transfer for joiners: the lowest-id member that
                // was *already* in the group sends its registry (the new
                // coordinator may well be the freshly-restarted joiner,
                // whose registry is empty).
                let sync_sender = view
                    .members
                    .iter()
                    .filter(|m| !joined.contains(m))
                    .min()
                    .copied();
                if !joined.is_empty() && sync_sender == Some(self.id) {
                    let snapshot = self.registry.export();
                    self.telemetry
                        .add("registry.sync_bytes", snapshot.encoded_len() as u64);
                    self.order(net, AppPayload::RegistrySync { registry: snapshot });
                }
                let effective_universe = self.gcs.universe() - self.departed_peers.len();
                if !left.is_empty() && view.has_majority(effective_universe) {
                    self.handle_failover(&left, net);
                }
            }
            GcsEvent::OrderedDeliver { payload, trace, .. } => {
                // Fold the carried Lamport stamp into the local logical
                // clock even when this node opens no span of its own: a
                // later local root must still order after everything the
                // delivery happened-after.
                if let Some(ctx) = trace {
                    self.recorder.observe(ctx);
                }
                self.apply_control(payload, trace, net, now);
            }
            GcsEvent::Deliver { .. } => {
                // All control traffic is ordered; FIFO deliveries are
                // reserved for future bulk data.
            }
        }
    }

    /// §3.2's decentralized redeployment: every survivor computes the same
    /// assignment from the same replicated registry and agreed view, then
    /// *claims* (via the total order) only the instances assigned to
    /// itself. The first claim per orphan wins on every node alike.
    fn handle_failover(&mut self, left: &[NodeId], net: &mut impl Fabric<Wire>) {
        // Claim both newly-orphaned records AND records still sitting in
        // Orphaned (an earlier claim may have been lost or overwritten):
        // the sweep retries until the registry converges.
        let mut orphans = self.registry.orphan_homes(left);
        orphans.extend(self.registry.orphans());
        orphans.sort();
        orphans.dedup();
        if orphans.is_empty() || self.state != NodeState::Running {
            return;
        }
        let candidates = {
            let mut c = self.placement_candidates();
            c.push(self.id);
            c.sort();
            c
        };
        let assignment = self
            .config
            .placement
            .assign_all(&orphans, &candidates, &self.registry);
        self.telemetry
            .add("core.placement.decisions", assignment.len() as u64);
        for (name, dest) in assignment {
            if dest == self.id {
                let prior_home = self
                    .registry
                    .record(&name)
                    .map(|r| r.home)
                    .unwrap_or(self.id);
                let ctx = self.claim_context(&name, "failover", net.now().as_micros());
                self.order_traced(
                    net,
                    AppPayload::Adopted {
                        name,
                        node: self.id,
                        prior_home,
                    },
                    ctx,
                );
            }
        }
    }

    fn apply_control(
        &mut self,
        payload: AppPayload,
        trace: Option<TraceContext>,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        self.telemetry.incr("core.registry.ops");
        // Snapshot pre-application status for claim/adoption decisions.
        let prior_status = payload
            .instance()
            .and_then(|n| self.registry.record(n))
            .map(|r| r.status);
        self.registry.apply(&payload);
        match payload {
            AppPayload::Migrate { name, from, to } => {
                if from == self.id && prior_status != Some(InstanceStatus::Orphaned) {
                    self.release_instance(&name, to, net, now, trace);
                }
            }
            AppPayload::Released { name, to } => {
                if to == self.id && prior_status != Some(InstanceStatus::Orphaned) {
                    self.adopt(&name, AdoptReason::Migration, now, trace);
                }
            }
            AppPayload::Adopted { name, node, .. } => {
                // Any delivered claim for `name` resolves the race this
                // node's own claim (if any) was part of: close its root.
                if let Some(span) = self.claim_traces.remove(&name) {
                    self.recorder.end(span, now.as_micros());
                }
                // Decide by post-application state: did this claim win?
                let won = self
                    .registry
                    .record(&name)
                    .map(|r| r.home == node && r.status == InstanceStatus::Placed)
                    .unwrap_or(false);
                if won {
                    if node == self.id {
                        let already_running = self
                            .mgr
                            .find_by_name(&name)
                            .and_then(|i| self.mgr.instance(i))
                            .map(|i| i.is_running())
                            .unwrap_or(false);
                        if !already_running
                            && !self.pending_adoptions.iter().any(|p| p.name == name)
                        {
                            self.adopt(&name, AdoptReason::Failover, now, trace);
                        }
                    } else if self.mgr.find_by_name(&name).is_some() {
                        // A stale local copy (healed partition / lost
                        // race): the total order says it lives elsewhere.
                        self.drop_local(&name);
                    }
                }
            }
            AppPayload::Draining { node } => {
                if node != self.id {
                    self.draining_peers.insert(node);
                }
            }
            AppPayload::Hello { node, digest } => {
                // Answer a (re)started peer with a per-record delta against
                // its digest, so a silent restart (crash + rejoin under the
                // suspicion timeout) still converges without re-shipping
                // records the peer already holds at the current revision.
                // The lowest-id *other* view member answers; rev-gated
                // merge-import makes duplicates harmless.
                let responder = self
                    .gcs
                    .view()
                    .members
                    .iter()
                    .find(|m| **m != node)
                    .copied();
                if node != self.id && responder == Some(self.id) && !self.registry.is_empty() {
                    let (upserts, removes) = self.registry.export_delta(&digest);
                    let payload_rows = upserts.as_list().map(<[Value]>::len).unwrap_or(0)
                        + removes.as_list().map(<[Value]>::len).unwrap_or(0);
                    if payload_rows > 0 {
                        self.telemetry.add(
                            "registry.delta_bytes",
                            (upserts.encoded_len() + removes.encoded_len()) as u64,
                        );
                        self.order(net, AppPayload::RegistryDelta { upserts, removes });
                    }
                }
            }
            AppPayload::RegistrySync { registry } => {
                // Authoritative snapshot in the total order — the
                // anti-entropy fallback (joiners, healed minorities):
                // everyone merges the same snapshot at the same logical
                // instant, then reconciles local instances against it
                // (partition heal).
                self.registry.import(&registry);
                self.reconcile_with_registry(now);
            }
            AppPayload::RegistryDelta { upserts, removes } => {
                // Ordered per-record delta: same merge semantics as a full
                // sync (rev-gated upserts, rev-equality-guarded removals),
                // applied by every member at the same logical instant.
                self.registry.import_delta(&upserts, &removes);
                self.reconcile_with_registry(now);
            }
            AppPayload::Quarantined { .. } => {
                // Registry bookkeeping only (done in `apply` above): the
                // quarantining node keeps its partially-restored copy
                // installed-but-stopped so the heal re-claim can restart it
                // in place.
            }
            AppPayload::Deployed { .. } | AppPayload::Undeployed { .. } => {}
        }
    }

    /// Destroys a stale local copy (keeping the SAN state — the instance
    /// lives on elsewhere).
    fn drop_local(&mut self, name: &str) {
        if let Some(iid) = self.mgr.find_by_name(name) {
            let _ = self.mgr.stop_instance(iid);
            let _ = self.mgr.destroy_instance(iid, false);
        }
        self.monitor.forget(name);
        self.throttled.remove(name);
        if let Some(a) = &mut self.autonomic {
            a.forget(name);
        }
    }

    /// After importing an authoritative registry snapshot, converge the
    /// local state to it in both directions: local copies the registry
    /// homes elsewhere are stale and dropped; instances the registry homes
    /// *here* but that are not running locally are (re-)adopted from the
    /// SAN. The second direction is what makes merge-time sync storms
    /// self-healing: whatever snapshot ends up last in the total order,
    /// its designated home re-materializes the instance.
    fn reconcile_with_registry(&mut self, now: SimTime) {
        let stale: Vec<String> = self
            .mgr
            .instances()
            .map(|i| i.descriptor.name.clone())
            .filter(|name| {
                // An instance with no record at all is kept: it may be a
                // local deploy whose `Deployed` is still in flight.
                self.registry
                    .record(name)
                    .map(|r| r.home != self.id)
                    .unwrap_or(false)
            })
            .collect();
        for name in stale {
            self.drop_local(&name);
        }
        let missing: Vec<String> = self
            .registry
            .records()
            .filter(|r| {
                r.home == self.id
                    && r.status == InstanceStatus::Placed
                    && !self.probe_local(&r.name)
                    && !self.pending_adoptions.iter().any(|p| p.name == r.name)
            })
            .map(|r| r.name.clone())
            .collect();
        for name in missing {
            self.adopt(&name, AdoptReason::Failover, now, None);
        }
    }

    fn release_instance(
        &mut self,
        name: &str,
        to: NodeId,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
        ctx: Option<TraceContext>,
    ) {
        let Some(iid) = self.mgr.find_by_name(name) else {
            return;
        };
        let now_us = now.as_micros();
        let rel = match ctx {
            Some(c) => self.recorder.child(c, &format!("release/{name}"), now_us),
            None => TraceRef::NONE,
        };
        // Quiesce: stop the instance (in-flight work completes — the sim's
        // stop is synchronous, so this phase costs no simulated time).
        let quiesce = self
            .recorder
            .child_of(rel, &format!("quiesce/{name}"), now_us);
        let _ = self.mgr.stop_instance(iid);
        self.recorder.end(quiesce, now_us);
        // Persist: tear down the local copy, flushing its state to the SAN
        // (kept — the instance lives on at the destination).
        let persist = self
            .recorder
            .child_of(rel, &format!("persist/{name}"), now_us);
        let _ = self.mgr.destroy_instance(iid, false);
        self.recorder.end(persist, now_us);
        self.monitor.forget(name);
        self.throttled.remove(name);
        if let Some(a) = &mut self.autonomic {
            a.forget(name);
        }
        self.events.push(NodeEvent::Released {
            at: now,
            name: name.to_owned(),
            to,
        });
        // Close the release span *before* exporting the context the
        // `Released` order carries: the destination's adopt span then
        // starts strictly Lamport-after the release ended — the invariant
        // trace_check's adopt-before-release detector leans on.
        self.recorder.end(rel, now_us);
        let released_ctx = self.recorder.context(rel);
        self.order_traced(
            net,
            AppPayload::Released {
                name: name.to_owned(),
                to,
            },
            released_ctx,
        );
    }

    /// Queues an adoption: re-materializing an instance costs simulated
    /// time — a SAN read of its persisted state plus a start cost per
    /// bundle. §3.2: *"The cost of this operation is therefore comparable
    /// to a normal startup of the platform, probably less, as we already
    /// have the basic services deployed on the underlying framework."*
    /// A pre-created hot standby (see [`crate::replication`]) skips the
    /// install half and pays only the start cost.
    fn adopt(&mut self, name: &str, reason: AdoptReason, now: SimTime, ctx: Option<TraceContext>) {
        let Some(rec) = self.registry.record(name) else {
            return;
        };
        let descriptor = match InstanceDescriptor::from_value(&rec.descriptor) {
            Ok(d) => d,
            Err(e) => {
                self.events.push(NodeEvent::AdoptFailed {
                    at: now,
                    name: name.to_owned(),
                    error: e,
                });
                return;
            }
        };
        let state_bytes = self
            .store
            .namespace_bytes_prefixed(&descriptor.state_namespace());
        let bundles = descriptor.bundles.len() as u64;
        let standby = self.mgr.find_by_name(name).is_some();
        let cost = if standby {
            // Bundles already installed: pay only the start sweep.
            (self.config.start_cost_per_bundle / 2) * bundles
        } else {
            self.config.san.read_cost(state_bytes) + self.config.start_cost_per_bundle * bundles
        };
        let trace = match ctx {
            Some(c) => self
                .recorder
                .child(c, &format!("adopt/{name}"), now.as_micros()),
            None => TraceRef::NONE,
        };
        self.pending_adoptions.push(PendingAdoption {
            ready_at: now + cost,
            name: name.to_owned(),
            reason,
            attempt: 0,
            trace,
        });
    }

    fn process_pending_adoptions(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        let due: Vec<PendingAdoption> = {
            let (ready, rest): (Vec<_>, Vec<_>) = self
                .pending_adoptions
                .drain(..)
                .partition(|p| p.ready_at <= now);
            self.pending_adoptions = rest;
            ready
        };
        for p in due {
            // A queued adoption can be invalidated by messages ordered
            // *after* it was queued: a replayed snapshot may have enqueued
            // it, then a later claim re-homed the instance elsewhere (or an
            // undeploy removed it). Materializing a stale ticket would
            // create a second live copy, so re-check the replicated
            // registry at materialization time and drop tickets the total
            // order has since overruled.
            let still_ours = self
                .registry
                .record(&p.name)
                .map(|r| r.home == self.id && r.status == InstanceStatus::Placed)
                .unwrap_or(false);
            if !still_ours {
                self.recorder.end(p.trace, now.as_micros());
                self.telemetry.incr("core.adopt.overruled");
                continue;
            }
            let outcome = match self.mgr.find_by_name(&p.name) {
                // Hot standby or a previous partially-restored attempt:
                // already installed, just (re)start it.
                Some(iid) => self.mgr.start_instance(iid).map(|_| iid),
                None => {
                    let Some(rec) = self.registry.record(&p.name) else {
                        self.recorder.end(p.trace, now.as_micros());
                        continue;
                    };
                    match InstanceDescriptor::from_value(&rec.descriptor) {
                        Ok(d) => self.mgr.adopt_instance(d),
                        Err(e) => {
                            self.recorder.end(p.trace, now.as_micros());
                            self.events.push(NodeEvent::AdoptFailed {
                                at: now,
                                name: p.name,
                                error: e,
                            });
                            continue;
                        }
                    }
                }
            };
            match outcome {
                Ok(iid) => {
                    // Verify the adoption: activator failures during restore
                    // are swallowed into framework events (one bad bundle
                    // must not block the rest), so a transient SAN read
                    // during state recovery leaves autostart bundles dead
                    // while the instance *looks* adopted. Such a partial
                    // re-materialization is a failed adoption: stop it
                    // (keeping it installed — the retry restarts in place,
                    // re-running the activators against the SAN) and go
                    // through the same retry/quarantine discipline.
                    let degraded = self
                        .mgr
                        .instance(iid)
                        .map(|i| !i.framework().degraded_bundles().is_empty())
                        .unwrap_or(false);
                    if degraded {
                        let _ = self.mgr.stop_instance(iid);
                        self.retry_or_quarantine(
                            p,
                            "partial restore: autostart bundles failed to start".to_owned(),
                            true,
                            net,
                            now,
                        );
                    } else {
                        self.recorder.end(p.trace, now.as_micros());
                        self.events.push(NodeEvent::Adopted {
                            at: now,
                            name: p.name,
                            reason: p.reason,
                        });
                    }
                }
                Err(e) => {
                    let transient = e.is_transient_store();
                    self.retry_or_quarantine(p, e.to_string(), transient, net, now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // In-place bundle upgrades (hot swap)
    // ------------------------------------------------------------------

    /// Requests an in-place upgrade of the bundle named by
    /// `manifest.symbolic_name` inside local instance `name`. The swap is
    /// queued for the modeled blackout window — a SAN write of the bundle's
    /// persisted state plus [`NodeConfig::upgrade_swap_cost`] — and lands on
    /// a subsequent tick; the instance keeps serving its *other* bundles
    /// throughout, and the old revision keeps serving until the swap
    /// instant. Completion is observable as [`NodeEvent::BundleUpgraded`].
    ///
    /// Re-requesting while an earlier attempt is still retrying reuses the
    /// open `upgrade/<name>` trace root (the `claim_traces` discipline), so
    /// SAN-faulted upgrades never leak spans.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance is not running here.
    pub fn request_upgrade(
        &mut self,
        name: &str,
        manifest: BundleManifest,
        now: SimTime,
    ) -> Result<(), CoreError> {
        let Some(iid) = self.mgr.find_by_name(name) else {
            return Err(CoreError::NotPlaced(name.to_owned()));
        };
        let sn = manifest.symbolic_name.to_string();
        let now_us = now.as_micros();
        let key = format!("{name}/{sn}");
        if !self.upgrade_traces.contains_key(&key) {
            let root = self.recorder.root(&format!("upgrade/{name}"), now_us);
            self.upgrade_traces.insert(key, root);
        }
        let state_bytes = self
            .mgr
            .instance(iid)
            .map(|i| {
                let ns = i.descriptor.state_namespace();
                self.store
                    .namespace_bytes_prefixed(&format!("{ns}/data/{sn}"))
            })
            .unwrap_or(0);
        let blackout = self.config.san.write_cost(state_bytes) + self.config.upgrade_swap_cost;
        self.pending_upgrades.push(PendingUpgrade {
            ready_at: now + blackout,
            name: name.to_owned(),
            manifest,
            attempt: 0,
        });
        Ok(())
    }

    /// Number of upgrades still queued (pending or in backoff).
    pub fn pending_upgrades(&self) -> usize {
        self.pending_upgrades.len()
    }

    /// The trace context of the most recent *completed* upgrade of an
    /// instance hosted here — the hook the rolling-upgrade wave uses to
    /// attach its `undrain/` span causally after the new revision's
    /// adoption.
    pub fn upgrade_trace_context(&self, name: &str) -> Option<TraceContext> {
        self.finished_upgrade_traces
            .get(name)
            .and_then(|&root| self.recorder.context(root))
    }

    fn process_pending_upgrades(&mut self, now: SimTime) {
        if self.pending_upgrades.is_empty() {
            return;
        }
        let due: Vec<PendingUpgrade> = {
            let (ready, rest): (Vec<_>, Vec<_>) = self
                .pending_upgrades
                .drain(..)
                .partition(|p| p.ready_at <= now);
            self.pending_upgrades = rest;
            ready
        };
        for p in due {
            let sn = p.manifest.symbolic_name.to_string();
            let key = format!("{}/{}", p.name, sn);
            let now_us = now.as_micros();
            // The instance may have migrated away or crashed between the
            // request and the swap instant: abandon the ticket cleanly.
            let Some(iid) = self.mgr.find_by_name(&p.name) else {
                if let Some(root) = self.upgrade_traces.remove(&key) {
                    self.recorder.end(root, now_us);
                }
                self.events.push(NodeEvent::UpgradeFailed {
                    at: now,
                    name: p.name,
                    bundle: sn,
                    error: "instance no longer placed here".to_owned(),
                });
                continue;
            };
            let state_bytes = self
                .mgr
                .instance(iid)
                .map(|i| {
                    let ns = i.descriptor.state_namespace();
                    self.store
                        .namespace_bytes_prefixed(&format!("{ns}/data/{sn}"))
                })
                .unwrap_or(0);
            let persist_cost = self.config.san.write_cost(state_bytes);
            let blackout = persist_cost + self.config.upgrade_swap_cost;
            match self.mgr.upgrade_bundle(iid, &sn, p.manifest.clone()) {
                Ok(report) => {
                    // Stamp the handoff phases under the upgrade root with
                    // their modeled µs offsets: quiesce is synchronous,
                    // persist pays the SAN write, the new revision's adopt
                    // starts strictly after persist ends (the ordering
                    // trace_check's upgrade rules pin).
                    let root = self.upgrade_traces.remove(&key).unwrap_or(TraceRef::NONE);
                    let q = self
                        .recorder
                        .child_of(root, &format!("u_quiesce/{sn}"), now_us);
                    self.recorder.end(q, now_us);
                    let persist_end = now_us + persist_cost.as_micros();
                    let pr = self
                        .recorder
                        .child_of(root, &format!("u_persist/{sn}"), now_us);
                    self.recorder.end(pr, persist_end);
                    let adopt_end = now_us + blackout.as_micros();
                    let a = self
                        .recorder
                        .child_of(root, &format!("u_adopt/{sn}"), persist_end);
                    self.recorder.end(a, adopt_end);
                    self.recorder.end(root, adopt_end);
                    self.finished_upgrade_traces.insert(p.name.clone(), root);
                    self.telemetry.incr("core.upgrade.completed");
                    self.telemetry
                        .record("core.upgrade.blackout_us", blackout.as_micros());
                    self.events.push(NodeEvent::BundleUpgraded {
                        at: now,
                        name: p.name,
                        bundle: sn,
                        from: report.from,
                        to: report.to,
                        blackout,
                    });
                }
                Err(e) => {
                    let failures = p.attempt + 1;
                    if e.is_transient_store() && !self.config.retry.exhausted(failures) {
                        // The framework rolled the old revision back; it
                        // keeps serving during the backoff. The upgrade
                        // root stays OPEN in `upgrade_traces` — the retry
                        // continues the same trace instead of minting (and
                        // leaking) a new root per attempt.
                        let backoff = self.config.retry.backoff(p.attempt);
                        self.telemetry.incr("core.upgrade.retries");
                        self.events.push(NodeEvent::UpgradeRetried {
                            at: now,
                            name: p.name.clone(),
                            bundle: sn,
                            attempt: p.attempt,
                            error: e.to_string(),
                        });
                        self.pending_upgrades.push(PendingUpgrade {
                            ready_at: now + backoff,
                            attempt: failures,
                            ..p
                        });
                    } else {
                        if let Some(root) = self.upgrade_traces.remove(&key) {
                            self.recorder.end(root, now_us);
                        }
                        self.telemetry.incr("core.upgrade.failed");
                        self.events.push(NodeEvent::UpgradeFailed {
                            at: now,
                            name: p.name,
                            bundle: sn,
                            error: e.to_string(),
                        });
                    }
                }
            }
        }
    }

    /// A materialization attempt failed. Transient failures are retried
    /// with exponential backoff + jitter on the simulated clock until the
    /// [`RetryPolicy`](dosgi_san::RetryPolicy) is exhausted, at which point
    /// the instance is **quarantined** — announced cluster-wide so every
    /// registry marks it down-but-owned — rather than panicking the node or
    /// flapping forever. Non-transient failures (corrupt snapshot, unknown
    /// bundle) surface immediately as `AdoptFailed`.
    fn retry_or_quarantine(
        &mut self,
        p: PendingAdoption,
        error: String,
        transient: bool,
        net: &mut impl Fabric<Wire>,
        now: SimTime,
    ) {
        if !transient {
            self.recorder.end(p.trace, now.as_micros());
            self.events.push(NodeEvent::AdoptFailed {
                at: now,
                name: p.name,
                error,
            });
            return;
        }
        let failures = p.attempt + 1;
        if self.config.retry.exhausted(failures) {
            self.telemetry.incr("san.quarantines");
            self.events.push(NodeEvent::Quarantined {
                at: now,
                name: p.name.clone(),
            });
            // The quarantine announcement continues the adoption's trace:
            // the eventual heal re-claim starts a new root, but this stamps
            // where the causal chain ended.
            let ctx = self.recorder.context(p.trace);
            self.recorder.end(p.trace, now.as_micros());
            self.order_traced(
                net,
                AppPayload::Quarantined {
                    name: p.name,
                    node: self.id,
                },
                ctx,
            );
            return;
        }
        let backoff = self.config.retry.backoff(p.attempt);
        self.telemetry.incr("san.retries");
        self.telemetry
            .record("san.retry.backoff_us", backoff.as_micros());
        self.events.push(NodeEvent::AdoptRetried {
            at: now,
            name: p.name.clone(),
            attempt: p.attempt,
            error,
        });
        self.pending_adoptions.push(PendingAdoption {
            ready_at: now + backoff,
            name: p.name,
            reason: p.reason,
            attempt: failures,
            trace: p.trace,
        });
    }

    // ------------------------------------------------------------------
    // Monitoring + autonomic
    // ------------------------------------------------------------------

    fn sample(&mut self, now: SimTime) {
        let due = self
            .last_sample
            .map(|at| now.since(at) >= self.config.sample_interval)
            .unwrap_or(true);
        if !due {
            return;
        }
        self.last_sample = Some(now);
        for instance in self.mgr.instances() {
            let name = &instance.descriptor.name;
            // Bridge each closed window into the telemetry registry as
            // per-instance gauges, which `telemetry::series` turns into
            // history. Integer-scaled from the raw window counters (never
            // through the f64 rates) so snapshot bytes stay deterministic:
            // CPU share in per-mille of one core, call rate in milli-calls
            // per second. The names are only spelled for a live registry.
            let Some(w) = self.monitor.record(name, now, instance.usage()) else {
                continue;
            };
            if self.telemetry.is_enabled() {
                let window_us = w.window.as_micros().max(1);
                let cpu_pm = w.cpu.as_micros().saturating_mul(1000) / window_us;
                let call_mcps = w.calls.saturating_mul(1_000_000_000) / window_us;
                self.telemetry
                    .gauge_set(&format!("monitor.{name}.cpu_share_pm"), cpu_pm as i64);
                self.telemetry
                    .gauge_set(&format!("monitor.{name}.memory_bytes"), w.memory as i64);
                self.telemetry
                    .gauge_set(&format!("monitor.{name}.call_rate_mcps"), call_mcps as i64);
            }
        }
    }

    fn run_autonomic(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        let Some(autonomic) = &mut self.autonomic else {
            return;
        };
        if !autonomic.due(now) || self.state != NodeState::Running {
            return;
        }
        let quotas: BTreeMap<String, ResourceQuota> = self
            .mgr
            .instances()
            .map(|i| (i.descriptor.name.clone(), i.descriptor.quota))
            .collect();
        let view = self.gcs.view();
        let node_count = view.members.len();
        let node_rank = view.members.iter().position(|m| *m == self.id).unwrap_or(0);
        let decisions = autonomic.evaluate(
            now,
            &self.monitor,
            &quotas,
            &self.config.capacity,
            node_count,
            node_rank,
        );
        for decision in decisions {
            self.events.push(NodeEvent::PolicyFired {
                at: now,
                decision: decision.clone(),
            });
            self.execute(decision.action, net, now);
        }
    }

    fn execute(&mut self, action: PolicyAction, net: &mut impl Fabric<Wire>, now: SimTime) {
        match action {
            PolicyAction::Migrate { subject } => {
                let candidates = self.placement_candidates();
                if let Some(dest) = self.config.placement.choose(
                    &subject,
                    &candidates,
                    &self.registry,
                    &BTreeMap::new(),
                ) {
                    let _ = self.migrate_away(&subject, dest, net);
                }
            }
            PolicyAction::Stop { subject } => {
                if let Some(iid) = self.mgr.find_by_name(&subject) {
                    let _ = self.mgr.stop_instance(iid);
                }
            }
            PolicyAction::Restart { subject } => {
                if let Some(iid) = self.mgr.find_by_name(&subject) {
                    let _ = self.mgr.stop_instance(iid);
                    let _ = self.mgr.start_instance(iid);
                }
            }
            PolicyAction::Throttle { subject } => {
                self.throttled.insert(subject);
            }
            PolicyAction::HibernateNode => {
                // Announce the drain so peers stop placing instances here,
                // migrate everything away, then hibernate once empty AND
                // once every pending ordered message has been sequenced
                // (check_drained gates on both).
                self.hibernate_when_empty = true;
                let root = self.recorder.root("hibernate", now.as_micros());
                self.lifecycle_trace = root;
                let ctx = self.recorder.context(root);
                self.order_traced(net, AppPayload::Draining { node: self.id }, ctx);
                self.migrate_all_local(net, root);
            }
            PolicyAction::Custom { name, .. } if name == "migrate_all" => {
                self.migrate_all_local(net, TraceRef::NONE);
            }
            PolicyAction::WakeNode
            | PolicyAction::ScaleOut
            | PolicyAction::ShedClass { .. }
            | PolicyAction::UpgradeWave
            | PolicyAction::Alert { .. }
            | PolicyAction::Custom { .. } => {
                // Alerts are visible through the PolicyFired event; wake,
                // scale-out, class shedding and upgrade waves are
                // cluster-level operations (the driver reacts — e.g. E15
                // wakes a standby replica or flips the admission layer's
                // shed switch, E14 starts a rolling `UpgradeWave`).
            }
        }
    }

    fn hibernate(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        let mut t = FabricTransport::new(net, self.id);
        self.gcs.leave(&mut t);
        self.state = NodeState::Hibernated;
        self.recorder.end(self.lifecycle_trace, now.as_micros());
        self.lifecycle_trace = TraceRef::NONE;
        self.events.push(NodeEvent::Hibernated { at: now });
    }

    /// True when a shutdown or hibernation drain has finished: every
    /// instance is gone and every pending ordered message has been
    /// sequenced. Leaving before our last control messages (Released!)
    /// are sequenced would strand the instances we just handed off.
    fn drain_complete(&self) -> bool {
        let draining = self.state == NodeState::Draining
            || (self.hibernate_when_empty && self.state == NodeState::Running);
        draining && self.mgr.is_empty() && self.gcs.pending_orders() == 0
    }

    fn check_drained(&mut self, net: &mut impl Fabric<Wire>, now: SimTime) {
        if !self.drain_complete() {
            return;
        }
        if self.state == NodeState::Draining {
            let mut t = FabricTransport::new(net, self.id);
            self.gcs.leave(&mut t);
            self.state = NodeState::Stopped;
            self.recorder.end(self.lifecycle_trace, now.as_micros());
            self.lifecycle_trace = TraceRef::NONE;
            self.events.push(NodeEvent::Drained { at: now });
        } else {
            self.hibernate_when_empty = false;
            self.hibernate(net, now);
        }
    }
}
