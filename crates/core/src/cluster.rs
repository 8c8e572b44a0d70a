//! The cluster: the deterministic simulation driver every experiment runs
//! on.

use crate::node::{DosgiNode, NodeConfig, NodeState, Wire};
use crate::registry::InstanceStatus;
use crate::{AdoptReason, CoreError, NodeEvent, SlaTracker};
use dosgi_net::{LinkConfig, NodeId, Partition, SimDuration, SimNet, SimTime};
use dosgi_san::{BackendKind, SharedStore, Value};
use dosgi_telemetry::{
    FlightRecorder, HealthState, ScrapeConfig, SeriesScraper, SloEngine, SloSpec, Snapshot,
    Telemetry, TraceLog,
};
use dosgi_vosgi::InstanceDescriptor;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-node configuration.
    pub node: NodeConfig,
    /// Default link quality.
    pub link: LinkConfig,
    /// Driver step size (how often nodes tick).
    pub tick: SimDuration,
    /// Which SAN storage backend the shared store runs on. Backends are
    /// held to byte-identical observable behaviour by the conformance
    /// suite in `dosgi-san`, so this knob must never change experiment
    /// outcomes — only storage-internal mechanics.
    pub backend: BackendKind,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            node: NodeConfig::default(),
            link: LinkConfig::lan(),
            tick: SimDuration::from_millis(5),
            backend: BackendKind::Map,
        }
    }
}

/// The optional continuous-observability pipeline: a [`SeriesScraper`]
/// turning the registry into bounded time series plus an [`SloEngine`]
/// evaluating burn-rate alerts, both driven from [`DosgiCluster::step`]
/// on the scrape cadence. Strictly passive: pure registry reads on the
/// sim clock — it never touches the network, the SAN, or any RNG stream,
/// so enabling it cannot change a run's observable behaviour (the chaos
/// sweep proves fingerprint equality with it on and off).
struct Observability {
    scraper: SeriesScraper,
    slo: SloEngine,
}

struct Slot {
    node: DosgiNode,
    alive: bool,
    // The node's flight recorder. Owned by the slot, not the node, so the
    // causal record survives crashes and restarts: a restarted node keeps
    // appending to the same ring, and the cluster-wide merge sees the
    // node's whole history.
    recorder: FlightRecorder,
}

/// A simulated cluster of [`DosgiNode`]s sharing a SAN and a network.
///
/// The driver advances simulated time in fixed ticks; at each tick the
/// network delivers due messages, every live node runs its event loop, and
/// the availability of every registered instance is probed into the
/// [`SlaTracker`] — the downtime instrument behind experiments E5–E10.
pub struct DosgiCluster {
    net: SimNet<Wire>,
    store: SharedStore,
    slots: Vec<Slot>,
    config: ClusterConfig,
    sla: SlaTracker,
    events: Vec<(NodeId, NodeEvent)>,
    telemetry: Telemetry,
    observability: Option<Observability>,
    // Test-only: skip a node's tick while its mailbox is empty and its
    // `next_deadline` lies in the future — the real-clock worker's wake
    // rule, checked against the every-step sweep.
    #[cfg(test)]
    pub(crate) skip_idle_ticks: bool,
    #[cfg(test)]
    skipped_ticks: u64,
}

/// The registry clients consult: the first live, running node's replica.
fn reference_registry(slots: &[Slot]) -> Option<&crate::ClusterRegistry> {
    slots
        .iter()
        .find(|s| s.alive && s.node.state() == NodeState::Running)
        .map(|s| s.node.registry())
}

/// The node index `rec` is placed on, if it is placed and that node is
/// alive.
fn live_home(slots: &[Slot], rec: &crate::InstanceRecord) -> Option<usize> {
    let idx = rec.home.index();
    (rec.status == InstanceStatus::Placed && slots.get(idx).is_some_and(|s| s.alive)).then_some(idx)
}

/// True if `rec`'s instance is running on its live home — the
/// availability rule behind [`DosgiCluster::probe`] and the per-step SLA
/// probes.
fn serving(slots: &[Slot], rec: &crate::InstanceRecord) -> bool {
    live_home(slots, rec).is_some_and(|idx| slots[idx].node.probe_local(&rec.name))
}

impl std::fmt::Debug for DosgiCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DosgiCluster")
            .field("nodes", &self.slots.len())
            .field("now", &self.net.now())
            .finish_non_exhaustive()
    }
}

impl DosgiCluster {
    /// Builds a cluster of `n` nodes with the given config and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, config: ClusterConfig, seed: u64) -> Self {
        Self::new_with_telemetry(n, config, seed, Telemetry::new())
    }

    /// Like [`new`](Self::new) but with an explicit telemetry handle —
    /// pass [`Telemetry::disabled`] to turn instrumentation off, or share
    /// one enabled handle across several clusters to aggregate their
    /// metrics into a single registry.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new_with_telemetry(
        n: usize,
        config: ClusterConfig,
        seed: u64,
        telemetry: Telemetry,
    ) -> Self {
        assert!(n > 0, "a cluster needs at least one node");
        let mut net = SimNet::new(config.link, seed);
        let store = SharedStore::with_kind(config.backend);
        store.set_telemetry(telemetry.clone());
        let ids: Vec<NodeId> = (0..n).map(|_| net.register_node()).collect();
        let slots = ids
            .iter()
            .map(|&id| {
                let mut node = DosgiNode::new(
                    id,
                    ids.clone(),
                    config.node.clone(),
                    store.clone(),
                    net.now(),
                );
                node.set_telemetry(telemetry.clone());
                // Tracing rides the same switch as the rest of telemetry:
                // a disabled cluster records nothing (and provably changes
                // nothing — the chaos harness compares fingerprints with
                // instrumentation on and off).
                let recorder = if telemetry.is_enabled() {
                    FlightRecorder::new(u64::from(id.0))
                } else {
                    FlightRecorder::disabled()
                };
                node.set_recorder(recorder.clone());
                Slot {
                    node,
                    alive: true,
                    recorder,
                }
            })
            .collect();
        DosgiCluster {
            net,
            store,
            slots,
            config,
            sla: SlaTracker::new(),
            events: Vec::new(),
            telemetry,
            observability: None,
            #[cfg(test)]
            skip_idle_ticks: false,
            #[cfg(test)]
            skipped_ticks: 0,
        }
    }

    /// Turns on continuous observability: every `config.cadence_us` of
    /// sim time, [`step`](Self::step) scrapes the telemetry registry
    /// into bounded time series, refreshes the per-node health gauges
    /// (`core.health.n<i>`), and evaluates `slos` as multi-window
    /// burn-rate alerts recorded into the snapshot's alert timeline.
    /// A no-op wiring on a disabled telemetry handle (nothing to read).
    pub fn enable_observability(&mut self, config: ScrapeConfig, slos: Vec<SloSpec>) {
        let mut engine = SloEngine::new(config.cadence_us);
        for spec in slos {
            engine.add(spec);
        }
        self.observability = Some(Observability {
            scraper: SeriesScraper::new(config),
            slo: engine,
        });
    }

    /// The default SLO set for instrumented sim runs: SAN operations
    /// must stay under 1% faulted, alerted on burn rate.
    pub fn default_slos() -> Vec<SloSpec> {
        vec![SloSpec::new(
            "san-faults",
            vec!["san.faults".to_owned()],
            vec!["san.ops".to_owned()],
            10_000,
        )]
    }

    /// The series scraper, when observability is enabled.
    pub fn scraper(&self) -> Option<&SeriesScraper> {
        self.observability.as_ref().map(|o| &o.scraper)
    }

    /// The SLO engine, when observability is enabled.
    pub fn slo_engine(&self) -> Option<&SloEngine> {
        self.observability.as_ref().map(|o| &o.slo)
    }

    /// The cluster-wide telemetry handle (cheap to clone; all clones share
    /// one registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The shared SAN.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Arms a storage fault plan on the shared SAN (seeded transient I/O
    /// errors, brown-out windows, torn writes). The plan's brown-out
    /// windows are interpreted against this cluster's simulated clock —
    /// [`step`](Self::step) keeps the injector's notion of *now* in sync.
    pub fn set_fault_plan(&mut self, plan: dosgi_san::FaultPlan) {
        self.store.set_fault_plan(plan);
        self.store.set_now(self.net.now());
    }

    /// Disarms storage fault injection (the SAN becomes reliable again).
    pub fn clear_faults(&mut self) {
        self.store.clear_faults();
    }

    /// The simulated network (partition injection, stats).
    pub fn net_mut(&mut self) -> &mut SimNet<Wire> {
        &mut self.net
    }

    /// Number of nodes (alive or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the cluster has no nodes (never: see [`new`](Self::new)).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// A node by index, if it exists and is alive.
    pub fn node(&self, idx: usize) -> Option<&DosgiNode> {
        self.slots.get(idx).filter(|s| s.alive).map(|s| &s.node)
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, idx: usize) -> Option<&mut DosgiNode> {
        self.slots
            .get_mut(idx)
            .filter(|s| s.alive)
            .map(|s| &mut s.node)
    }

    /// Indexes of nodes that are alive and `Running`.
    pub fn running_nodes(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive && s.node.state() == NodeState::Running)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of hibernated nodes (the E10 power metric).
    pub fn hibernated_nodes(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.alive && s.node.state() == NodeState::Hibernated)
            .count()
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Deploys an instance on node `idx` and waits (in simulated time) for
    /// the deployment to **commit** — i.e. for the ordered `Deployed`
    /// record to reach the replicated registry **of every live node**.
    /// (The sequencer alone is not enough: if the deploying node is the
    /// sequencer, its self-delivery is instant while the broadcast could
    /// still die with it.) Only then can a crash of any single node not
    /// lose the instance.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeUnavailable`], [`CoreError::DuplicateInstance`],
    /// instance-manager errors, or [`CoreError::BadMigration`] if the
    /// commit does not land within five simulated seconds (no sequencer
    /// reachable).
    pub fn deploy(&mut self, descriptor: InstanceDescriptor, idx: usize) -> Result<(), CoreError> {
        if self.find_record(&descriptor.name).is_some() {
            return Err(CoreError::DuplicateInstance(descriptor.name));
        }
        let name = descriptor.name.clone();
        let now = self.net.now();
        let slot = self
            .slots
            .get_mut(idx)
            .filter(|s| s.alive)
            .ok_or(CoreError::NodeUnavailable(NodeId(idx as u32)))?;
        slot.node.deploy(descriptor, &mut self.net, now)?;
        let deadline = self.net.now() + SimDuration::from_secs(5);
        while self.net.now() < deadline {
            let everywhere = self
                .slots
                .iter()
                .filter(|s| s.alive && s.node.state() == NodeState::Running)
                .all(|s| s.node.registry().record(&name).is_some());
            if everywhere {
                return Ok(());
            }
            self.step();
        }
        Err(CoreError::BadMigration(format!(
            "deployment of {name:?} did not commit"
        )))
    }

    /// Permanently removes an instance from the cluster (state wiped).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance has no live home.
    pub fn undeploy(&mut self, name: &str) -> Result<(), CoreError> {
        let home = self
            .home_of(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        let slot = self
            .slots
            .get_mut(home)
            .ok_or(CoreError::NodeUnavailable(NodeId(home as u32)))?;
        slot.node.undeploy(name, &mut self.net)
    }

    /// Requests a migration of `name` to node `to`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownInstance`] / [`CoreError::NotPlaced`] /
    /// [`CoreError::BadMigration`].
    pub fn migrate(&mut self, name: &str, to: usize) -> Result<(), CoreError> {
        let home = self
            .home_of(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        if self.node(to).is_none() {
            return Err(CoreError::BadMigration(format!(
                "destination n{to} is down"
            )));
        }
        let dest = NodeId(to as u32);
        let slot = self
            .slots
            .get_mut(home)
            .ok_or(CoreError::NodeUnavailable(NodeId(home as u32)))?;
        slot.node.migrate_away(name, dest, &mut self.net)
    }

    /// Requests an in-place hot upgrade of the bundle named by
    /// `manifest.symbolic_name` inside instance `name`, on its current
    /// home node. Completion surfaces as
    /// [`NodeEvent::BundleUpgraded`](crate::NodeEvent::BundleUpgraded);
    /// drive the cluster to observe it.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] when the instance has no live home.
    pub fn upgrade_bundle(
        &mut self,
        name: &str,
        manifest: dosgi_osgi::BundleManifest,
    ) -> Result<(), CoreError> {
        let home = self
            .home_of(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        let now = self.net.now();
        let slot = self
            .slots
            .get_mut(home)
            .ok_or(CoreError::NodeUnavailable(NodeId(home as u32)))?;
        slot.node.request_upgrade(name, manifest, now)
    }

    /// Crashes node `idx` (crash-stop: volatile state lost, SAN intact).
    pub fn crash_node(&mut self, idx: usize) {
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.alive = false;
            self.net.crash(NodeId(idx as u32));
        }
    }

    /// Restarts a crashed node with fresh volatile state; it rejoins the
    /// group and receives a registry sync from the coordinator.
    pub fn restart_node(&mut self, idx: usize) {
        let ids: Vec<NodeId> = (0..self.slots.len()).map(|i| NodeId(i as u32)).collect();
        let id = NodeId(idx as u32);
        self.net.restart(id);
        if let Some(slot) = self.slots.get_mut(idx) {
            let mut node = DosgiNode::new(
                id,
                ids,
                self.config.node.clone(),
                self.store.clone(),
                self.net.now(),
            );
            node.set_telemetry(self.telemetry.clone());
            node.set_recorder(slot.recorder.clone());
            slot.node = node;
            slot.alive = true;
        }
    }

    /// Wakes a hibernated (or orderly-stopped) node: it rejoins the group
    /// with fresh volatile state and becomes a placement candidate again —
    /// the scale-back-up half of §4's consolidation story ("relocating
    /// them in another node when they need more performance").
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeUnavailable`] if the node is crashed or running.
    pub fn wake_node(&mut self, idx: usize) -> Result<(), CoreError> {
        let state = self
            .slots
            .get(idx)
            .filter(|s| s.alive)
            .map(|s| s.node.state())
            .ok_or(CoreError::NodeUnavailable(NodeId(idx as u32)))?;
        if !matches!(state, NodeState::Hibernated | NodeState::Stopped) {
            return Err(CoreError::NodeUnavailable(NodeId(idx as u32)));
        }
        // Waking is a restart with empty volatile state; the SAN still has
        // everything durable.
        self.restart_node(idx);
        Ok(())
    }

    /// Starts a graceful shutdown of node `idx` (drain, then leave).
    pub fn graceful_shutdown(&mut self, idx: usize) {
        let now = self.net.now();
        if let Some(slot) = self.slots.get_mut(idx) {
            if slot.alive {
                slot.node.begin_shutdown(&mut self.net, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Client-side views
    // ------------------------------------------------------------------

    fn find_record(&self, name: &str) -> Option<&crate::InstanceRecord> {
        reference_registry(&self.slots).and_then(|r| r.record(name))
    }

    /// The node index currently responsible for `name` (per the replicated
    /// registry), if placed on a live node.
    pub fn home_of(&self, name: &str) -> Option<usize> {
        live_home(&self.slots, self.find_record(name)?)
    }

    /// True if `name` is currently serving somewhere — the availability
    /// probe (a client that knows the service's location, as the paper's
    /// localization schemes provide).
    pub fn probe(&self, name: &str) -> bool {
        self.find_record(name)
            .is_some_and(|rec| serving(&self.slots, rec))
    }

    /// Routes a client request to the instance's current home.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPlaced`] while the instance is down (counted as
    /// downtime by callers), [`CoreError::Throttled`] when the SLA layer
    /// throttled it, plus service errors.
    pub fn call(
        &mut self,
        name: &str,
        interface: &str,
        method: &str,
        arg: &Value,
    ) -> Result<Value, CoreError> {
        let idx = self
            .home_of(name)
            .ok_or_else(|| CoreError::NotPlaced(name.to_owned()))?;
        let node = self
            .node_mut(idx)
            .ok_or(CoreError::NodeUnavailable(NodeId(idx as u32)))?;
        if node.is_throttled(name) {
            return Err(CoreError::Throttled(name.to_owned()));
        }
        node.call_local(name, interface, method, arg)
    }

    /// The SLA/availability tracker fed by per-tick probes.
    pub fn sla(&self) -> &SlaTracker {
        &self.sla
    }

    /// Drains all node events collected so far, as `(node, event)` pairs in
    /// observation order.
    pub fn take_events(&mut self) -> Vec<(NodeId, NodeEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Injects a network partition.
    pub fn partition(&mut self, p: Partition) {
        self.net.partition(p);
    }

    /// Heals any partition.
    pub fn heal(&mut self) {
        self.net.heal();
    }

    // ------------------------------------------------------------------
    // The driver loop
    // ------------------------------------------------------------------

    /// Advances the cluster by `duration`, ticking every live node each
    /// step and probing every registered instance's availability.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.net.now() + duration;
        while self.net.now() < end {
            self.step();
        }
    }

    /// One driver step: advance the network by one tick, tick the nodes,
    /// collect events, probe availability — public so experiments can
    /// interleave fine-grained actions with time.
    pub fn step(&mut self) {
        self.net.advance(self.config.tick);
        let now = self.net.now();
        // Brown-out windows in an armed fault plan are defined in simulated
        // time; advance the injector's clock alongside the network's.
        self.store.set_now(now);
        for slot in &mut self.slots {
            #[cfg(test)]
            if self.skip_idle_ticks
                && slot.alive
                && self.net.pending(slot.node.id()) == 0
                && slot.node.next_deadline(now) > now
            {
                self.skipped_ticks += 1;
                continue;
            }
            if slot.alive {
                slot.node.tick(&mut self.net, now);
            }
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            for e in slot.node.take_events() {
                if let NodeEvent::Adopted { reason, .. } = &e {
                    self.telemetry.incr(match reason {
                        AdoptReason::Migration => "core.migration.completed",
                        AdoptReason::Failover => "core.failover.adoptions",
                    });
                }
                self.events.push((NodeId(i as u32), e));
            }
        }
        // Availability probes, walking the registry in place.
        let slots = &self.slots;
        if let Some(registry) = reference_registry(slots) {
            for rec in registry.records() {
                self.sla.probe(&rec.name, now, serving(slots, rec));
            }
        }
        // Continuous observability, on the scrape cadence: health gauges
        // first (so the scrape samples the fresh values), then the series
        // scrape, then SLO evaluation. Pure reads of the telemetry
        // registry and the replicated registry — nothing here touches the
        // network, the SAN, or any RNG stream (passivity).
        let now_us = now.as_micros();
        if self
            .observability
            .as_ref()
            .is_some_and(|o| o.scraper.due(now_us))
        {
            self.record_health_gauges();
            let telemetry = self.telemetry.clone();
            if let Some(obs) = self.observability.as_mut() {
                obs.scraper.scrape(&telemetry, now_us);
                obs.slo.observe(&telemetry, now_us);
            }
        }
    }

    // ------------------------------------------------------------------
    // The health scoreboard
    // ------------------------------------------------------------------

    /// Quarantined instances homed on node `idx`, per the replicated
    /// registry (0 when no running node can be consulted).
    fn quarantined_on(&self, idx: usize) -> usize {
        reference_registry(&self.slots)
            .map(|r| {
                r.records()
                    .filter(|rec| {
                        rec.status == InstanceStatus::Quarantined && rec.home.index() == idx
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Node `idx`'s current health: a dead node is `Critical` outright;
    /// otherwise alert state (cluster-scoped SLO alerts degrade every
    /// serving node), quarantined instances homed here, and queue
    /// pressure feed [`dosgi_telemetry::derive_health`]. Hibernated and
    /// stopped nodes serve nothing by design, so their indicators are
    /// naturally quiet and they report `Ok`.
    pub fn health_of(&self, idx: usize) -> HealthState {
        let Some(slot) = self.slots.get(idx) else {
            return HealthState::Critical;
        };
        if !slot.alive {
            return HealthState::Critical;
        }
        let serving = slot.node.state() == NodeState::Running;
        let alerts = if serving {
            self.observability
                .as_ref()
                .map(|o| o.slo.firing_count())
                .unwrap_or(0)
        } else {
            0
        };
        dosgi_telemetry::derive_health(alerts, self.quarantined_on(idx), 0)
    }

    /// The per-node health scoreboard, indexed like the nodes.
    pub fn health_scoreboard(&self) -> Vec<HealthState> {
        (0..self.slots.len()).map(|i| self.health_of(i)).collect()
    }

    /// Publishes the scoreboard as `core.health.n<i>` gauges
    /// (0 = ok, 1 = degraded, 2 = critical).
    pub fn record_health_gauges(&self) {
        for (i, h) in self.health_scoreboard().iter().enumerate() {
            self.telemetry
                .gauge_set(&format!("core.health.n{i}"), h.as_gauge());
        }
    }

    /// Publishes the cluster's derived health figures as telemetry gauges:
    /// aggregate SLA downtime/outages across all tracked instances and the
    /// node-state census. Call before [`telemetry_snapshot`]
    /// (Self::telemetry_snapshot) so the snapshot reflects current state.
    pub fn record_telemetry_gauges(&self) {
        let mut down_us: u64 = 0;
        let mut outages: u64 = 0;
        let mut longest_us: u64 = 0;
        for name in self.sla.instances() {
            let rec = self.sla.record(name);
            down_us += rec.down.as_micros();
            outages += u64::from(rec.outages);
            longest_us = longest_us.max(rec.longest_outage.as_micros());
        }
        self.telemetry
            .gauge_set("core.sla.down_us_total", down_us as i64);
        self.telemetry.gauge_set("core.sla.outages", outages as i64);
        self.telemetry
            .gauge_set("core.sla.longest_outage_us", longest_us as i64);
        self.telemetry.gauge_set(
            "core.cluster.nodes_running",
            self.running_nodes().len() as i64,
        );
        self.telemetry.gauge_set(
            "core.cluster.nodes_hibernated",
            self.hibernated_nodes() as i64,
        );
        self.record_health_gauges();
    }

    /// Refreshes the derived gauges and takes a snapshot of the cluster's
    /// telemetry registry, labelled for the snapshot file name.
    pub fn telemetry_snapshot(&self, label: &str, seed: u64) -> Snapshot {
        self.record_telemetry_gauges();
        self.telemetry.snapshot(label, seed)
    }

    /// Merges every node's flight recorder — including those of crashed
    /// nodes, whose rings outlive them — into one causally-ordered
    /// cluster trace. Empty when the cluster runs without telemetry.
    pub fn trace_log(&self) -> TraceLog {
        TraceLog::merge(self.slots.iter().map(|s| &s.recorder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use dosgi_san::Value;

    fn cluster() -> DosgiCluster {
        let mut c = DosgiCluster::new(3, ClusterConfig::default(), 77);
        c.run_for(SimDuration::from_millis(500));
        c
    }

    #[test]
    fn deploy_undeploy_round_trip() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        assert!(c.probe("web"));
        assert_eq!(c.home_of("web"), Some(0));
        c.undeploy("web").unwrap();
        c.run_for(SimDuration::from_millis(500));
        assert!(!c.probe("web"));
        assert_eq!(c.home_of("web"), None);
        // The SAN state is wiped too: nothing under the instance namespace.
        assert_eq!(c.store().namespace_bytes_prefixed("instance/web"), 0);
        // And the name is reusable.
        c.deploy(workloads::web_instance("a", "web"), 1).unwrap();
        c.run_for(SimDuration::from_millis(300));
        assert_eq!(c.home_of("web"), Some(1));
    }

    /// The real-clock workers' wake rule — tick only with mail or once
    /// `next_deadline` has passed — skips most 5 ms steps of a quiet
    /// cluster, yet produces exactly the events (with their timestamps)
    /// and call results of the every-step driver. Operations land between
    /// heartbeat rounds, so work they leave behind is seen only through
    /// the deadline: ordered self-deliveries, adoptions, an upgrade,
    /// write-behind persistence under SAN faults, and a crash.
    #[test]
    fn idle_ticks_are_skipped_without_changing_the_outcome() {
        fn incr(c: &mut DosgiCluster, name: &str, out: &mut Vec<String>) {
            let r = c.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null);
            out.push(format!("{r:?}"));
        }
        let run = |skip: bool| {
            let mut c = DosgiCluster::new(3, ClusterConfig::default(), 77);
            c.skip_idle_ticks = skip;
            let mut out = Vec::new();
            c.run_for(SimDuration::from_millis(520));
            let wt = workloads::COUNTER_WRITE_THROUGH;
            c.deploy(workloads::counter_instance_with("acme", "a", wt), 0)
                .unwrap();
            c.deploy(workloads::counter_instance_with("acme", "b", wt), 1)
                .unwrap();
            for _ in 0..3 {
                incr(&mut c, "a", &mut out);
            }
            c.run_for(SimDuration::from_millis(15));
            c.migrate("a", 2).unwrap();
            c.run_for(SimDuration::from_millis(1_015));
            let v2 = workloads::counter_manifest_at(wt, dosgi_osgi::Version::new(1, 1, 0));
            c.upgrade_bundle("b", v2).unwrap();
            c.run_for(SimDuration::from_millis(215));
            c.set_fault_plan(dosgi_san::FaultPlan::flaky(0.3, 9));
            for round in 0..20 {
                incr(&mut c, "a", &mut out);
                incr(&mut c, "b", &mut out);
                if round == 5 {
                    out.push(format!("{:?}", c.migrate("b", 0)));
                }
                c.run_for(SimDuration::from_millis(35));
            }
            c.clear_faults();
            c.run_for(SimDuration::from_millis(1_020));
            c.crash_node(1);
            c.run_for(SimDuration::from_secs(3));
            incr(&mut c, "a", &mut out);
            incr(&mut c, "b", &mut out);
            let node_steps = 3 * c.now().as_micros() / c.config.tick.as_micros();
            (
                out,
                format!("{:?}", c.take_events()),
                c.skipped_ticks,
                node_steps,
            )
        };
        let (every_out, every_events, _, _) = run(false);
        let (out, events, skipped, node_steps) = run(true);
        assert_eq!(every_out[..3], ["Ok(Int(1))", "Ok(Int(2))", "Ok(Int(3))"]);
        assert_eq!(out, every_out);
        assert_eq!(events, every_events);
        assert!(
            skipped * 2 > node_steps,
            "only {skipped} of {node_steps} node steps skipped"
        );
    }

    #[test]
    fn undeploy_of_unknown_instance_errors() {
        let mut c = cluster();
        assert!(matches!(c.undeploy("ghost"), Err(CoreError::NotPlaced(_))));
    }

    #[test]
    fn node_accessors_respect_liveness() {
        let mut c = cluster();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.node(0).is_some());
        assert!(c.node(9).is_none());
        assert_eq!(c.running_nodes(), vec![0, 1, 2]);
        assert_eq!(c.hibernated_nodes(), 0);
        c.crash_node(1);
        assert!(c.node(1).is_none());
        assert_eq!(c.running_nodes(), vec![0, 2]);
    }

    #[test]
    fn call_to_unplaced_instance_is_not_placed_error() {
        let mut c = cluster();
        let err = c
            .call("nope", workloads::WEB_SERVICE, "handle", &Value::Null)
            .unwrap_err();
        assert!(matches!(err, CoreError::NotPlaced(_)));
    }

    #[test]
    fn deploy_rejects_dead_node_and_duplicates() {
        let mut c = cluster();
        c.crash_node(2);
        assert!(matches!(
            c.deploy(workloads::web_instance("a", "w"), 2),
            Err(CoreError::NodeUnavailable(_))
        ));
        c.deploy(workloads::web_instance("a", "w"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        assert!(matches!(
            c.deploy(workloads::web_instance("b", "w"), 1),
            Err(CoreError::DuplicateInstance(_))
        ));
    }

    #[test]
    fn monitor_series_bridge_into_telemetry_gauges() {
        let telemetry = Telemetry::new();
        let mut c =
            DosgiCluster::new_with_telemetry(3, ClusterConfig::default(), 77, telemetry.clone());
        c.run_for(SimDuration::from_millis(500));
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        // Dense enough that every 250ms sampling window contains calls, so
        // the final gauge values are non-zero regardless of window phase.
        for _ in 0..20 {
            c.call("web", workloads::WEB_SERVICE, "handle", &Value::Null)
                .unwrap();
            c.run_for(SimDuration::from_millis(100));
        }
        let gauges = telemetry.snapshot("t", 0).gauges;
        for key in [
            "monitor.web.cpu_share_pm",
            "monitor.web.memory_bytes",
            "monitor.web.call_rate_mcps",
        ] {
            assert!(gauges.contains_key(key), "missing {key} in {gauges:?}");
        }
        assert!(
            gauges["monitor.web.call_rate_mcps"] > 0,
            "sustained calls show up in the windowed rate: {gauges:?}"
        );
    }

    #[test]
    fn migration_produces_causal_trace() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        c.migrate("web", 1).unwrap();
        c.run_for(SimDuration::from_millis(1_000));
        assert_eq!(c.home_of("web"), Some(1));
        let log = c.trace_log();
        let root = log
            .events
            .iter()
            .find(|e| e.name == "migrate/web")
            .expect("migrate root recorded");
        assert_eq!(root.parent_span, 0, "operator migrate starts the trace");
        assert_eq!(root.node, 0, "minted on the source");
        let in_trace = |name: &str| {
            log.events
                .iter()
                .find(|e| e.trace_id == root.trace_id && e.name == name)
        };
        let release = in_trace("release/web").expect("release span");
        let adopt = in_trace("adopt/web").expect("adopt span");
        assert!(in_trace("quiesce/web").is_some(), "quiesce phase");
        assert!(in_trace("persist/web").is_some(), "persist phase");
        assert_eq!(release.node, 0);
        assert_eq!(adopt.node, 1, "adopt span lives on the destination");
        assert!(!adopt.open, "adoption completed");
        assert!(
            adopt.lamport_start > release.lamport_end,
            "adoption is causally after the release ({} vs {})",
            adopt.lamport_start,
            release.lamport_end
        );
        assert!(
            adopt.end_us >= release.end_us,
            "adoption finishes after the release in simulated time"
        );
    }

    #[test]
    fn failover_claim_produces_trace() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        c.crash_node(0);
        c.run_for(SimDuration::from_secs(8));
        let new_home = c.home_of("web").expect("web failed over");
        assert_ne!(new_home, 0);
        let log = c.trace_log();
        let root = log
            .events
            .iter()
            .find(|e| e.name == "failover/web")
            .expect("failover claim root recorded");
        let adopt = log
            .events
            .iter()
            .find(|e| e.trace_id == root.trace_id && e.name == "adopt/web")
            .expect("failover adoption joins the claim's trace");
        assert_eq!(adopt.node, new_home as u64);
        assert!(adopt.lamport_start > root.lamport_start);
    }

    #[test]
    fn disabled_telemetry_records_no_trace() {
        let mut c = DosgiCluster::new_with_telemetry(
            3,
            ClusterConfig::default(),
            77,
            Telemetry::disabled(),
        );
        c.run_for(SimDuration::from_millis(500));
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_millis(300));
        c.migrate("web", 1).unwrap();
        c.run_for(SimDuration::from_millis(1_000));
        assert_eq!(c.home_of("web"), Some(1), "protocol unaffected");
        assert!(c.trace_log().events.is_empty());
    }

    #[test]
    fn health_scoreboard_tracks_liveness_and_gauges() {
        let telemetry = Telemetry::new();
        let mut c =
            DosgiCluster::new_with_telemetry(3, ClusterConfig::default(), 77, telemetry.clone());
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(
            c.health_scoreboard(),
            vec![HealthState::Ok, HealthState::Ok, HealthState::Ok]
        );
        c.crash_node(1);
        assert_eq!(c.health_of(1), HealthState::Critical);
        assert_eq!(c.health_of(0), HealthState::Ok);
        assert_eq!(c.health_of(99), HealthState::Critical, "unknown = critical");
        c.record_health_gauges();
        assert_eq!(telemetry.gauge("core.health.n0"), Some(0));
        assert_eq!(telemetry.gauge("core.health.n1"), Some(2));
        c.restart_node(1);
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.health_of(1), HealthState::Ok);
    }

    #[test]
    fn observability_scrapes_on_cadence_with_bounded_series() {
        let telemetry = Telemetry::new();
        let mut c =
            DosgiCluster::new_with_telemetry(3, ClusterConfig::default(), 77, telemetry.clone());
        c.enable_observability(
            dosgi_telemetry::ScrapeConfig {
                cadence_us: 250_000,
                capacity: 16,
            },
            DosgiCluster::default_slos(),
        );
        c.run_for(SimDuration::from_millis(500));
        c.deploy(workloads::web_instance("a", "web"), 0).unwrap();
        c.run_for(SimDuration::from_secs(30));
        let scraper = c.scraper().expect("observability on");
        // 30.5 s at 250 ms cadence: one scrape per window, first at t=tick.
        assert!(scraper.scrapes() >= 120, "scrapes: {}", scraper.scrapes());
        let rate = scraper.series("rate:san.ops").expect("san.ops series");
        assert!(rate.len() <= rate.capacity());
        assert_eq!(rate.appended(), rate.len() as u64 + rate.dropped());
        assert!(rate.dropped() > 0, "a 16-ring over 120 scrapes compacts");
        assert_eq!(
            telemetry.counter(dosgi_telemetry::DROPPED_POINTS),
            scraper.total_dropped()
        );
        // Health gauges became series too.
        assert!(scraper.series("gauge:core.health.n0").is_some());
        // A healthy run fires nothing.
        assert_eq!(c.slo_engine().unwrap().firing_count(), 0);
        assert!(telemetry.alerts().is_empty());
    }

    #[test]
    fn events_are_tagged_with_their_node() {
        let mut c = cluster();
        c.deploy(workloads::web_instance("a", "w"), 1).unwrap();
        c.run_for(SimDuration::from_millis(300));
        let events = c.take_events();
        assert!(events
            .iter()
            .any(|(n, e)| *n == NodeId(1) && matches!(e, crate::NodeEvent::Deployed { .. })));
        assert!(c.take_events().is_empty(), "drained");
    }
}
