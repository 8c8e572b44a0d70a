//! # Real-clock cluster runtime
//!
//! [`DosgiCluster`](crate::DosgiCluster) drives every node from one loop
//! against the deterministic [`SimNet`](dosgi_net::SimNet) — perfect for
//! chaos sweeps and byte-stable trace fingerprints, useless for measuring
//! how the hot paths behave under *actual* concurrency.
//!
//! [`RealCluster`] is the second backend behind the same node logic: each
//! [`DosgiNode`] moves onto its own `std::thread`, owns a
//! [`RealEndpoint`](dosgi_net::RealEndpoint) (lock-free `mpsc` links, a
//! shared monotonic [`RealClock`](dosgi_net::RealClock)), and ticks the
//! identical protocol code the simulator runs. Nothing in `DosgiNode` knows
//! which backend it is on — the only coupling is the [`Fabric`] trait.
//!
//! ## Command plane
//!
//! Callers talk to worker threads through each node's single inbox, which
//! carries both the commands and the fabric messages from peers; each
//! command carries its own reply channel. The worker loop is:
//!
//! 1. block on the inbox until something arrives or the node's
//!    [`next_deadline`](DosgiNode::next_deadline) passes,
//! 2. service the commands that arrived (deploy / migrate / call / probe /
//!    …),
//! 3. `node.tick(&mut endpoint, now)` — heartbeats, view changes,
//!    total-order delivery, adoption, SLA sweeps — but only when mail
//!    arrived or the deadline has passed: a command alone never ticks,
//! 4. answer [`await_running`](RealCluster::await_running) waiters whose
//!    instance now runs, and release those past their deadline.
//!
//! Nothing sleeps or polls: an idle node wakes once per timer (a
//! heartbeat interval, typically), and a request is served as soon as the
//! worker is scheduled. Convergence is *eventual* — a deploy returns as
//! soon as the home node accepted it; `await_running` waits for the
//! ordered registration to propagate.
//!
//! ## Time
//!
//! All nodes share one [`RealClock`]; `SimTime` values are microseconds
//! since cluster start, so GCS timing configs tuned for the simulator
//! (heartbeats, failover deadlines) carry over unchanged. Every worker
//! advances the shared store's fault clock on each wake-up with a
//! monotonic max-update, so the clock never goes backwards and keeps
//! moving while any node is awake.

use crate::node::NodeConfig;
use crate::CoreError;
use crate::DosgiNode;
use crate::NodeEvent;
use dosgi_net::{Clock, CommandSender, Fabric, NodeId, RealClock, RealNet, SimTime};
use dosgi_osgi::RegistryReader;
use dosgi_san::{BackendKind, SharedStore, Value};
use dosgi_telemetry::HealthState;
use dosgi_vosgi::InstanceDescriptor;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wire type the nodes exchange (same alias the sim cluster uses).
type Wire = dosgi_gcs::GcsWire<crate::AppPayload>;

/// One request to a node's worker thread. Every variant but `Shutdown`
/// carries a reply channel; `recv` on the caller side blocks until the
/// worker services it.
enum Command {
    Deploy(InstanceDescriptor, Sender<Result<(), CoreError>>),
    Migrate(String, NodeId, Sender<Result<(), CoreError>>),
    Call(
        String,
        String,
        String,
        Value,
        Sender<Result<Value, CoreError>>,
    ),
    Probe(String, Sender<bool>),
    /// Reply `true` once the named instance runs on this node; the sender
    /// is dropped unanswered at the deadline or on shutdown.
    AwaitRunning(String, SimTime, Sender<bool>),
    Health(Sender<HealthState>),
    Reader(Sender<RegistryReader>),
    TakeEvents(Sender<Vec<NodeEvent>>),
    Shutdown,
}

/// A pending [`Command::AwaitRunning`].
struct Waiter {
    name: String,
    deadline: SimTime,
    reply: Sender<bool>,
}

/// A cluster of [`DosgiNode`]s, one OS thread per node, connected by a
/// [`RealNet`] and paced by a shared monotonic [`RealClock`].
pub struct RealCluster {
    ids: Vec<NodeId>,
    cmds: Vec<CommandSender<Wire, Command>>,
    workers: Vec<JoinHandle<()>>,
    store: SharedStore,
    clock: RealClock,
}

impl RealCluster {
    /// Spins up `n` nodes with identical configs on an in-memory store.
    pub fn new(n: usize, config: NodeConfig) -> Self {
        Self::with_store(n, config, SharedStore::with_kind(BackendKind::Map))
    }

    /// Spins up `n` nodes sharing `store`. Each node is constructed *on*
    /// its worker thread (the node itself never crosses threads), then
    /// driven by its worker loop until [`shutdown`](Self::shutdown).
    pub fn with_store(n: usize, config: NodeConfig, store: SharedStore) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        let mut net: RealNet<Wire, Command> = RealNet::new();
        let ids: Vec<NodeId> = (0..n).map(|_| net.register_node()).collect();
        let clock = net.clock().clone();
        let mut cmds = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for &id in &ids {
            cmds.push(net.commands(id));
            let mut endpoint = net.endpoint(id);
            let peers = ids.clone();
            let cfg = config.clone();
            let node_store = store.clone();
            let handle = std::thread::Builder::new()
                .name(format!("dosgi-node-{id}"))
                .spawn(move || {
                    let boot = endpoint.now();
                    let node = DosgiNode::new(id, peers, cfg, node_store.clone(), boot);
                    run_worker(node, &mut endpoint, &node_store);
                })
                .expect("spawn node worker");
            workers.push(handle);
        }
        RealCluster {
            ids,
            cmds,
            workers,
            store,
            clock,
        }
    }

    /// Node ids, in spawn order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The shared SAN handle.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Microseconds since cluster start, from the shared monotonic clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Posts `cmd` to node `on`'s inbox.
    fn post(&self, on: NodeId, cmd: Command) {
        assert!(self.cmds[on.index()].send(cmd).is_ok(), "worker alive");
    }

    /// Deploys `descriptor` on node `on`; returns once the home node
    /// accepted it (cluster-wide registration follows via total order).
    pub fn deploy(&self, on: NodeId, descriptor: InstanceDescriptor) -> Result<(), CoreError> {
        let (tx, rx) = channel();
        self.post(on, Command::Deploy(descriptor, tx));
        rx.recv().expect("worker replies")
    }

    /// Requests migration of `name` from `from` to `to`.
    pub fn migrate(&self, from: NodeId, name: &str, to: NodeId) -> Result<(), CoreError> {
        let (tx, rx) = channel();
        self.post(from, Command::Migrate(name.to_owned(), to, tx));
        rx.recv().expect("worker replies")
    }

    /// Invokes `interface::method(arg)` on instance `name`, which must be
    /// placed on node `on`.
    pub fn call(
        &self,
        on: NodeId,
        name: &str,
        interface: &str,
        method: &str,
        arg: &Value,
    ) -> Result<Value, CoreError> {
        let (tx, rx) = channel();
        self.post(
            on,
            Command::Call(
                name.to_owned(),
                interface.to_owned(),
                method.to_owned(),
                arg.clone(),
                tx,
            ),
        );
        rx.recv().expect("worker replies")
    }

    /// True if instance `name` is currently running on node `on`.
    pub fn probe(&self, on: NodeId, name: &str) -> bool {
        let (tx, rx) = channel();
        self.post(on, Command::Probe(name.to_owned(), tx));
        rx.recv().expect("worker replies")
    }

    /// Node `on`'s current health, computed on the worker thread from the
    /// node's own view: quarantined instances homed there and total-order
    /// backlog pressure (see [`node_health`]). Mirrors the sim driver's
    /// [`DosgiCluster::health_of`](crate::DosgiCluster::health_of) on the
    /// real-clock command plane.
    pub fn health(&self, on: NodeId) -> HealthState {
        let (tx, rx) = channel();
        self.post(on, Command::Health(tx));
        rx.recv().expect("worker replies")
    }

    /// Every node's health, indexed like [`ids`](Self::ids).
    pub fn health_scoreboard(&self) -> Vec<HealthState> {
        self.ids.iter().map(|&id| self.health(id)).collect()
    }

    /// A concurrent read handle onto node `on`'s host service registry.
    /// The handle outlives the request and reads without stopping the node.
    pub fn registry_reader(&self, on: NodeId) -> RegistryReader {
        let (tx, rx) = channel();
        self.post(on, Command::Reader(tx));
        rx.recv().expect("worker replies")
    }

    /// Drains node `on`'s accumulated events.
    pub fn take_events(&self, on: NodeId) -> Vec<NodeEvent> {
        let (tx, rx) = channel();
        self.post(on, Command::TakeEvents(tx));
        rx.recv().expect("worker replies")
    }

    /// Waits until instance `name` runs on node `on`, or `timeout`
    /// elapses. Returns whether the instance was observed running. The
    /// worker answers at once if it already runs, otherwise at the first
    /// tick after which it does; nothing is polled.
    pub fn await_running(&self, on: NodeId, name: &str, timeout: Duration) -> bool {
        let deadline = self.clock.reading_at(Instant::now() + timeout);
        let (tx, rx) = channel();
        self.post(on, Command::AwaitRunning(name.to_owned(), deadline, tx));
        // An unanswered waiter is dropped at its deadline: that is `false`.
        rx.recv().unwrap_or(false)
    }

    /// Stops every worker and joins the threads. Called implicitly on drop;
    /// explicit shutdown surfaces worker panics to the caller.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        for tx in &self.cmds {
            // A worker that already exited (panic) has dropped its inbox;
            // join below will surface that.
            let _ = tx.send(Command::Shutdown);
        }
        for handle in self.workers.drain(..) {
            if let Err(panic) = handle.join() {
                if std::thread::panicking() {
                    continue; // don't double-panic out of Drop
                }
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for RealCluster {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// A worker thread's loop (see the module docs): block on the inbox until
/// mail, a command or the node's next deadline; service commands; tick
/// only on mail or a passed deadline; answer and expire `await_running`
/// waiters. Returns on [`Command::Shutdown`], dropping pending waiters.
fn run_worker(
    mut node: DosgiNode,
    endpoint: &mut dosgi_net::RealEndpoint<Wire, Command>,
    store: &SharedStore,
) {
    let mut waiters: Vec<Waiter> = Vec::new();
    let mut due = node.next_deadline(endpoint.now());
    loop {
        let wake = waiters.iter().map(|w| w.deadline).fold(due, SimTime::min);
        let mail = endpoint.recv_until(wake);
        let now = endpoint.now();
        store.advance_to(now);
        let mut serviced = false;
        while let Some(cmd) = endpoint.next_command() {
            serviced = true;
            match cmd {
                Command::Deploy(desc, reply) => {
                    let _ = reply.send(node.deploy(desc, endpoint, now));
                }
                Command::Migrate(name, to, reply) => {
                    let _ = reply.send(node.migrate_away(&name, to, endpoint));
                }
                Command::Call(name, interface, method, arg, reply) => {
                    let _ = reply.send(node.call_local(&name, &interface, &method, &arg));
                }
                Command::Probe(name, reply) => {
                    let _ = reply.send(node.probe_local(&name));
                }
                Command::AwaitRunning(name, deadline, reply) => {
                    if node.probe_local(&name) {
                        let _ = reply.send(true);
                    } else {
                        waiters.push(Waiter {
                            name,
                            deadline,
                            reply,
                        });
                    }
                }
                Command::Health(reply) => {
                    let _ = reply.send(node_health(&node));
                }
                Command::Reader(reply) => {
                    let _ = reply.send(node.registry_reader());
                }
                Command::TakeEvents(reply) => {
                    let _ = reply.send(node.take_events());
                }
                Command::Shutdown => return,
            }
        }
        // A command may have queued work that is due at once (a deploy's
        // ordered announcement, say): the deadline says so.
        if serviced {
            due = node.next_deadline(now);
        }
        if mail || due <= now {
            node.tick(endpoint, now);
            // Events nobody collects must not grow without bound on a
            // long-lived cluster.
            if node.events_len() > 16_384 {
                let _ = node.take_events();
            }
            waiters.retain(|w| {
                let running = node.probe_local(&w.name);
                if running {
                    let _ = w.reply.send(true);
                }
                !running
            });
            due = node.next_deadline(endpoint.now());
        }
        waiters.retain(|w| w.deadline > now);
    }
}

/// Total-order backlog regarded as "100% queue pressure" when deriving a
/// node's health. A healthy node drains its GCS pipeline every tick; a
/// backlog in the hundreds means delivery has wedged behind a partition
/// or a slow peer, which is exactly what the scoreboard should surface.
const GCS_BACKLOG_NOMINAL: usize = 256;

/// Node-local health, computed from state the worker thread already owns:
/// no alerts feed in (SLO engines attach to the sim driver's scraper, not
/// to individual real-clock workers), so health here is quarantined
/// instances homed on this node plus total-order backlog pressure scaled
/// against [`GCS_BACKLOG_NOMINAL`].
fn node_health(node: &DosgiNode) -> HealthState {
    let id = node.id();
    let quarantined = node
        .registry()
        .records()
        .filter(|r| r.status == crate::InstanceStatus::Quarantined && r.home == id)
        .count();
    let queue_pct = (node.gcs_pending() as u64 * 100) / GCS_BACKLOG_NOMINAL as u64;
    dosgi_telemetry::derive_health(0, quarantined, queue_pct.min(100))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn two_node_cluster() -> RealCluster {
        RealCluster::new(2, NodeConfig::default())
    }

    #[test]
    fn deploy_call_and_migrate_on_real_threads() {
        let cluster = two_node_cluster();
        let [a, b] = [cluster.ids()[0], cluster.ids()[1]];
        cluster
            .deploy(a, workloads::counter_instance("acme", "ctr-rt"))
            .expect("deploy accepted");
        assert!(cluster.await_running(a, "ctr-rt", Duration::from_secs(10)));

        for want in 1..=3 {
            let got = cluster
                .call(
                    a,
                    "ctr-rt",
                    workloads::COUNTER_SERVICE,
                    "incr",
                    &Value::Null,
                )
                .expect("local call works");
            assert_eq!(got, Value::Int(want));
        }

        cluster.migrate(a, "ctr-rt", b).expect("migrate accepted");
        assert!(
            cluster.await_running(b, "ctr-rt", Duration::from_secs(10)),
            "instance should re-materialize on the destination"
        );
        let got = cluster
            .call(
                b,
                "ctr-rt",
                workloads::COUNTER_SERVICE,
                "incr",
                &Value::Null,
            )
            .expect("state survived migration");
        assert_eq!(got, Value::Int(4), "count persisted across the hop");
        cluster.shutdown();
    }

    /// `await_running` answers from the worker: at once for an instance
    /// already running (even with a zero timeout), and `false` — never
    /// before the timeout — for a name that is never deployed.
    #[test]
    fn await_running_answers_at_once_or_at_its_deadline() {
        let cluster = two_node_cluster();
        let a = cluster.ids()[0];
        cluster
            .deploy(a, workloads::counter_instance("acme", "ctr-await"))
            .expect("deploy accepted");
        assert!(cluster.await_running(a, "ctr-await", Duration::from_secs(10)));
        assert!(
            cluster.await_running(a, "ctr-await", Duration::ZERO),
            "already running: no wait needed"
        );
        let start = Instant::now();
        assert!(cluster.await_running(a, "ctr-await", Duration::from_secs(30)));
        assert!(start.elapsed() < Duration::from_secs(10));

        let timeout = Duration::from_millis(60);
        let start = Instant::now();
        assert!(!cluster.await_running(a, "never-deployed", timeout));
        assert!(start.elapsed() >= timeout, "released before its timeout");
        cluster.shutdown();
    }

    /// A waiter still pending at shutdown is released, not left hanging.
    #[test]
    fn shutdown_releases_pending_waiters() {
        let cluster = two_node_cluster();
        let a = cluster.ids()[0];
        let (tx, rx) = channel();
        let deadline = cluster.now() + dosgi_net::SimDuration::from_secs(600);
        cluster.post(
            a,
            Command::AwaitRunning("never-deployed".into(), deadline, tx),
        );
        // The worker has registered the waiter once it answers a later
        // command from the same inbox.
        assert!(!cluster.probe(a, "never-deployed"));
        cluster.shutdown();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        );
    }

    /// The command plane answers health queries: an idle healthy cluster
    /// scores `Ok` on every node, and the scoreboard is indexed like `ids`.
    #[test]
    fn health_scoreboard_over_command_plane() {
        let cluster = two_node_cluster();
        let a = cluster.ids()[0];
        cluster
            .deploy(a, workloads::counter_instance("acme", "ctr-health"))
            .expect("deploy accepted");
        assert!(cluster.await_running(a, "ctr-health", Duration::from_secs(10)));
        let board = cluster.health_scoreboard();
        assert_eq!(board.len(), cluster.ids().len());
        for (i, h) in board.iter().enumerate() {
            assert_eq!(*h, HealthState::Ok, "idle node {i} must be healthy");
        }
        assert_eq!(cluster.health(a), HealthState::Ok);
        cluster.shutdown();
    }

    /// Satellite: two genuinely concurrent client threads — one migrating an
    /// instance back and forth, one hammering registry lookups through a
    /// `RegistryReader` — must finish without deadlock or panic. This is the
    /// interleaving the sharded COW registry exists for.
    #[test]
    fn concurrent_migrate_and_lookup_survive() {
        let cluster = two_node_cluster();
        let [a, b] = [cluster.ids()[0], cluster.ids()[1]];
        cluster
            .deploy(a, workloads::counter_instance("acme", "kv-hot"))
            .expect("deploy accepted");
        assert!(cluster.await_running(a, "kv-hot", Duration::from_secs(10)));

        let reader_a = cluster.registry_reader(a);
        let reader_b = cluster.registry_reader(b);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let lookup_stop = stop.clone();
        let lookups = std::thread::spawn(move || {
            let mut sweeps = 0u64;
            let mut done = false;
            while !done {
                done = lookup_stop.load(std::sync::atomic::Ordering::Relaxed);
                for reader in [&reader_a, &reader_b] {
                    for interface in [workloads::LOG_SERVICE, workloads::COUNTER_SERVICE] {
                        for svc in reader.lookup(interface).iter() {
                            std::hint::black_box(&svc.interfaces);
                        }
                    }
                }
                sweeps += 1;
            }
            sweeps
        });

        let mut here = a;
        for _ in 0..4 {
            let to = if here == a { b } else { a };
            cluster
                .migrate(here, "kv-hot", to)
                .expect("migrate accepted");
            assert!(
                cluster.await_running(to, "kv-hot", Duration::from_secs(10)),
                "migration must converge while lookups run"
            );
            here = to;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let sweeps = lookups.join().expect("lookup thread survives");
        assert!(sweeps > 0, "lookup thread must have made progress");
        cluster.shutdown();
    }
}
