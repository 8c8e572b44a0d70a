//! `migrate`: the operator's migration, closed loop, on the real-clock
//! runtime.
//!
//! Write-through counters, each carrying a fixed persisted data area of
//! 32 KiB (1 KiB rows in the bundle's data namespace), move back and forth
//! between the two nodes of a [`RealCluster`], one migration in flight.
//! A round is [`RealCluster::migrate`], then
//! [`await_running`](RealCluster::await_running) at the destination, then
//! an increment there that must return the expected count.

use crate::report::{
    backend_delta, idle_cores, merge_short_tail, set_up_repeatedly, store_delta, EndToEnd, Layers,
    Outcome, Probe, Slice, SLICE_LEN, SLICE_OPS,
};
use crate::timed_store::{BackendCounters, TimedBackend};
use crate::trace::Tracer;
use crate::{alloc, Args};
use dosgi_core::{workloads, NodeConfig, RealCluster};
use dosgi_net::NodeId;
use dosgi_san::{BackendKind, SharedStore, Value};
use dosgi_testkit::rng::{mix_seed, TestRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const COUNTERS: usize = 4;
/// Rows of persisted data per counter, and bytes per row.
const ROWS: usize = 32;
const ROW_BYTES: usize = 1024;
/// A round slower than this misses goodput.
const LIMIT: Duration = Duration::from_millis(500);
const SETUPS: usize = 15;
const WARMUP_ROUNDS: usize = 4;
const SETTLE: Duration = Duration::from_secs(20);

fn name(c: usize) -> String {
    format!("mig-{c}")
}

fn data_namespace(c: usize) -> String {
    format!(
        "instance/{}/data/{}",
        name(c),
        workloads::COUNTER_WRITE_THROUGH
    )
}

/// The seeded data area of every counter.
fn data_rows(seed: u64) -> Vec<Vec<(String, Value)>> {
    let mut rng = TestRng::new(mix_seed(seed, 3));
    (0..COUNTERS)
        .map(|_| {
            (0..ROWS)
                .map(|r| {
                    let mut row = vec![0u8; ROW_BYTES];
                    rng.fill_bytes(&mut row);
                    (format!("row-{r:03}"), Value::Bytes(row))
                })
                .collect()
        })
        .collect()
}

struct Migrating {
    cluster: RealCluster,
    backend: Option<Arc<BackendCounters>>,
    home: Vec<NodeId>,
    expected: Vec<i64>,
    rows: Vec<Vec<(String, Value)>>,
    rng: TestRng,
    /// Modeled adoption delay per counter, ns.
    modeled_ns: u64,
}

fn setup(seed: u64, timed: bool) -> Result<Migrating, String> {
    let (store, backend) = if timed {
        let (b, counters) = TimedBackend::new(BackendKind::Map.build());
        (SharedStore::with_backend(Box::new(b)), Some(counters))
    } else {
        (SharedStore::with_kind(BackendKind::Map), None)
    };
    let config = NodeConfig::default();
    let cluster = RealCluster::with_store(2, config.clone(), store);
    let nodes = cluster.ids().to_vec();
    let home: Vec<NodeId> = (0..COUNTERS).map(|c| nodes[c % nodes.len()]).collect();
    let rows = data_rows(seed);
    for (c, &n) in home.iter().enumerate() {
        let desc =
            workloads::counter_instance_with("ops", &name(c), workloads::COUNTER_WRITE_THROUGH);
        cluster
            .deploy(n, desc)
            .map_err(|e| format!("deploy {}: {e}", name(c)))?;
    }
    for (c, &n) in home.iter().enumerate() {
        if !cluster.await_running(n, &name(c), SETTLE) {
            return Err(format!("{} not serving on {n} after {SETTLE:?}", name(c)));
        }
        cluster
            .store()
            .put_many(&data_namespace(c), &rows[c])
            .map_err(|e| format!("write data area of {}: {e}", name(c)))?;
    }
    // What the node charges to adopt one counter: a SAN read of its state
    // plus one bundle start (see `NodeConfig`).
    let state_bytes = cluster
        .store()
        .namespace_bytes_prefixed(&format!("instance/{}", name(0)));
    let modeled = config.san.read_cost(state_bytes) + config.start_cost_per_bundle;
    Ok(Migrating {
        cluster,
        backend,
        home,
        expected: vec![0; COUNTERS],
        rows,
        rng: TestRng::new(mix_seed(seed, 4)),
        modeled_ns: modeled.as_micros() * 1_000,
    })
}

#[derive(Default)]
struct Rounds {
    ops: u64,
    failed: u64,
    good: u64,
    latencies_us: Vec<f64>,
    busy_ns: u64,
    converge_ns: u64,
}

impl Migrating {
    /// One round: migrate, converge, verify. `Err` is a wrong result,
    /// `Ok(None)` a failed round, `Ok(Some(ns))` the convergence time.
    fn round(&mut self, tracer: &mut Tracer) -> Result<Option<u64>, String> {
        let c = self.rng.usize_in(0, COUNTERS - 1);
        let n = name(c);
        let from = self.home[c];
        let to = *self
            .cluster
            .ids()
            .iter()
            .find(|&&id| id != from)
            .expect("two nodes");
        if tracer
            .span("core.rt.migrate", || self.cluster.migrate(from, &n, to))
            .is_err()
        {
            return Ok(None);
        }
        let t0 = Instant::now();
        let up = tracer.span("core.rt.await_running", || {
            self.cluster.await_running(to, &n, SETTLE)
        });
        let converge = t0.elapsed().as_nanos() as u64;
        if !up {
            return Ok(None);
        }
        self.home[c] = to;
        let reply = tracer.span("core.rt.call", || {
            self.cluster
                .call(to, &n, workloads::COUNTER_SERVICE, "incr", &Value::Null)
        });
        let Ok(reply) = reply else { return Ok(None) };
        self.expected[c] += 1;
        if reply != Value::Int(self.expected[c]) {
            return Err(format!(
                "{n}: incr after migration returned {reply:?}, expected {}",
                self.expected[c]
            ));
        }
        Ok(Some(converge))
    }

    fn drive(
        &mut self,
        until: impl Fn(u64) -> bool,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Rounds {
        let mut r = Rounds::default();
        while !until(r.ops) {
            let start = Instant::now();
            let op = tracer.begin_op(r.ops);
            let result = self.round(tracer);
            tracer.exit(op);
            let took = start.elapsed();
            let converge = match result {
                Ok(c) => c,
                Err(v) => {
                    out.violation(v);
                    None
                }
            };
            r.ops += 1;
            r.failed += u64::from(converge.is_none());
            r.good += u64::from(converge.is_some() && took <= LIMIT);
            r.latencies_us.push(took.as_nanos() as f64 / 1e3);
            r.busy_ns += took.as_nanos() as u64;
            r.converge_ns += converge.unwrap_or(0);
        }
        r
    }

    /// End-of-run check: counts and data areas intact wherever each
    /// counter lives now.
    fn check(&self, out: &mut Outcome) {
        for c in 0..COUNTERS {
            let n = name(c);
            match self.cluster.call(
                self.home[c],
                &n,
                workloads::COUNTER_SERVICE,
                "get",
                &Value::Null,
            ) {
                Ok(v) if v == Value::Int(self.expected[c]) => {}
                other => out.violation(format!(
                    "{n}: final count {other:?}, expected {}",
                    self.expected[c]
                )),
            }
            // The namespace also holds the counter's own `count` row.
            match self.cluster.store().read_namespace(&data_namespace(c)) {
                Ok(mut rows) => {
                    rows.retain(|(k, _)| k.starts_with("row-"));
                    if rows != self.rows[c] {
                        out.violation(format!("{n}: data area changed ({} rows)", rows.len()));
                    }
                }
                Err(e) => out.violation(format!("{n}: data area unreadable: {e}")),
            }
        }
    }
}

/// Runs the `migrate` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut m, setups_s) = match set_up_repeatedly(SETUPS, || setup(args.seed, args.trace)) {
        Ok(built) => built,
        Err(e) => {
            out.violation(format!("set-up: {e}"));
            return out;
        }
    };
    let mut tracer = Tracer::new(false);

    if args.trace {
        out.layers.idle_cores = idle_cores();
    }
    let warm = m.drive(|ops| ops >= WARMUP_ROUNDS as u64, &mut tracer, &mut out);

    if args.trace {
        let half = args.seconds / 2;
        let t0 = Instant::now();
        let plain = m.drive(|_| t0.elapsed() >= half, &mut tracer, &mut out);
        tracer.set_on(true);
        alloc::set_enabled(true);
        let counters = m.backend.clone().expect("traced runs time the backend");
        let backend0 = counters.read();
        let san0 = m.cluster.store().stats();
        let probe = Probe::start();
        let traced = m.drive(|_| probe.elapsed() >= half, &mut tracer, &mut out);
        let window = probe.finish(traced.ops);
        alloc::set_enabled(false);
        let per_op = |r: &Rounds| r.busy_ns as f64 / r.ops as f64;
        let modeled = m.modeled_ns * (traced.ops - traced.failed);
        out.layers = Layers {
            window,
            breakdown: tracer.breakdown().clone(),
            overhead_ratio: per_op(&traced) / per_op(&plain),
            backend: backend_delta(backend0, &counters),
            san: store_delta(san0, m.cluster.store().stats()),
            converge_overhead_share: traced.converge_ns.saturating_sub(modeled) as f64
                / traced.converge_ns.max(1) as f64,
            ..std::mem::take(&mut out.layers)
        };
        out.attempted = warm.ops + plain.ops + traced.ops;
        out.failed = warm.failed + plain.failed + traced.failed;
    } else {
        out.attempted = warm.ops;
        out.failed = warm.failed;
        let mut e2e = EndToEnd {
            setups_s,
            ..EndToEnd::default()
        };
        let run = Instant::now();
        while run.elapsed() < args.seconds {
            let probe = Probe::start();
            let r = m.drive(
                |ops| {
                    (ops >= SLICE_OPS as u64 && probe.elapsed() >= SLICE_LEN)
                        || run.elapsed() >= args.seconds
                },
                &mut tracer,
                &mut out,
            );
            let window = probe.finish(r.ops);
            out.attempted += r.ops;
            out.failed += r.failed;
            e2e.offered += r.ops;
            e2e.good += r.good;
            e2e.slices.push(Slice {
                latencies_us: r.latencies_us,
                window,
            });
        }
        merge_short_tail(&mut e2e.slices);
        out.end_to_end = e2e;
    }
    m.check(&mut out);
    m.cluster.shutdown();
    out
}
