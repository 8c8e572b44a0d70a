//! `serve`: open-loop request traffic on the real-clock runtime.
//!
//! One stateless web service is replicated on both nodes of a 2-node
//! [`RealCluster`] behind one VIP; each web request is routed by
//! [`IpvsDirector::connect`]/[`release`](IpvsDirector::release) and sent
//! with [`RealCluster::call`] to the chosen replica. Zipf-popular
//! write-through counter tenants are called on their home node, so every
//! counter request is a hot-key SAN overwrite. One client thread issues
//! requests on a fixed schedule (open loop). Latency runs from sending a
//! request to its reply. How late each request was sent against the
//! schedule is kept apart, as `gen.late_ratio`: on a shared virtual
//! machine that lateness is the host descheduling the guest's idle CPUs
//! for milliseconds at a time, not the system under test.

use crate::report::{
    backend_delta, idle_cores, set_up_repeatedly, store_delta, EndToEnd, Layers, Outcome, Probe,
    Slice, SLICE_LEN,
};
use crate::timed_store::{BackendCounters, TimedBackend};
use crate::trace::Tracer;
use crate::{alloc, Args};
use dosgi_core::loadgen::ZipfSampler;
use dosgi_core::{workloads, NodeConfig, RealCluster};
use dosgi_ipvs::{replicated_service, IpvsDirector, Scheduler};
use dosgi_net::{IpAddr, NodeId, Port, SocketAddr};
use dosgi_san::{BackendKind, SharedStore, Value};
use dosgi_testkit::rng::{mix_seed, TestRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VIP: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 80), Port(80));
/// Fixed offered rate: one request per millisecond, well under the
/// ~4,000/s a synchronous caller manages at a ~250 µs round trip.
const INTERVAL: Duration = Duration::from_millis(1);
/// Counter tenants, Zipf-popular (exponent 1.0).
const TENANTS: usize = 12;
/// Share of requests that go to the web service through the VIP.
const WEB_SHARE: f64 = 0.5;
/// A request whose reply takes longer than this misses goodput.
const LIMIT: Duration = Duration::from_millis(20);
/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUPS: usize = 15;
/// Unmeasured traffic before the window, so lazy set-up is done.
const WARMUP: Duration = Duration::from_millis(500);
const SETTLE: Duration = Duration::from_secs(20);

/// One generated request.
#[derive(Debug, Clone, Copy)]
enum Request {
    /// A web request charging `work_us` of modeled CPU.
    Web { work_us: i64 },
    /// An increment of counter tenant `tenant`.
    Counter { tenant: usize },
}

/// The seeded request stream.
struct Generator {
    rng: TestRng,
    zipf: ZipfSampler,
}

impl Generator {
    fn new(seed: u64) -> Self {
        Generator {
            rng: TestRng::new(mix_seed(seed, 1)),
            zipf: ZipfSampler::new(TENANTS, 1.0, mix_seed(seed, 2)),
        }
    }

    fn next(&mut self) -> Request {
        if self.rng.chance(WEB_SHARE) {
            Request::Web {
                work_us: self.rng.i64_in(50, 200),
            }
        } else {
            Request::Counter {
                tenant: self.zipf.sample(),
            }
        }
    }
}

fn web_name(node: NodeId) -> String {
    format!("web-{}", node.0)
}

fn tenant_name(t: usize) -> String {
    format!("ctr-{t:02}")
}

/// A cluster ready to serve, with what the checks need to know about it.
struct Served {
    cluster: RealCluster,
    backend: Option<Arc<BackendCounters>>,
    director: IpvsDirector,
    home: Vec<NodeId>,
    /// Increments acknowledged per tenant.
    expected: Vec<i64>,
    /// Requests each web replica has served, indexed by node.
    served: Vec<i64>,
}

fn setup(timed: bool) -> Result<Served, String> {
    let (store, backend) = if timed {
        let (b, counters) = TimedBackend::new(BackendKind::Map.build());
        (SharedStore::with_backend(Box::new(b)), Some(counters))
    } else {
        (SharedStore::with_kind(BackendKind::Map), None)
    };
    let cluster = RealCluster::with_store(2, NodeConfig::default(), store);
    let nodes = cluster.ids().to_vec();
    let mut placed = Vec::new();
    for &n in &nodes {
        cluster
            .deploy(n, workloads::web_instance("web", &web_name(n)))
            .map_err(|e| format!("deploy web on {n}: {e}"))?;
        placed.push((n, web_name(n)));
    }
    let home: Vec<NodeId> = (0..TENANTS).map(|t| nodes[t % nodes.len()]).collect();
    for (t, &n) in home.iter().enumerate() {
        let desc = workloads::counter_instance_with(
            "tenant",
            &tenant_name(t),
            workloads::COUNTER_WRITE_THROUGH,
        );
        cluster
            .deploy(n, desc)
            .map_err(|e| format!("deploy {}: {e}", tenant_name(t)))?;
        placed.push((n, tenant_name(t)));
    }
    for (n, name) in &placed {
        if !cluster.await_running(*n, name, SETTLE) {
            return Err(format!("{name} not serving on {n} after {SETTLE:?}"));
        }
    }
    let mut director = IpvsDirector::new();
    director.add_service(replicated_service(VIP, Scheduler::RoundRobin, &nodes));
    Ok(Served {
        cluster,
        backend,
        director,
        home,
        expected: vec![0; TENANTS],
        served: vec![0; nodes.len()],
    })
}

/// What one stretch of the schedule produced.
#[derive(Default)]
struct Stretch {
    ops: u64,
    failed: u64,
    good: u64,
    latencies_us: Vec<f64>,
    busy_ns: u64,
    late_ns: u64,
}

impl Served {
    /// Sends one request and checks its reply. `Err` is a wrong result,
    /// `Ok(false)` a failed call.
    fn request(&mut self, client: u64, req: Request, tracer: &mut Tracer) -> Result<bool, String> {
        match req {
            Request::Web { work_us } => {
                let node = match tracer.span("ipvs.connect", || self.director.connect(client, VIP))
                {
                    Ok(n) => n,
                    Err(_) => return Ok(false),
                };
                let arg = Value::map().with("work_us", work_us);
                let name = web_name(node);
                let reply = tracer.span("core.rt.call", || {
                    self.cluster
                        .call(node, &name, workloads::WEB_SERVICE, "handle", &arg)
                });
                tracer.span("ipvs.release", || self.director.release(client, VIP));
                let Ok(reply) = reply else { return Ok(false) };
                let served = &mut self.served[node.index()];
                *served += 1;
                let status = reply.get("status").and_then(Value::as_int);
                let count = reply.get("served").and_then(Value::as_int);
                if status != Some(200) || count != Some(*served) {
                    return Err(format!(
                        "{name}: reply {reply:?}, expected status 200 and served {served}"
                    ));
                }
            }
            Request::Counter { tenant } => {
                let name = tenant_name(tenant);
                let home = self.home[tenant];
                let reply = tracer.span("core.rt.call", || {
                    self.cluster.call(
                        home,
                        &name,
                        workloads::COUNTER_SERVICE,
                        "incr",
                        &Value::Null,
                    )
                });
                let Ok(reply) = reply else { return Ok(false) };
                self.expected[tenant] += 1;
                if reply != Value::Int(self.expected[tenant]) {
                    return Err(format!(
                        "{name}: incr returned {reply:?}, expected {}",
                        self.expected[tenant]
                    ));
                }
            }
        }
        Ok(true)
    }

    /// Runs the schedule for `len`, numbering requests from `*next`.
    fn drive(
        &mut self,
        len: Duration,
        gen: &mut Generator,
        next: &mut u64,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Stretch {
        let mut s = Stretch::default();
        let t0 = Instant::now();
        for i in 0.. {
            let due = t0 + INTERVAL * i;
            if due - t0 >= len {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            let client = *next;
            *next += 1;
            let op = tracer.begin_op(client);
            let req = tracer.span("loadgen.sample", || gen.next());
            let result = self.request(client, req, tracer);
            tracer.exit(op);
            let done = Instant::now();
            let ok = match result {
                Ok(ok) => ok,
                Err(v) => {
                    out.violation(v);
                    false
                }
            };
            let latency = done - start;
            s.ops += 1;
            s.failed += u64::from(!ok);
            s.good += u64::from(ok && latency <= LIMIT);
            s.latencies_us.push(latency.as_nanos() as f64 / 1e3);
            s.busy_ns += latency.as_nanos() as u64;
            s.late_ns += (start - due).as_nanos() as u64;
        }
        s
    }

    /// End-of-run check: every counter holds exactly its acknowledged
    /// increments.
    fn check_counts(&self, out: &mut Outcome) {
        for (t, &want) in self.expected.iter().enumerate() {
            let name = tenant_name(t);
            match self.cluster.call(
                self.home[t],
                &name,
                workloads::COUNTER_SERVICE,
                "get",
                &Value::Null,
            ) {
                Ok(v) if v == Value::Int(want) => {}
                other => out.violation(format!("{name}: final count {other:?}, expected {want}")),
            }
        }
    }
}

/// Runs the `serve` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setups_s) = match set_up_repeatedly(SETUPS, || setup(args.trace)) {
        Ok(built) => built,
        Err(e) => {
            out.violation(format!("set-up: {e}"));
            return out;
        }
    };
    let mut gen = Generator::new(args.seed);
    let mut tracer = Tracer::new(false);
    let mut next = 0;

    if args.trace {
        out.layers.idle_cores = idle_cores();
    }
    let warm = s.drive(WARMUP, &mut gen, &mut next, &mut tracer, &mut out);

    if args.trace {
        let half = args.seconds / 2;
        let plain = s.drive(half, &mut gen, &mut next, &mut tracer, &mut out);
        tracer.set_on(true);
        alloc::set_enabled(true);
        let counters = s.backend.clone().expect("traced runs time the backend");
        let backend0 = counters.read();
        let san0 = s.cluster.store().stats();
        let probe = Probe::start();
        let traced = s.drive(half, &mut gen, &mut next, &mut tracer, &mut out);
        let window = probe.finish(traced.ops);
        alloc::set_enabled(false);
        let per_op = |st: &Stretch| st.busy_ns as f64 / st.ops as f64;
        out.layers = Layers {
            window,
            breakdown: tracer.breakdown().clone(),
            overhead_ratio: per_op(&traced) / per_op(&plain),
            late_ratio: traced.late_ns as f64 / traced.ops as f64 / INTERVAL.as_nanos() as f64,
            backend: backend_delta(backend0, &counters),
            san: store_delta(san0, s.cluster.store().stats()),
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
        // Whole seconds, one slice each: the schedule continues across
        // slice boundaries at the same rate.
        for _ in 0..args.seconds.as_secs() {
            let probe = Probe::start();
            let st = s.drive(SLICE_LEN, &mut gen, &mut next, &mut tracer, &mut out);
            let window = probe.finish(st.ops);
            out.attempted += st.ops;
            out.failed += st.failed;
            e2e.offered += st.ops;
            e2e.good += st.good;
            e2e.slices.push(Slice {
                latencies_us: st.latencies_us,
                window,
            });
        }
        out.end_to_end = e2e;
    }
    s.check_counts(&mut out);
    s.cluster.shutdown();
    out
}
