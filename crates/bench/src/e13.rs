//! **E13 measurement harness** — real-clock throughput, shared between the
//! `e13_throughput` experiment binary and the CI `perf_guard`.
//!
//! Everything here is **wall-clock**: the point of E13 is that the
//! real-clock runtime hosts genuinely concurrent nodes, so the numbers are
//! honest thread-overlap measurements, not simulated-time projections. On
//! the single-core CI container the scaling comes from *latency overlap*
//! (protocol rounds and paced clients spend most of their time waiting, so
//! T concurrent streams finish ~T× the work per wall second), which is
//! exactly the claim a multi-tenant runtime needs.
//!
//! Three instruments:
//!
//! * [`migration_ops_per_sec`] — T independent 2-node [`RealCluster`]s,
//!   each ping-ponging a stateful counter instance between its nodes.
//!   One "op" is a full migrate → re-materialize → running-confirmed
//!   round (the destination's worker answers `await_running` at the first
//!   tick after which the instance runs).
//! * [`admission_ops_per_sec`] — T paced open-loop clients, each driving
//!   its own admission-controlled VIP off the shared monotonic clock.
//! * [`admission_tight_ops_per_sec`] — the sim-vs-real control: one
//!   thread, no pacing, identical op mix; the only difference is where
//!   `now` comes from (a virtual counter vs the real clock). The real
//!   variant must not regress: the runtime abstraction adds no hot-path
//!   cost.
//!
//! Plus [`optimization_wins`]: before/after micro-measurements of the
//! three PR-9 hot-path optimizations (zero-copy wire decode, scratch-reuse
//! wire encode, pre-sized SAN codec, sharded registry reads).

use dosgi_core::{workloads, NodeConfig, RealCluster};
use dosgi_gcs::{decode_frame, decode_frame_borrowed, encode_frame_at, encode_frame_into_at};
use dosgi_ipvs::{replicated_service, AdmissionConfig, IpvsDirector, RequestClass, Scheduler};
use dosgi_net::{Clock, IpAddr, NodeId, Port, RealClock, SocketAddr};
use dosgi_osgi::{BundleId, CallContext, PropValue, ServiceRegistry};
use dosgi_san::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Aggregate ops/sec over per-thread (ops, elapsed) samples: each thread
/// contributes its own rate, so one straggler does not skew the rest.
fn aggregate(samples: &[(u64, Duration)]) -> f64 {
    samples
        .iter()
        .map(|(ops, el)| *ops as f64 / el.as_secs_f64().max(1e-9))
        .sum()
}

/// T independent 2-node real-clock clusters, each migrating one counter
/// instance back and forth for `window`. Returns aggregate completed
/// migration rounds per second.
pub fn migration_ops_per_sec(threads: usize, window: Duration) -> f64 {
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let cluster = RealCluster::new(2, NodeConfig::default());
                let (a, b) = (cluster.ids()[0], cluster.ids()[1]);
                let name = format!("mig-{t}");
                cluster
                    .deploy(a, workloads::counter_instance("bench", &name))
                    .expect("deploy accepted");
                assert!(
                    cluster.await_running(a, &name, Duration::from_secs(20)),
                    "instance must settle before the timed window"
                );
                barrier.wait();
                let start = Instant::now();
                let mut here = a;
                let mut rounds = 0u64;
                while start.elapsed() < window {
                    let to = if here == a { b } else { a };
                    cluster.migrate(here, &name, to).expect("migrate accepted");
                    assert!(
                        cluster.await_running(to, &name, Duration::from_secs(20)),
                        "migration must converge"
                    );
                    here = to;
                    rounds += 1;
                }
                let elapsed = start.elapsed();
                cluster.shutdown();
                (rounds, elapsed)
            })
        })
        .collect();
    let samples: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("migration thread survives"))
        .collect();
    aggregate(&samples)
}

fn class_for(c: u64) -> RequestClass {
    match c % 10 {
        0 => RequestClass::Critical,
        1..=6 => RequestClass::Standard,
        _ => RequestClass::Background,
    }
}

/// T paced open-loop admission clients (one VIP + director each), stamping
/// request times from the shared real clock. One "op" is an
/// admit-or-shed decision; completed work drains as real time passes.
/// Returns aggregate decisions per second.
pub fn admission_ops_per_sec(threads: usize, window: Duration) -> f64 {
    /// Inter-arrival pace per client: 50µs → ~20k decisions/s/thread of
    /// mostly-waiting work, so threads overlap instead of contending.
    const PACE: Duration = Duration::from_micros(50);
    let clock = RealClock::default();
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let barrier = barrier.clone();
            let clock = clock.clone();
            std::thread::spawn(move || {
                let vip = SocketAddr::new(IpAddr::new(10, 0, 13, t as u8 + 1), Port(80));
                let mut d = IpvsDirector::new();
                d.add_service(
                    replicated_service(vip, Scheduler::RoundRobin, &[NodeId(0)])
                        .with_admission(AdmissionConfig::per_second(2_000, 64)),
                );
                barrier.wait();
                let start = Instant::now();
                let mut ops = 0u64;
                let mut client = 0u64;
                while start.elapsed() < window {
                    client += 1;
                    let now_us = clock.now().as_micros();
                    let _ = d.admit(client, vip, class_for(client), now_us);
                    ops += 1;
                    if client.is_multiple_of(8) {
                        black_box(d.drain(vip, now_us).len());
                    }
                    std::thread::sleep(PACE);
                }
                (ops, start.elapsed())
            })
        })
        .collect();
    let samples: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("admission thread survives"))
        .collect();
    aggregate(&samples)
}

/// Single-thread, unpaced admission loop: identical op mix, with `now`
/// taken from a virtual 500µs-per-op counter (`real_clock = false`, the
/// simulator's view of time) or from the monotonic [`RealClock`]
/// (`real_clock = true`). Comparing the two isolates the cost of the
/// real-clock abstraction itself on the hot path.
pub fn admission_tight_ops_per_sec(real_clock: bool, window: Duration) -> f64 {
    let vip = SocketAddr::new(IpAddr::new(10, 0, 14, 1), Port(80));
    let mut d = IpvsDirector::new();
    d.add_service(
        replicated_service(vip, Scheduler::RoundRobin, &[NodeId(0)])
            .with_admission(AdmissionConfig::per_second(2_000, 64)),
    );
    let clock = RealClock::default();
    let mut virtual_us = 0u64;
    let start = Instant::now();
    let mut ops = 0u64;
    let mut client = 0u64;
    while start.elapsed() < window {
        // Check the wall clock once per batch, not per op.
        for _ in 0..256 {
            client += 1;
            let now_us = if real_clock {
                clock.now().as_micros()
            } else {
                virtual_us += 500;
                virtual_us
            };
            let _ = d.admit(client, vip, class_for(client), now_us);
            ops += 1;
            if client.is_multiple_of(8) {
                black_box(d.drain(vip, now_us).len());
            }
        }
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// One before/after micro-measurement: the old allocating path vs the new
/// zero-copy/pre-sized path, in ns per op.
pub struct OptWin {
    /// Which optimization (stable key, used in tables and JSON).
    pub name: &'static str,
    /// ns/op on the pre-PR-9 shape of the code.
    pub old_ns: f64,
    /// ns/op on the optimized path.
    pub new_ns: f64,
}

impl OptWin {
    /// old/new speedup factor.
    pub fn speedup(&self) -> f64 {
        self.old_ns / self.new_ns.max(1e-9)
    }
}

/// Times `f` over enough iterations to be stable, returns ns/op.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Warm up, then scale iterations to ~20ms of work.
    for _ in 0..100 {
        f();
    }
    let probe = Instant::now();
    for _ in 0..100 {
        f();
    }
    let per = probe.elapsed().as_nanos().max(1) as f64 / 100.0;
    let iters = ((20_000_000.0 / per) as u64).clamp(100, 2_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A 4 KiB state-sync-shaped payload inside an `Ordered` frame — the shape
/// the migration hot path pushes through the wire layer.
fn sample_frame() -> (dosgi_gcs::GcsWire<Value>, Vec<u8>) {
    let payload = Value::map()
        .with("instance", "bench/ctr")
        .with("state", Value::Bytes(vec![0xA5u8; 4096]));
    let msg = dosgi_gcs::GcsWire::Ordered {
        gseq: 917,
        origin: NodeId(2),
        origin_inc: 3,
        origin_seq: 88,
        payload,
        trace: None,
    };
    let bytes = encode_frame_at(dosgi_gcs::WIRE_VERSION, &msg, |v: &Value| v.encode());
    (msg, bytes)
}

/// Measures the three PR-9 hot-path optimizations, old shape vs new shape.
pub fn optimization_wins() -> Vec<OptWin> {
    let (msg, bytes) = sample_frame();

    // 1. Wire encode: fresh output Vec + fresh payload Vec per frame (the
    //    old `encode_frame_at` shape) vs scratch reuse + in-place payload.
    let old_encode = time_ns(|| {
        black_box(encode_frame_at(
            dosgi_gcs::WIRE_VERSION,
            black_box(&msg),
            |v: &Value| v.encode(),
        ));
    });
    let mut scratch = Vec::with_capacity(8192);
    let new_encode = time_ns(|| {
        scratch.clear();
        encode_frame_into_at(
            dosgi_gcs::WIRE_VERSION,
            &mut scratch,
            black_box(&msg),
            |v: &Value, out: &mut Vec<u8>| v.encode_into(out),
        );
        black_box(scratch.len());
    });

    // 2. Wire decode: payload copied out of the frame vs borrowed from it.
    let old_decode = time_ns(|| {
        black_box(decode_frame(black_box(&bytes), |b| Some(b.to_vec())));
    });
    let new_decode = time_ns(|| {
        black_box(decode_frame_borrowed(black_box(&bytes)));
    });

    // 3. SAN codec: fresh Vec per encode vs pre-sized reuse.
    let snapshot = Value::map().with("next_bundle", 12u64).with(
        "bundles",
        Value::List(
            (0..10)
                .map(|i| {
                    Value::map()
                        .with("id", i as u64)
                        .with("data", Value::Bytes(vec![7u8; 256]))
                })
                .collect(),
        ),
    );
    let old_san = time_ns(|| {
        black_box(black_box(&snapshot).encode());
    });
    let mut buf = Vec::with_capacity(8192);
    let new_san = time_ns(|| {
        buf.clear();
        black_box(&snapshot).encode_into(&mut buf);
        black_box(buf.len());
    });

    // 4. Registry reads: the exclusive path (every reader takes the one
    //    lock the writers use) vs the sharded copy-on-write reader.
    let registry = Mutex::new(populated_registry());
    let old_registry = time_ns(|| {
        let reg = registry.lock().unwrap();
        black_box(reg.references(black_box(Some("svc.Iface7")), None));
    });
    let reader = registry.lock().unwrap().reader();
    let new_registry = time_ns(|| {
        black_box(reader.lookup(black_box("svc.Iface7")));
    });

    vec![
        OptWin {
            name: "wire_encode_reuse",
            old_ns: old_encode,
            new_ns: new_encode,
        },
        OptWin {
            name: "wire_decode_borrowed",
            old_ns: old_decode,
            new_ns: new_decode,
        },
        OptWin {
            name: "san_encode_into",
            old_ns: old_san,
            new_ns: new_san,
        },
        OptWin {
            name: "registry_reader_lookup",
            old_ns: old_registry,
            new_ns: new_registry,
        },
    ]
}

/// 200 services over 40 interfaces — the standard registry lookup corpus.
pub fn populated_registry() -> ServiceRegistry {
    let mut registry = ServiceRegistry::new();
    for i in 0..200u64 {
        let iface = format!("svc.Iface{}", i % 40);
        let mut props: BTreeMap<String, PropValue> = BTreeMap::new();
        props.insert("service.ranking".into(), PropValue::Int((i % 7) as i64));
        registry.register(
            BundleId(i % 10),
            &[iface.as_str()],
            props,
            Box::new(|_ctx: &mut CallContext<'_>, _m: &str, arg: &Value| Ok(arg.clone())),
        );
    }
    registry
}
