//! Allocation gate for the simulator's steady state: once every key has
//! been seen, a request through the cluster, a driver step without a
//! scrape, a telemetry-free step in which the nodes sample their instances
//! and an admission through a telemetry-free director allocate a pinned,
//! small number of times.
//!
//! Allocation counts are deterministic for a seeded run, so the ceilings
//! are tight: each is the count measured when they were set, plus at most
//! one. A change that adds an allocation to one of these paths fails here
//! before it shows up as CPU time in a benchmark.

use dosgi_core::{workloads, ClusterConfig, DosgiCluster};
use dosgi_ipvs::{replicated_service, AdmissionConfig, IpvsDirector, RequestClass, Scheduler};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SocketAddr};
use dosgi_san::Value;
use dosgi_telemetry::{ScrapeConfig, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) per thread, so the test
/// harness's own threads never show up in a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Mean allocations per call of `call` averaged over 1,000 requests.
const CALL_CEILING: f64 = 3.0;
/// Mean allocations per driver step that runs no scrape.
const STEP_CEILING: f64 = 5.0;
/// Mean allocations per driver step in which the nodes sample their
/// instances, with telemetry disabled and no autonomic policy. Every such
/// step is also a heartbeat step, whose two allocations per node (the
/// group endpoint's) are all it makes: the sample itself adds none.
const SAMPLE_STEP_CEILING: f64 = 8.0;
/// Mean allocations per admission with telemetry disabled.
const ADMIT_CEILING: f64 = 0.0;

const NODES: usize = 4;
const TENANTS: usize = 12;

fn tenant(t: usize) -> String {
    format!("tenant-{t:02}")
}

/// A warmed-up 4-node cluster with 12 write-through counters that have
/// each served requests, so every metric, series, SLA track, monitored
/// subject and data-area key already exists. Observability (series and
/// SLOs) is on whenever `telemetry` is.
fn warm_cluster(config: ClusterConfig, telemetry: Telemetry) -> (DosgiCluster, Vec<String>) {
    let observe = telemetry.is_enabled();
    let mut c = DosgiCluster::new_with_telemetry(NODES, config, 7, telemetry);
    if observe {
        c.enable_observability(ScrapeConfig::default(), DosgiCluster::default_slos());
    }
    c.run_for(SimDuration::from_millis(500));
    let names: Vec<String> = (0..TENANTS).map(tenant).collect();
    for (t, name) in names.iter().enumerate() {
        let desc =
            workloads::counter_instance_with("tenant", name, workloads::COUNTER_WRITE_THROUGH);
        c.deploy(desc, t % NODES).expect("deploy");
    }
    c.run_for(SimDuration::from_secs(2));
    for i in 0..2 * TENANTS {
        c.call(
            &names[i % TENANTS],
            workloads::COUNTER_SERVICE,
            "incr",
            &Value::Null,
        )
        .expect("serving");
    }
    c.run_for(SimDuration::from_secs(2));
    (c, names)
}

#[test]
fn cluster_calls_and_steps_stay_under_their_allocation_ceilings() {
    let (mut c, names) = warm_cluster(ClusterConfig::default(), Telemetry::new());

    let (call_allocs, ()) = allocs(|| {
        for i in 0..1_000 {
            let reply = c.call(
                &names[i % TENANTS],
                workloads::COUNTER_SERVICE,
                "incr",
                &Value::Null,
            );
            assert!(reply.is_ok(), "{reply:?}");
        }
    });
    let per_call = call_allocs as f64 / 1_000.0;

    let tick = ClusterConfig::default().tick;
    let (mut steps, mut step_allocs) = (0u64, 0u64);
    while steps < 500 {
        let scrape = c
            .scraper()
            .is_some_and(|s| s.due((c.now() + tick).as_micros()));
        let (n, ()) = allocs(|| c.step());
        if !scrape {
            steps += 1;
            step_allocs += n;
        }
    }
    let per_step = step_allocs as f64 / steps as f64;

    eprintln!("allocations: {per_call:.3} per call, {per_step:.3} per step without a scrape");
    assert!(
        per_call <= CALL_CEILING,
        "{per_call:.3} allocations per call exceed the ceiling of {CALL_CEILING}"
    );
    assert!(
        per_step <= STEP_CEILING,
        "{per_step:.3} allocations per step exceed the ceiling of {STEP_CEILING}"
    );
}

#[test]
fn sampling_steps_without_telemetry_stay_under_their_allocation_ceiling() {
    // The autonomic module evaluates on a multiple of the sample period;
    // leaving it out keeps its work out of the sampling steps.
    let mut config = ClusterConfig::default();
    config.node.policy = None;
    let (mut c, names) = warm_cluster(config, Telemetry::disabled());
    // `tenant-00` lives on node 0; its window closes on every sample.
    let sampled_at = |c: &DosgiCluster| {
        c.node(0)
            .and_then(|n| n.monitor().latest(&names[0]))
            .map(|w| w.at)
    };
    let (mut samples, mut sample_allocs) = (0u64, 0u64);
    while samples < 20 {
        let before = sampled_at(&c);
        let (n, ()) = allocs(|| c.step());
        if sampled_at(&c) != before {
            samples += 1;
            sample_allocs += n;
        }
    }
    let per_sample = sample_allocs as f64 / samples as f64;
    eprintln!("allocations: {per_sample:.3} per sampling step without telemetry");
    assert!(
        per_sample <= SAMPLE_STEP_CEILING,
        "{per_sample:.3} allocations per sampling step exceed the ceiling of {SAMPLE_STEP_CEILING}"
    );
}

#[test]
fn admission_without_telemetry_does_not_allocate() {
    const VIP: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 90), Port(80));
    let mut d = IpvsDirector::new();
    let backends: Vec<NodeId> = (0..NODES as u32).map(NodeId).collect();
    d.add_service(
        replicated_service(VIP, Scheduler::RoundRobin, &backends)
            .with_admission(AdmissionConfig::per_second(500, 64)),
    );
    let mut now_us = 0;
    let mut admit_allocs = 0;
    for client in 0..4_000u64 {
        now_us += 500;
        let class = RequestClass::ALL[(client % 3) as usize];
        let (n, admitted) = allocs(|| d.admit(client, VIP, class, now_us));
        assert!(admitted.is_ok(), "{admitted:?}");
        // The first thousand grow the queues to their working depth.
        if client >= 1_000 {
            admit_allocs += n;
        }
        d.drain(VIP, now_us);
    }
    let per_admit = admit_allocs as f64 / 3_000.0;
    eprintln!("allocations: {per_admit:.3} per admission");
    assert!(
        per_admit <= ADMIT_CEILING,
        "{per_admit:.3} allocations per admission exceed the ceiling of {ADMIT_CEILING}"
    );
}
