//! `dependability`: the paper's four operations on one seeded simulated
//! timeline.
//!
//! A 4-node [`DosgiCluster`] runs with telemetry and continuous
//! observability on. Open-loop Poisson, class-mixed load goes through an
//! admission-controlled [`IpvsDirector`]; every drained completion is
//! served by [`DosgiCluster::call`] on its Zipf-popular counter tenant.
//! Along the way come periodic operator migrations, one node crash with
//! failover and restart, and one [`UpgradeWave`] hot-swap over all nodes.
//!
//! Clients retry rather than give up, so no request is lost: a request the
//! director refuses, or abandons when its backend crashes, is offered again
//! on the next step, and a call that finds its tenant between homes
//! (failover, migration hand-off) is made again on the next step. Either
//! way it keeps its arrival time, so the wait counts against its class SLO
//! and shows in goodput; what the crash costs is a goodput loss, not a
//! failed operation.
//!
//! The run is a sequence of episodes, each a fresh cluster and a fixed
//! 30 s timeline. The first [`MODEL_EPISODES`] always run, and the modeled
//! outcomes (goodput, failover downtime, swap blackout, hand-off time)
//! come from them alone, so they repeat exactly for a seed. Wall-clock
//! figures come from every episode of the measured window. One operation
//! is one 250 ms scrape period of the timeline: fifty 5 ms driver steps
//! with the traffic and operator actions due in them.

use crate::report::{
    merge_short_tail, EndToEnd, Layers, Model, Outcome, Probe, SimCounts, Slice, Window, SLICE_LEN,
};
use crate::stats;
use crate::trace::Tracer;
use crate::{alloc, Args};
use dosgi_core::loadgen::{ClassMix, RateSchedule, ScheduledLoadGenerator, ZipfSampler};
use dosgi_core::upgrade::{UpgradeWave, WaveHooks};
use dosgi_core::{workloads, ClusterConfig, DosgiCluster};
use dosgi_ipvs::{replicated_service, AdmissionConfig, IpvsDirector, RequestClass, Scheduler};
use dosgi_net::{IpAddr, NodeId, Port, SimDuration, SimTime, SocketAddr};
use dosgi_osgi::Version;
use dosgi_san::Value;
use dosgi_telemetry::{ScrapeConfig, Telemetry, TraceContext};
use dosgi_testkit::rng::{mix_seed, TestRng};
use std::collections::HashMap;
use std::time::Instant;

const VIP: SocketAddr = SocketAddr::new(IpAddr::new(10, 0, 0, 90), Port(80));
const NODES: usize = 4;
const TENANTS: usize = 12;
/// Per-backend admission capacity and the offered rate: half of the
/// aggregate capacity, so load sheds only when a node is lost.
const CAPACITY: u64 = 500;
const RATE: f64 = 1_000.0;
const QUEUE: usize = 64;
/// Episodes whose modeled outcomes are reported.
pub const MODEL_EPISODES: u64 = 4;
/// Timeline, in sim time from the start of load.
const EPISODE: SimDuration = SimDuration::from_secs(30);
const MIGRATE_EVERY: SimDuration = SimDuration::from_millis(1_500);
const CRASH_AT: SimDuration = SimDuration::from_secs(10);
const DOWN_FOR: SimDuration = SimDuration::from_secs(4);
const WAVE_AT: SimDuration = SimDuration::from_secs(16);
/// Operator migrations run before the crash and after the wave.
const MIGRATIONS_UNTIL: SimDuration = SimDuration::from_secs(8);
const MIGRATIONS_FROM: SimDuration = SimDuration::from_secs(21);
const HANDOFF_LIMIT: SimDuration = SimDuration::from_secs(10);

fn tenant(t: usize) -> String {
    format!("tenant-{t:02}")
}

/// One client request, from its first arrival to its successful call.
#[derive(Clone, Copy)]
struct Request {
    client: u64,
    tenant: usize,
    class: RequestClass,
    arrival_us: u64,
}

/// [`WaveHooks`] that drain and un-drain the node being upgraded.
struct DirectorHooks<'a>(&'a mut IpvsDirector);

impl WaveHooks for DirectorHooks<'_> {
    fn drain(&mut self, node: NodeId, _now_us: u64) {
        self.0.drain_node(node);
    }
    fn undrain(&mut self, node: NodeId, _ctx: Option<TraceContext>, _now_us: u64) {
        self.0.undrain_node(node);
    }
}

/// What one episode produced.
#[derive(Default)]
struct Episode {
    setup_s: f64,
    window: Window,
    op_us: Vec<f64>,
    busy_ns: u64,
    offered: u64,
    good: u64,
    failed: u64,
    migrations: u64,
    failover_down: SimDuration,
    swap_blackout: SimDuration,
    handoffs: Vec<SimDuration>,
    shed: u64,
    sim: SimCounts,
}

/// Checks that every tenant is served by exactly one live node, the one
/// the replicated registry names as its home.
fn check_homes(c: &DosgiCluster, when: &str, out: &mut Outcome) {
    for t in 0..TENANTS {
        let name = tenant(t);
        let serving: Vec<usize> = (0..NODES)
            .filter(|&i| c.node(i).is_some_and(|n| n.probe_local(&name)))
            .collect();
        if serving.len() != 1 || c.home_of(&name) != serving.first().copied() {
            out.violation(format!(
                "{when}: {name} served on {serving:?}, registry home {:?}",
                c.home_of(&name)
            ));
        }
    }
}

/// Checks every tenant's count against the acknowledged increments.
fn check_counts(c: &mut DosgiCluster, expected: &[i64], when: &str, out: &mut Outcome) {
    for (t, &want) in expected.iter().enumerate() {
        let name = tenant(t);
        match c.call(&name, workloads::COUNTER_SERVICE, "get", &Value::Null) {
            Ok(v) if v == Value::Int(want) => {}
            other => out.violation(format!("{when}: {name} reads {other:?}, expected {want}")),
        }
    }
}

fn setup(seed: u64) -> Result<DosgiCluster, String> {
    let mut c =
        DosgiCluster::new_with_telemetry(NODES, ClusterConfig::default(), seed, Telemetry::new());
    c.enable_observability(ScrapeConfig::default(), DosgiCluster::default_slos());
    c.run_for(SimDuration::from_millis(500));
    for t in 0..TENANTS {
        let desc = workloads::counter_instance_with(
            "tenant",
            &tenant(t),
            workloads::COUNTER_WRITE_THROUGH,
        );
        c.deploy(desc, t % NODES)
            .map_err(|e| format!("deploy {}: {e}", tenant(t)))?;
    }
    let deadline = c.now() + SimDuration::from_secs(10);
    while !(0..TENANTS).all(|t| c.probe(&tenant(t))) {
        if c.now() >= deadline {
            return Err("tenants not serving 10 s after deploy".into());
        }
        c.step();
    }
    Ok(c)
}

fn sim_counters(c: &mut DosgiCluster) -> [u64; 6] {
    let net = c.net_mut().stats();
    let t = c.telemetry();
    [
        net.sent,
        net.total_dropped(),
        t.counter("gcs.order.sent"),
        t.counter("gcs.view.installed"),
        t.counter("gcs.antientropy.replayed"),
        t.counter("vosgi.lifecycle.adopted"),
    ]
}

/// Runs one episode of the timeline on a fresh cluster seeded `seed`.
fn episode(seed: u64, export: bool, tracer: &mut Tracer, out: &mut Outcome) -> Option<Episode> {
    let mut ep = Episode::default();
    let t_setup = Instant::now();
    let mut c = match setup(seed) {
        Ok(c) => c,
        Err(e) => {
            out.violation(format!("set-up: {e}"));
            return None;
        }
    };
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    let tick = ClusterConfig::default().tick;
    // One operation is one scrape period of driver steps, so every
    // operation carries exactly one scrape: operations with and without a
    // scrape would make the latency distribution bimodal.
    let steps_per_op = ScrapeConfig::default().cadence_us / tick.as_micros();
    let mut rng = TestRng::new(mix_seed(seed, 5));
    let mut d = IpvsDirector::new();
    let backends: Vec<NodeId> = (0..NODES).map(|i| NodeId(i as u32)).collect();
    d.add_service(
        replicated_service(VIP, Scheduler::RoundRobin, &backends)
            .with_admission(AdmissionConfig::per_second(CAPACITY, QUEUE)),
    );
    let t0 = c.now();
    let mut gen = ScheduledLoadGenerator::new(RateSchedule::constant(RATE), mix_seed(seed, 6), t0);
    let mut mix = ClassMix::standard_web(mix_seed(seed, 7));
    let mut zipf = ZipfSampler::new(TENANTS, 1.0, mix_seed(seed, 8));
    let crash_at = t0 + CRASH_AT + SimDuration::from_micros(rng.u64_below(500_000));
    let crash_tenant = rng.usize_in(0, TENANTS - 1);
    let mut crashed: Option<(usize, SimTime)> = None;
    let mut stranded: Vec<(usize, SimDuration)> = Vec::new();
    let mut restarted = false;
    let mut wave: Option<UpgradeWave> = None;
    let mut wave_done = false;
    let mut next_migration = t0 + MIGRATE_EVERY;
    let mut inflight: Option<(usize, usize, SimTime)> = None;
    // Admitted and queued at a backend, by client.
    let mut pending: HashMap<u64, (Request, NodeId)> = HashMap::new();
    // To be offered to the director on the next step, oldest first.
    let mut to_admit: Vec<Request> = Vec::new();
    // Served by the director, but the call found no home; retried.
    let mut stalled: Vec<Request> = Vec::new();
    let mut expected = vec![0i64; TENANTS];
    let names: Vec<String> = (0..TENANTS).map(tenant).collect();
    let mut client = 0u64;
    let counters0 = sim_counters(&mut c);

    let probe = Probe::start();
    let mut steps = 0u64;
    let mut op = None;
    while c.now() < t0 + EPISODE {
        if op.is_none() {
            op = Some((tracer.begin_op(ep.op_us.len() as u64), Instant::now()));
        }
        let scrape = c
            .scraper()
            .is_some_and(|s| s.due((c.now() + tick).as_micros()));
        let span = if scrape {
            "core.cluster.step_scrape"
        } else {
            "core.cluster.step"
        };
        let events = tracer.span(span, || {
            c.step();
            c.take_events()
        });
        let now = c.now();
        let now_us = now.as_micros();

        // Arrivals: admit now, serve on completion. Refused requests are
        // offered again before the new ones.
        let arrivals = tracer.span("loadgen.sample", || gen.arrivals_until(now));
        for _ in 0..arrivals {
            client += 1;
            let (class, tenant) = tracer.span("loadgen.sample", || (mix.sample(), zipf.sample()));
            ep.offered += 1;
            to_admit.push(Request {
                client,
                tenant,
                class,
                arrival_us: now_us,
            });
        }
        for r in std::mem::take(&mut to_admit) {
            match tracer.span("ipvs.admit", || d.admit(r.client, VIP, r.class, now_us)) {
                Ok(node) => {
                    pending.insert(r.client, (r, node));
                }
                Err(_) => to_admit.push(r),
            }
        }
        let retries = std::mem::take(&mut stalled)
            .into_iter()
            .map(|r| (r, now_us));
        let drained = tracer.span("ipvs.drain", || d.drain(VIP, now_us));
        let served = drained.into_iter().map(|done| {
            let (r, _) = pending
                .remove(&done.client)
                .expect("completions are of admitted requests");
            (r, done.completed_us)
        });
        for (r, completed_us) in retries.chain(served).collect::<Vec<_>>() {
            let name = &names[r.tenant];
            let reply = tracer.span("core.cluster.call", || {
                c.call(name, workloads::COUNTER_SERVICE, "incr", &Value::Null)
            });
            match reply {
                Ok(v) => {
                    let t = r.tenant;
                    expected[t] += 1;
                    if v != Value::Int(expected[t]) {
                        out.violation(format!(
                            "{name}: incr returned {v:?}, expected {}",
                            expected[t]
                        ));
                    } else if completed_us - r.arrival_us <= r.class.slo_us() {
                        ep.good += 1;
                    }
                }
                Err(_) => stalled.push(r),
            }
        }

        // Operator migrations, one in flight at a time.
        if let Some((t, to, since)) = inflight {
            if c.home_of(&names[t]) == Some(to) && c.probe(&names[t]) {
                ep.handoffs.push(now.since(since));
                inflight = None;
            } else if now.since(since) > HANDOFF_LIMIT {
                ep.failed += 1;
                inflight = None;
            }
        }
        let window_open = now < t0 + MIGRATIONS_UNTIL || (wave_done && now >= t0 + MIGRATIONS_FROM);
        if inflight.is_none() && window_open && now >= next_migration {
            next_migration = now + MIGRATE_EVERY;
            let t = rng.usize_in(0, TENANTS - 1);
            let name = tenant(t);
            if let Some(from) = c.home_of(&name) {
                let to = (from + rng.usize_in(1, NODES - 1)) % NODES;
                ep.migrations += 1;
                match tracer.span("core.cluster.migrate", || c.migrate(&name, to)) {
                    Ok(()) => inflight = Some((t, to, now)),
                    Err(_) => ep.failed += 1,
                }
            }
        }

        // One crash of the node homing a seeded tenant, failover, restart.
        if crashed.is_none() && !restarted && inflight.is_none() && now >= crash_at {
            match c.home_of(&names[crash_tenant]) {
                Some(node) => {
                    stranded = (0..TENANTS)
                        .filter(|&t| c.home_of(&names[t]) == Some(node))
                        .map(|t| (t, c.sla().record(&names[t]).down))
                        .collect();
                    tracer.span("core.cluster.crash_restart", || c.crash_node(node));
                    let down = NodeId(node as u32);
                    d.node_down(down);
                    // The director abandoned the crashed backend's queue;
                    // its clients offer those requests again.
                    let mut abandoned: Vec<Request> = pending
                        .values()
                        .filter(|&&(_, at)| at == down)
                        .map(|&(r, _)| r)
                        .collect();
                    abandoned.sort_by_key(|r| r.client);
                    for r in &abandoned {
                        pending.remove(&r.client);
                    }
                    to_admit.extend(abandoned);
                    crashed = Some((node, now));
                }
                None => {
                    out.violation(format!("{} has no home to crash", names[crash_tenant]));
                    restarted = true;
                }
            }
        }
        if let Some((node, _)) = crashed.filter(|&(_, at)| !restarted && now >= at + DOWN_FOR) {
            check_homes(&c, "after failover", out);
            for &(t, before) in &stranded {
                let down = c.sla().record(&names[t]).down - before;
                ep.failover_down = ep.failover_down.max(down);
            }
            tracer.span("core.cluster.crash_restart", || c.restart_node(node));
            d.node_up(NodeId(node as u32));
            restarted = true;
        }

        // One hot-swap wave over every node.
        if wave.is_none() && !wave_done && now >= t0 + WAVE_AT {
            let manifest = workloads::counter_manifest_at(
                workloads::COUNTER_WRITE_THROUGH,
                Version::new(1, 1, 0),
            );
            wave = Some(UpgradeWave::new(
                manifest,
                (0..NODES).collect(),
                SimDuration::from_secs(10),
            ));
        }
        if let Some(w) = wave.as_mut() {
            let finished = tracer.span("core.upgrade.wave_step", || {
                w.step(&mut c, &events, &mut DirectorHooks(&mut d))
            });
            if finished {
                let report = wave.take().expect("wave in progress").into_report();
                if report.upgraded.len() != TENANTS
                    || !report.failed.is_empty()
                    || !report.skipped_nodes.is_empty()
                {
                    out.violation(format!(
                        "wave upgraded {} of {TENANTS}, failed {:?}, skipped {:?}",
                        report.upgraded.len(),
                        report.failed,
                        report.skipped_nodes
                    ));
                }
                for u in &report.upgraded {
                    ep.swap_blackout = ep.swap_blackout.max(u.blackout);
                }
                check_counts(&mut c, &expected, "after hot swap", out);
                wave_done = true;
            }
        }
        steps += 1;
        if steps.is_multiple_of(steps_per_op) || c.now() >= t0 + EPISODE {
            let (open, start) = op.take().expect("opened at the top of the loop");
            tracer.exit(open);
            let took = start.elapsed();
            ep.op_us.push(took.as_nanos() as f64 / 1e3);
            ep.busy_ns += took.as_nanos() as u64;
        }
    }
    ep.window = probe.finish(ep.op_us.len() as u64);

    if !wave_done {
        out.violation("the upgrade wave did not finish".into());
    }
    if !restarted {
        out.violation("the crashed node was not restarted".into());
    }
    check_homes(&c, "end of episode", out);
    check_counts(&mut c, &expected, "end of episode", out);
    let stats = d.stats();
    ep.shed = stats.shed + stats.rejected;
    // A displaced request left its queue without its client being told,
    // so it is lost; every other refusal was offered again.
    ep.failed += stats.displaced;

    let counters1 = sim_counters(&mut c);
    let delta: Vec<u64> = counters1
        .iter()
        .zip(counters0)
        .map(|(a, b)| a - b)
        .collect();
    ep.sim = SimCounts {
        net_sent: delta[0],
        net_dropped: delta[1],
        gcs_order_sent: delta[2],
        gcs_views: delta[3],
        gcs_replayed: delta[4],
        vosgi_adopted: delta[5],
        ..SimCounts::default()
    };
    if let Some(s) = c.scraper() {
        ep.sim.series_dropped_ratio = s.total_dropped() as f64 / s.total_appended().max(1) as f64;
    }
    if export {
        let t = Instant::now();
        let snap = c.telemetry_snapshot("perfbench", seed);
        let log = c.trace_log();
        ep.sim.export_ns = t.elapsed().as_nanos() as u64;
        ep.sim.telemetry_metrics =
            (snap.counters.len() + snap.gauges.len() + snap.histograms.len()) as u64;
        std::hint::black_box(log.events.len());
    }
    Some(ep)
}

/// Runs the `dependability` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    let mut episodes: Vec<Episode> = Vec::new();
    let mut traced_from = None;
    let start = Instant::now();
    for e in 0.. {
        let elapsed = start.elapsed();
        if e >= MODEL_EPISODES && elapsed >= args.seconds {
            break;
        }
        if args.trace && traced_from.is_none() && elapsed >= args.seconds / 2 {
            traced_from = Some(episodes.len());
            tracer.set_on(true);
            alloc::set_enabled(true);
        }
        match episode(
            mix_seed(args.seed, 100 + e),
            args.trace,
            &mut tracer,
            &mut out,
        ) {
            Some(ep) => episodes.push(ep),
            None => return out,
        }
    }
    alloc::set_enabled(false);

    let model = &episodes[..MODEL_EPISODES as usize];
    out.attempted = episodes.iter().map(|e| e.offered + e.migrations).sum();
    out.failed = episodes.iter().map(|e| e.failed).sum();
    let offered: u64 = model.iter().map(|e| e.offered).sum();
    let median = |v: Vec<f64>| stats::median(&stats::sorted(v));
    let handoffs: Vec<f64> = model
        .iter()
        .flat_map(|e| e.handoffs.iter().map(|h| h.as_micros() as f64 / 1e3))
        .collect();
    let m = Model {
        failover_down_ms: median(
            model
                .iter()
                .map(|e| e.failover_down.as_micros() as f64 / 1e3)
                .collect(),
        ),
        swap_blackout_us: median(
            model
                .iter()
                .map(|e| e.swap_blackout.as_micros() as f64)
                .collect(),
        ),
        handoff_ms: if handoffs.is_empty() {
            0.0
        } else {
            median(handoffs)
        },
        shed_ratio: model.iter().map(|e| e.shed).sum::<u64>() as f64 / offered as f64,
    };
    eprintln!(
        "modeled over {MODEL_EPISODES} episodes: goodput {}/{offered}, failover_down_ms {}, \
         swap_blackout_us {}, handoff_ms {}, shed_ratio {}",
        model.iter().map(|e| e.good).sum::<u64>(),
        m.failover_down_ms,
        m.swap_blackout_us,
        m.handoff_ms,
        m.shed_ratio
    );

    if args.trace {
        let split = traced_from.unwrap_or(episodes.len());
        let (plain, traced) = episodes.split_at(split);
        if traced.is_empty() || plain.is_empty() {
            out.violation("the traced run needs episodes on both sides of its midpoint".into());
            return out;
        }
        let per_op = |eps: &[Episode]| {
            eps.iter().map(|e| e.busy_ns).sum::<u64>() as f64
                / eps.iter().map(|e| e.window.ops).sum::<u64>() as f64
        };
        let mut window = Window::default();
        let mut sim = SimCounts::default();
        for e in traced {
            window.add(&e.window);
            sim.net_sent += e.sim.net_sent;
            sim.net_dropped += e.sim.net_dropped;
            sim.gcs_order_sent += e.sim.gcs_order_sent;
            sim.gcs_views += e.sim.gcs_views;
            sim.gcs_replayed += e.sim.gcs_replayed;
            sim.vosgi_adopted += e.sim.vosgi_adopted;
            sim.export_ns += e.sim.export_ns;
        }
        let last = traced.last().expect("non-empty").sim;
        sim.telemetry_metrics = last.telemetry_metrics;
        sim.series_dropped_ratio = last.series_dropped_ratio;
        sim.gcs_views /= traced.len() as u64;
        out.layers = Layers {
            window,
            breakdown: tracer.breakdown().clone(),
            overhead_ratio: per_op(traced) / per_op(plain),
            sim,
            model: m,
            ..Layers::default()
        };
    } else {
        // Consecutive episodes make up each slice.
        let mut slices: Vec<Slice> = Vec::new();
        for e in &episodes {
            let open = slices
                .last()
                .is_some_and(|s| s.window.wall_ns < SLICE_LEN.as_nanos() as u64);
            if !open {
                slices.push(Slice::default());
            }
            let s = slices.last_mut().expect("pushed above");
            s.latencies_us.extend_from_slice(&e.op_us);
            s.window.add(&e.window);
        }
        merge_short_tail(&mut slices);
        out.end_to_end = EndToEnd {
            setups_s: episodes.iter().map(|e| e.setup_s).collect(),
            slices,
            offered,
            good: model.iter().map(|e| e.good).sum(),
            cpu_bound: true,
        };
    }
    out
}
