//! What a run measures and how it is printed.
//!
//! Every workload fills the same [`EndToEnd`] and [`Layers`] structs, so
//! every run prints the same metric names whatever the workload: a layer
//! a workload does not touch reads 0. Untraced runs print the end-to-end
//! metrics, traced runs the per-layer ones.

use crate::procfs::{self, SchedStat};
use crate::stats;
use crate::timed_store::{BackendCounters, OPS};
use crate::trace::{Breakdown, ROOT};
use crate::{alloc, calib};
use dosgi_san::StoreStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Resource use over a measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Operations completed inside the window.
    pub ops: u64,
    /// Wall time of the window, ns.
    pub wall_ns: u64,
    /// Process CPU (all threads), ns.
    pub cpu_ns: u64,
    /// The benchmark's own thread.
    pub client: SchedStat,
    /// The cluster's `dosgi-node-*` worker threads.
    pub workers: SchedStat,
    /// Allocations and bytes, process-wide (traced runs only).
    pub allocs: (u64, u64),
    /// Reference-kernel readings taken at the window's edges, ns, summed.
    pub kernel_ns: u64,
    /// Number of readings in `kernel_ns`.
    pub kernel_n: u64,
}

impl Window {
    /// Accumulates another window (for runs measured in pieces).
    pub fn add(&mut self, o: &Window) {
        self.ops += o.ops;
        self.wall_ns += o.wall_ns;
        self.cpu_ns += o.cpu_ns;
        self.client.add(o.client);
        self.workers.add(o.workers);
        self.allocs.0 += o.allocs.0;
        self.allocs.1 += o.allocs.1;
        self.kernel_ns += o.kernel_ns;
        self.kernel_n += o.kernel_n;
    }

    /// Mean reference-kernel time over the window, ns.
    pub fn kernel_mean_ns(&self) -> f64 {
        self.kernel_ns as f64 / self.kernel_n.max(1) as f64
    }
}

/// Worker-thread name prefix set by `RealCluster`.
pub const WORKER_PREFIX: &str = "dosgi-node-";

/// Readings at the start of a window.
pub struct Probe {
    t0: Instant,
    cpu: u64,
    client: SchedStat,
    workers: BTreeMap<u32, SchedStat>,
    allocs: (u64, u64),
    kernel_ns: u64,
}

impl Probe {
    /// Takes a kernel reading, then reads every counter now.
    pub fn start() -> Self {
        let kernel_ns = calib::reading_ns();
        Probe {
            kernel_ns,
            workers: procfs::threads_named(WORKER_PREFIX).expect("/proc/self/task readable"),
            client: procfs::this_thread().expect("/proc/thread-self/schedstat readable"),
            allocs: alloc::total(),
            cpu: procfs::process_cpu_ns(),
            t0: Instant::now(),
        }
    }

    /// Time since [`start`](Self::start).
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }

    /// Closes the window over `ops` operations, then takes a second
    /// kernel reading.
    pub fn finish(self, ops: u64) -> Window {
        let wall_ns = self.t0.elapsed().as_nanos() as u64;
        let cpu = procfs::process_cpu_ns();
        let client = procfs::this_thread().expect("/proc/thread-self/schedstat readable");
        let workers = procfs::threads_named(WORKER_PREFIX).expect("/proc/self/task readable");
        let allocs = alloc::total();
        let kernel_ns = calib::reading_ns();
        Window {
            kernel_ns: self.kernel_ns + kernel_ns,
            kernel_n: 2,
            ops,
            wall_ns,
            cpu_ns: cpu - self.cpu,
            client: client.since(self.client),
            workers: procfs::delta_sum(&self.workers, &workers),
            allocs: (allocs.0 - self.allocs.0, allocs.1 - self.allocs.1),
        }
    }
}

/// Builds `n` times, dropping each build before timing the next, and
/// returns the last build with every build's wall time in seconds.
pub fn set_up_repeatedly<T>(
    n: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("n > 0"), times))
}

/// CPU cores the process burns while the benchmark thread sleeps for
/// 300 ms: the cost of an idle cluster.
pub fn idle_cores() -> f64 {
    let idle = Probe::start();
    std::thread::sleep(Duration::from_millis(300));
    let w = idle.finish(0);
    w.cpu_ns as f64 / w.wall_ns as f64
}

/// A stretch of the measured window: at least [`SLICE_OPS`] operations
/// and [`SLICE_LEN`] of wall time.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Latency of each operation, µs.
    pub latencies_us: Vec<f64>,
    /// Resources the slice used.
    pub window: Window,
}

/// Slice bounds: enough operations for a p90 and enough time to average
/// over scheduler noise.
pub const SLICE_OPS: usize = 100;
/// See [`SLICE_OPS`].
pub const SLICE_LEN: Duration = Duration::from_secs(1);

/// Folds a last slice shorter than [`SLICE_OPS`] operations or
/// [`SLICE_LEN`] into the one before it.
pub fn merge_short_tail(slices: &mut Vec<Slice>) {
    let short = slices.last().is_some_and(|s| {
        s.latencies_us.len() < SLICE_OPS || s.window.wall_ns < SLICE_LEN.as_nanos() as u64
    });
    if short && slices.len() > 1 {
        let tail = slices.pop().expect("len > 1");
        let last = slices.last_mut().expect("len > 0");
        last.latencies_us.extend(tail.latencies_us);
        last.window.add(&tail.window);
    }
}

/// The end-to-end figures of an untraced run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Wall time of each set-up, s.
    pub setups_s: Vec<f64>,
    /// The measured window, sliced.
    pub slices: Vec<Slice>,
    /// Operations that counted towards goodput.
    pub offered: u64,
    /// Offered operations completed correctly within their limit.
    pub good: u64,
    /// Whether an operation is CPU-bound work on the benchmark's one
    /// thread, so that every time is reported at the reference host speed.
    pub cpu_bound: bool,
}

impl EndToEnd {
    /// The end-to-end metrics, or why the sample cannot support them.
    ///
    /// Latency percentiles and CPU per operation are taken per slice and
    /// reported as the lower quartile over slices: on a virtual machine
    /// the host stalls or slows the guest in bursts lasting seconds, and a
    /// slice inside such a burst measures the host, not the system. Every
    /// time of a [`cpu_bound`](Self::cpu_bound) run is scaled to the
    /// reference host speed, per slice by the slice's own kernel readings
    /// ([`calib`]).
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        if self.slices.is_empty() || self.offered == 0 || self.setups_s.is_empty() {
            return Err("the run completed no operation".into());
        }
        if self.slices.iter().any(|s| s.window.kernel_n == 0) {
            return Err("a slice has no kernel reading".into());
        }
        let speed = |s: &Slice| {
            if self.cpu_bound {
                calib::REFERENCE_NS / s.window.kernel_mean_ns()
            } else {
                1.0
            }
        };
        let lower_quartile = |f: &dyn Fn(&Slice) -> Result<f64, String>| -> Result<f64, String> {
            let v = self
                .slices
                .iter()
                .map(f)
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(stats::nearest_rank(&stats::sorted(v), 25.0))
        };
        let pct = |p: f64| {
            lower_quartile(&|s: &Slice| {
                let lat = stats::sorted(s.latencies_us.clone());
                let v = stats::percentile(&lat, p).ok_or_else(|| {
                    format!(
                        "a slice of {} latency samples cannot support p{p} (highest supported: {:?})",
                        lat.len(),
                        stats::highest_supported(lat.len())
                    )
                })?;
                Ok(v * speed(s))
            })
        };
        let cpu_per_op = |s: &Slice| s.window.cpu_ns as f64 / 1e3 / s.window.ops.max(1) as f64;
        for (i, s) in self.slices.iter().enumerate() {
            let lat = stats::sorted(s.latencies_us.clone());
            eprintln!(
                "slice {i}: {} ops, raw p50 {:?} us, p90 {:?} us, cpu {:.1} us/op; kernel {:.1} us",
                lat.len(),
                stats::percentile(&lat, 50.0),
                stats::percentile(&lat, 90.0),
                cpu_per_op(s),
                s.window.kernel_mean_ns() / 1e3
            );
        }
        let cpu = lower_quartile(&|s: &Slice| Ok(cpu_per_op(s) * speed(s)))?;
        let setup_speed = if self.cpu_bound {
            let kernel_ns = self.slices.iter().map(|s| s.window.kernel_mean_ns());
            calib::REFERENCE_NS / stats::median(&stats::sorted(kernel_ns.collect()))
        } else {
            1.0
        };
        Ok(vec![
            metric(
                "setup_s",
                stats::median(&stats::sorted(self.setups_s.clone())) * setup_speed,
                "s",
            ),
            metric("op_p50_us", pct(50.0)?, "us"),
            metric("op_p90_us", pct(90.0)?, "us"),
            metric("cpu_us_per_op", cpu, "us"),
            metric(
                "goodput_ratio",
                self.good as f64 / self.offered as f64,
                "ratio",
            ),
        ])
    }
}

/// Every layer function the benchmark calls inside an operation, as
/// `<layer>.<function>` span names.
pub const SPANS: [&str; 14] = [
    "ipvs.connect",
    "ipvs.release",
    "ipvs.admit",
    "ipvs.drain",
    "core.rt.call",
    "core.rt.migrate",
    "core.rt.await_running",
    "core.cluster.step",
    "core.cluster.step_scrape",
    "core.cluster.call",
    "core.cluster.migrate",
    "core.cluster.crash_restart",
    "core.upgrade.wave_step",
    "loadgen.sample",
];

/// Simulator counters (all zero on the real-clock runtime).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    /// Messages sent on the simulated network.
    pub net_sent: u64,
    /// Messages lost, partitioned away or sent to a dead node.
    pub net_dropped: u64,
    /// Total-order broadcasts sent.
    pub gcs_order_sent: u64,
    /// Membership views installed.
    pub gcs_views: u64,
    /// Messages replayed by anti-entropy (re-sent work).
    pub gcs_replayed: u64,
    /// Instances adopted (migration or failover).
    pub vosgi_adopted: u64,
    /// Metrics in the telemetry registry at the end of an episode.
    pub telemetry_metrics: u64,
    /// Series points dropped over points appended by the scraper.
    pub series_dropped_ratio: f64,
    /// Wall time of the end-of-episode snapshot and trace export, ns.
    pub export_ns: u64,
}

/// Modeled (simulated-time) outcomes of the dependability timeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Model {
    /// Worst downtime of an instance stranded by the crash, sim ms.
    pub failover_down_ms: f64,
    /// Worst hot-swap blackout, sim µs.
    pub swap_blackout_us: f64,
    /// Median migrate-request-to-serving time, sim ms.
    pub handoff_ms: f64,
    /// Admission refusals (shed, abandoned or rejected) over requests
    /// offered; a refused request is offered again and may count twice.
    pub shed_ratio: f64,
}

/// Inputs to the per-layer metrics of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// The traced half of the window.
    pub window: Window,
    /// Span attribution over the traced half.
    pub breakdown: Breakdown,
    /// Mean busy time per operation, traced half over untraced half.
    pub overhead_ratio: f64,
    /// Mean lateness of the open-loop generator over its interval.
    pub late_ratio: f64,
    /// CPU cores an idle cluster burns.
    pub idle_cores: f64,
    /// Timing-decorator readings over the traced half.
    pub backend: [(u64, u64); 4],
    /// SAN wrapper statistics over the traced half.
    pub san: StoreStats,
    /// Convergence time beyond the modeled adoption delay, over
    /// convergence time.
    pub converge_overhead_share: f64,
    /// Simulator counters.
    pub sim: SimCounts,
    /// Modeled outcomes.
    pub model: Model,
}

/// `after - before` for every SAN counter.
pub fn store_delta(before: StoreStats, after: StoreStats) -> StoreStats {
    StoreStats {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        bytes_written: after.bytes_written - before.bytes_written,
        bytes_read: after.bytes_read - before.bytes_read,
        faults: after.faults - before.faults,
        writes_skipped: after.writes_skipped - before.writes_skipped,
        bytes_skipped: after.bytes_skipped - before.bytes_skipped,
    }
}

/// `after - before` for the decorator's counters.
pub fn backend_delta(before: [(u64, u64); 4], counters: &BackendCounters) -> [(u64, u64); 4] {
    let after = counters.read();
    std::array::from_fn(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    /// The per-layer metrics; the same names for every workload.
    pub fn metrics(&self) -> Vec<Metric> {
        let w = &self.window;
        let ops = w.ops as f64;
        let b = &self.breakdown;
        let busy = b.busy_ns as f64;
        for name in b.by_name.keys() {
            assert!(
                *name == ROOT || SPANS.contains(name),
                "span {name} is missing from SPANS"
            );
        }
        let mut out = Vec::new();
        for name in SPANS {
            let t = b.get(name);
            out.push(metric(
                format!("{name}.self_share"),
                ratio(t.self_ns as f64, busy),
                "share",
            ));
            out.push(metric(
                format!("{name}.calls_per_op"),
                ratio(t.calls as f64, b.ops as f64),
                "count",
            ));
            out.push(metric(
                format!("{name}.allocs_per_call"),
                ratio(t.self_allocs as f64, t.calls as f64),
                "count",
            ));
        }
        let root = b.get(ROOT);
        out.push(metric(
            "bench.allocs_per_op",
            ratio(root.self_allocs as f64, b.ops as f64),
            "count",
        ));
        out.push(metric(
            "trace.unattributed_share",
            b.unattributed_share(),
            "share",
        ));
        out.push(metric("trace.overhead_ratio", self.overhead_ratio, "ratio"));
        out.push(metric(
            "cpu.client_us_per_op",
            ratio(w.client.cpu_ns as f64 / 1e3, ops),
            "us",
        ));
        out.push(metric(
            "cpu.worker_share",
            ratio(w.workers.cpu_ns as f64, w.cpu_ns as f64),
            "share",
        ));
        let (run, wait) = (
            w.client.cpu_ns + w.workers.cpu_ns,
            w.client.wait_ns + w.workers.wait_ns,
        );
        out.push(metric(
            "cpu.runq_wait_share",
            ratio(wait as f64, (run + wait) as f64),
            "share",
        ));
        out.push(metric("cpu.idle_cores", self.idle_cores, "cores"));
        out.push(metric("gen.late_ratio", self.late_ratio, "ratio"));
        out.push(metric("host.kernel_us", w.kernel_mean_ns() / 1e3, "us"));
        out.push(metric(
            "alloc.per_op",
            ratio(w.allocs.0 as f64, ops),
            "count",
        ));
        out.push(metric(
            "alloc.bytes_per_op",
            ratio(w.allocs.1 as f64, ops),
            "bytes",
        ));
        for (op, (calls, ns)) in OPS.iter().zip(self.backend) {
            out.push(metric(
                format!("san.backend.{op}.calls_per_op"),
                ratio(calls as f64, ops),
                "count",
            ));
            out.push(metric(
                format!("san.backend.{op}.busy_share"),
                ratio(ns as f64, w.wall_ns as f64),
                "share",
            ));
        }
        let s = &self.san;
        out.push(metric(
            "san.writes_per_op",
            ratio(s.writes as f64, ops),
            "count",
        ));
        out.push(metric(
            "san.bytes_written_per_op",
            ratio(s.bytes_written as f64, ops),
            "bytes",
        ));
        out.push(metric(
            "san.bytes_read_per_op",
            ratio(s.bytes_read as f64, ops),
            "bytes",
        ));
        out.push(metric(
            "san.skipped_write_ratio",
            ratio(
                s.writes_skipped as f64,
                (s.writes + s.writes_skipped) as f64,
            ),
            "ratio",
        ));
        out.push(metric(
            "core.rt.converge_overhead_share",
            self.converge_overhead_share,
            "share",
        ));
        let sim = &self.sim;
        out.push(metric(
            "net.msgs_per_op",
            ratio(sim.net_sent as f64, ops),
            "count",
        ));
        out.push(metric(
            "net.dropped_per_op",
            ratio(sim.net_dropped as f64, ops),
            "count",
        ));
        out.push(metric(
            "gcs.order_sent_per_op",
            ratio(sim.gcs_order_sent as f64, ops),
            "count",
        ));
        out.push(metric("gcs.views_installed", sim.gcs_views as f64, "count"));
        out.push(metric(
            "gcs.antientropy_replayed_per_op",
            ratio(sim.gcs_replayed as f64, ops),
            "count",
        ));
        out.push(metric(
            "vosgi.adopted_per_op",
            ratio(sim.vosgi_adopted as f64, ops),
            "count",
        ));
        out.push(metric(
            "telemetry.metrics",
            sim.telemetry_metrics as f64,
            "count",
        ));
        out.push(metric(
            "telemetry.series_dropped_ratio",
            sim.series_dropped_ratio,
            "ratio",
        ));
        out.push(metric(
            "telemetry.export_share",
            ratio(sim.export_ns as f64, w.wall_ns as f64),
            "share",
        ));
        let m = &self.model;
        out.push(metric(
            "model.failover_down_ms",
            m.failover_down_ms,
            "sim_ms",
        ));
        out.push(metric(
            "model.swap_blackout_us",
            m.swap_blackout_us,
            "sim_us",
        ));
        out.push(metric("model.handoff_ms", m.handoff_ms, "sim_ms"));
        out.push(metric("ipvs.shed_ratio", m.shed_ratio, "ratio"));
        out
    }

    /// A human-readable per-function table (self µs per call), for stderr.
    pub fn table(&self) -> String {
        let b = &self.breakdown;
        let mut s = format!(
            "{:<28} {:>9} {:>12} {:>12} {:>8}\n",
            "span", "calls", "self us/call", "allocs/call", "share"
        );
        for (name, t) in &b.by_name {
            let _ = writeln!(
                s,
                "{name:<28} {:>9} {:>12.3} {:>12.2} {:>8.4}",
                t.calls,
                ratio(t.self_ns as f64 / 1e3, t.calls as f64),
                ratio(t.self_allocs as f64, t.calls as f64),
                ratio(t.self_ns as f64, b.busy_ns as f64)
            );
        }
        s
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, migration rounds, or simulated
    /// requests and migrations).
    pub attempted: u64,
    /// Attempted operations that failed or were refused.
    pub failed: u64,
    /// Output-check violations; any one fails the run.
    pub violations: Vec<String>,
    /// Untraced figures (untraced runs).
    pub end_to_end: EndToEnd,
    /// Per-layer figures (traced runs).
    pub layers: Layers,
}

impl Outcome {
    /// Records an output-check violation (kept short: the first few are
    /// enough to debug, and a broken run must not flood memory).
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each value with all its digits.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(
            m.value.is_finite(),
            "metric {} is not finite: {}",
            m.name,
            m.value
        );
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
