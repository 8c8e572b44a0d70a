//! Per-thread CPU and run-queue wait from `/proc`, process CPU time, and
//! pinning the process to one CPU.
//!
//! Linux exposes three numbers per task in `/proc/<pid>/task/<tid>/schedstat`:
//! nanoseconds spent on a CPU, nanoseconds spent runnable but waiting on a
//! run queue, and the number of time slices run. The benchmark reads them
//! at the edges of its measured window and attributes the deltas to the
//! client thread (the benchmark's own) and to the `dosgi-node-*` workers.

use std::collections::BTreeMap;
use std::fs;
use std::io;

/// One task's scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable, waiting for a CPU.
    pub wait_ns: u64,
    /// Time slices run.
    pub slices: u64,
}

impl SchedStat {
    /// Field-wise `self - earlier`, saturating (a counter never runs back).
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }

    /// Field-wise `self += other`.
    pub fn add(&mut self, other: SchedStat) {
        self.cpu_ns += other.cpu_ns;
        self.wait_ns += other.wait_ns;
        self.slices += other.slices;
    }
}

/// Parses the three whitespace-separated fields of a `schedstat` file.
/// Returns `None` unless there are exactly three unsigned integers.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let cpu_ns = fields.next()?.ok()?;
    let wait_ns = fields.next()?.ok()?;
    let slices = fields.next()?.ok()?;
    if fields.next().is_some() {
        return None;
    }
    Some(SchedStat {
        cpu_ns,
        wait_ns,
        slices,
    })
}

fn read_schedstat(path: &str) -> io::Result<SchedStat> {
    let text = fs::read_to_string(path)?;
    parse_schedstat(&text)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad {path}: {text:?}")))
}

/// The calling thread's counters.
pub fn this_thread() -> io::Result<SchedStat> {
    read_schedstat("/proc/thread-self/schedstat")
}

/// Counters of every live task of this process whose name starts with
/// `prefix`, keyed by thread id.
pub fn threads_named(prefix: &str) -> io::Result<BTreeMap<u32, SchedStat>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let dir = entry.path();
        // A thread may exit between listing and reading; skip it.
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        if let Ok(stat) = read_schedstat(&dir.join("schedstat").to_string_lossy()) {
            out.insert(tid, stat);
        }
    }
    Ok(out)
}

/// Summed deltas of the threads present in both snapshots.
pub fn delta_sum(before: &BTreeMap<u32, SchedStat>, after: &BTreeMap<u32, SchedStat>) -> SchedStat {
    let mut sum = SchedStat::default();
    for (tid, now) in after {
        if let Some(then) = before.get(tid) {
            sum.add(now.since(*then));
        }
    }
    sum
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a `cpu_set_t` (1,024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Pins the calling thread to the CPU it runs on now, and returns that
/// CPU. Threads it starts afterwards inherit the pinning.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(format!("CPU {cpu} is beyond a cpu_set_t"));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, including
/// threads that have already exited, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_schedstat_fields() {
        assert_eq!(
            parse_schedstat("1234567 89012 345\n"),
            Some(SchedStat {
                cpu_ns: 1_234_567,
                wait_ns: 89_012,
                slices: 345
            })
        );
    }

    #[test]
    fn rejects_malformed_schedstat() {
        for bad in ["", "1 2", "1 2 3 4", "1 x 3", "-1 2 3", "1.5 2 3"] {
            assert_eq!(parse_schedstat(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn reads_this_thread_and_process() {
        let before = this_thread().expect("schedstat readable");
        // Spin long enough to span several scheduler ticks: the kernel
        // folds running time into the counters at ticks and switches.
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let after = this_thread().expect("schedstat readable");
        assert!(after.cpu_ns > before.cpu_ns, "busy loop shows as CPU");
        assert!(process_cpu_ns() >= after.cpu_ns);
    }

    #[test]
    fn delta_sum_ignores_threads_missing_from_either_side() {
        let s = |c, w| SchedStat {
            cpu_ns: c,
            wait_ns: w,
            slices: 1,
        };
        let before = BTreeMap::from([(1, s(10, 1)), (2, s(5, 5))]);
        let after = BTreeMap::from([(1, s(30, 4)), (3, s(100, 100))]);
        assert_eq!(
            delta_sum(&before, &after),
            SchedStat {
                cpu_ns: 20,
                wait_ns: 3,
                slices: 0
            }
        );
    }
}
