//! A fixed reference kernel, timed to track the host's speed.
//!
//! On a shared virtual machine the guest slows down by tens of percent for
//! seconds at a time, mostly in allocation and memory-bound code: other
//! tenants contend for the caches and memory. The kernel does the same
//! allocation-heavy work every time, using only the standard library, so
//! its wall time is a reading of the host's speed that no change to the
//! system under test can move.
//!
//! Times of CPU-bound work are reported at the reference speed: a time
//! measured alongside a reading of `k` ns is scaled by
//! [`REFERENCE_NS`]` / k`.

use crate::alloc;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Map insertions per kernel run.
const INSERTS: u64 = 2_000;
/// Distinct keys the insertions cycle through.
const KEYS: u64 = 512;
/// Kernel runs per reading; the fastest counts.
const RUNS: usize = 3;
/// The kernel's time at the reference speed, ns: about its time on the
/// 2-vCPU virtual machine the benchmark was tuned on, between slowdowns.
pub const REFERENCE_NS: f64 = 400_000.0;

/// Builds and clears a small string-keyed map of vectors, much as the
/// system under test builds messages, registries and queues.
fn kernel() -> u64 {
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    let mut x = 1u64;
    for i in 0..INSERTS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.entry(format!("k{}", (x >> 33) % KEYS))
            .or_default()
            .push(i);
        if i % 64 == 63 {
            map.clear();
        }
    }
    x ^ map.len() as u64
}

/// Wall time of one kernel run, ns: the fastest of [`RUNS`]. The
/// kernel's allocations are not counted.
pub fn reading_ns() -> u64 {
    let counting = alloc::enabled();
    alloc::set_enabled(false);
    let ns = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("RUNS > 0");
    alloc::set_enabled(counting);
    ns
}
