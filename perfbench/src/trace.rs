//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every measured operation opens a root span named [`ROOT`]; each call
//! the benchmark makes into a layer's public function opens a child named
//! `<layer>.<function>`. A span's *self time* is its duration minus the
//! part of its interval that its children cover; the root's self time is
//! the benchmark's own code, i.e. the time no layer accounts for.
//!
//! Spans stay in memory while their operation runs; when the root closes
//! they are folded into a per-name [`Breakdown`], so memory stays bounded
//! however long the run, and the breakdown is reported at the end.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the per-operation root span.
pub const ROOT: &str = "op";

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `op` or `<layer>.<function>`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (request) this span belongs to.
    pub request: u64,
    /// Allocations the recording thread made inside the span.
    pub allocs: u64,
}

/// An in-memory span recorder. When off, `enter`/`exit` return at once.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Spans of the operation in progress.
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    done: Breakdown,
}

/// Handle to an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            done: Breakdown::default(),
        }
    }

    /// Starts or stops recording (between operations only).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing between operations");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `request`.
    pub fn begin_op(&mut self, request: u64) -> Open {
        self.request = request;
        self.enter(ROOT)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
            allocs: alloc::this_thread(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`enter`](Self::enter) or
    /// [`begin_op`](Self::begin_op); spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.allocs = alloc::this_thread() - span.allocs;
        if self.open.is_empty() {
            self.done.add(&self.spans);
            self.spans.clear();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Everything recorded so far.
    pub fn breakdown(&self) -> &Breakdown {
        assert!(
            self.open.is_empty(),
            "read the breakdown between operations"
        );
        &self.done
    }
}

/// Self time and self allocations of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            // Union of the children's intervals, clipped to the parent.
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let child_allocs: u64 = kids.iter().map(|&k| spans[k].allocs).sum();
            (
                (s.end_ns - s.start_ns).saturating_sub(covered),
                s.allocs.saturating_sub(child_allocs),
            )
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed self allocations.
    pub self_allocs: u64,
}

/// The traced run's attribution: totals per span name, plus the summed
/// duration of the root spans (the busy wall time being attributed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Totals keyed by span name, root included.
    pub by_name: BTreeMap<&'static str, Totals>,
    /// Summed root-span duration, ns.
    pub busy_ns: u64,
    /// Number of root spans.
    pub ops: u64,
}

impl Breakdown {
    /// Folds `spans` (whole span trees) into the totals.
    pub fn add(&mut self, spans: &[Span]) {
        for (s, (self_ns, self_allocs)) in spans.iter().zip(self_times(spans)) {
            let t = self.by_name.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += self_ns;
            t.self_allocs += self_allocs;
            if s.parent.is_none() {
                self.busy_ns += s.end_ns - s.start_ns;
                self.ops += 1;
            }
        }
    }

    /// Totals for `name` (zero when it never ran).
    pub fn get(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Share of busy time that no layer span accounts for: 1 minus the
    /// layers' summed self time over the busy time.
    pub fn unattributed_share(&self) -> f64 {
        let attributed: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .map(|(_, t)| t.self_ns)
            .sum();
        if self.busy_ns == 0 {
            return 0.0;
        }
        1.0 - attributed as f64 / self.busy_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, allocs: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
            allocs,
        }
    }

    /// op [0,100) ─┬─ a [10,40) ── a2 [15,25)
    ///             ├─ b [50,70)
    ///             └─ c [65,90)   (overlaps b: covered once)
    fn tree() -> Vec<Span> {
        vec![
            span(ROOT, 0, 100, None, 20),
            span("ipvs.connect", 10, 40, Some(0), 6),
            span("core.rt.call", 15, 25, Some(1), 2),
            span("san.get", 50, 70, Some(0), 3),
            span("san.put", 65, 90, Some(0), 1),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let st = self_times(&tree());
        assert_eq!(st[0], (100 - 30 - 40, 20 - 6 - 3 - 1));
        assert_eq!(st[1], (30 - 10, 6 - 2));
        assert_eq!(st[2], (10, 2));
        assert_eq!(st[3], (20, 3));
        assert_eq!(st[4], (25, 1));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(ROOT, 10, 20, None, 0), span("x.y", 5, 15, Some(0), 0)];
        assert_eq!(self_times(&spans)[0].0, 5);
    }

    #[test]
    fn breakdown_attributes_busy_time() {
        let mut b = Breakdown::default();
        b.add(&tree());
        assert_eq!(b.busy_ns, 100);
        assert_eq!(b.ops, 1);
        assert_eq!(b.get(ROOT).self_ns, 30);
        assert_eq!(b.get("ipvs.connect").calls, 1);
        // Layer self times sum to 20 + 10 + 20 + 25 = 75 of 100 ns. The
        // overlapping siblings both claim [65, 70), so this is 5 ns more
        // than the 70 ns the root does not keep for itself.
        assert!((b.unattributed_share() - (1.0 - 75.0 / 100.0)).abs() < 1e-12);
        assert_eq!(b.get("never.ran"), Totals::default());
    }

    #[test]
    fn recorder_nests_folds_and_ignores_calls_when_off() {
        let mut t = Tracer::new(false);
        let op = t.begin_op(1);
        t.span("ipvs.connect", || ());
        t.exit(op);
        assert_eq!(t.breakdown().ops, 0);

        t.set_on(true);
        for request in 2..4 {
            let op = t.begin_op(request);
            let inner = t.span("ipvs.connect", || 5);
            t.exit(op);
            assert_eq!(inner, 5);
        }
        let b = t.breakdown();
        assert_eq!(b.ops, 2);
        assert_eq!(b.get("ipvs.connect").calls, 2);
        assert!(b.get(ROOT).self_ns + b.get("ipvs.connect").self_ns <= b.busy_ns);
    }
}
