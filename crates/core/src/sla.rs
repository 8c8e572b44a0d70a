//! Service level agreements and availability tracking.

use dosgi_net::{SimDuration, SimTime};
use dosgi_vosgi::ResourceQuota;
use std::collections::BTreeMap;

/// A customer's service level agreement: resource entitlement plus an
/// availability target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaSpec {
    /// Resource entitlement.
    pub quota: ResourceQuota,
    /// Availability target in `[0, 1]` (e.g. `0.999`).
    pub availability: f64,
}

impl SlaSpec {
    /// Standard quota, three nines.
    pub fn standard() -> Self {
        SlaSpec {
            quota: ResourceQuota::standard(),
            availability: 0.999,
        }
    }
}

impl Default for SlaSpec {
    fn default() -> Self {
        SlaSpec::standard()
    }
}

/// Per-instance availability record derived from periodic probes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AvailabilityRecord {
    /// Time observed up.
    pub up: SimDuration,
    /// Time observed down.
    pub down: SimDuration,
    /// Number of distinct outages (up→down transitions).
    pub outages: u32,
    /// The longest single outage.
    pub longest_outage: SimDuration,
}

impl AvailabilityRecord {
    /// Availability fraction in `[0, 1]`; `1.0` before any observation.
    pub fn availability(&self) -> f64 {
        let total = self.up + self.down;
        if total.is_zero() {
            1.0
        } else {
            self.up.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// One instance's probe history: its record, the last probe, and the
/// length of the outage in progress (zero while up).
#[derive(Debug, Clone, Copy)]
struct Track {
    record: AvailabilityRecord,
    last_at: SimTime,
    last_up: bool,
    current_outage: SimDuration,
}

impl Track {
    /// Attributes the interval since the previous probe to the
    /// *previous* observed state, then records this one.
    fn observe(&mut self, now: SimTime, available: bool) {
        let span = now.since(self.last_at);
        let rec = &mut self.record;
        if self.last_up {
            rec.up += span;
            if !available {
                rec.outages += 1;
            }
        } else {
            rec.down += span;
            self.current_outage += span;
            rec.longest_outage = rec.longest_outage.max(self.current_outage);
        }
        if self.last_up != available {
            self.current_outage = SimDuration::ZERO;
        }
        self.last_at = now;
        self.last_up = available;
    }
}

/// Tracks availability per instance from periodic boolean probes — the
/// downtime instrument behind experiments E5–E9.
#[derive(Debug, Clone, Default)]
pub struct SlaTracker {
    tracks: BTreeMap<String, Track>,
}

impl SlaTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a probe of `instance` at `now`. The interval since the
    /// previous probe is attributed to the *previous* observed state.
    /// Only an instance's first probe copies its name.
    pub fn probe(&mut self, instance: &str, now: SimTime, available: bool) {
        match self.tracks.get_mut(instance) {
            Some(track) => track.observe(now, available),
            None => {
                self.tracks.insert(
                    instance.to_owned(),
                    Track {
                        record: AvailabilityRecord::default(),
                        last_at: now,
                        last_up: available,
                        current_outage: SimDuration::ZERO,
                    },
                );
            }
        }
    }

    /// The record for `instance` (zeroes if never probed).
    pub fn record(&self, instance: &str) -> AvailabilityRecord {
        self.tracks
            .get(instance)
            .map(|t| t.record)
            .unwrap_or_default()
    }

    /// True if `instance` meets `spec`'s availability target so far.
    pub fn meets(&self, instance: &str, spec: &SlaSpec) -> bool {
        self.record(instance).availability() >= spec.availability
    }

    /// All tracked instance names, sorted.
    pub fn instances(&self) -> Vec<&str> {
        self.tracks.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_accumulates_by_previous_state() {
        let mut t = SlaTracker::new();
        t.probe("a", SimTime::from_secs(0), true);
        t.probe("a", SimTime::from_secs(8), true); // 8s up
        t.probe("a", SimTime::from_secs(10), false); // 2s up, now down
        t.probe("a", SimTime::from_secs(11), true); // 1s down
        t.probe("a", SimTime::from_secs(20), true); // 9s up
        let r = t.record("a");
        assert_eq!(r.up, SimDuration::from_secs(19));
        assert_eq!(r.down, SimDuration::from_secs(1));
        assert_eq!(r.outages, 1);
        assert_eq!(r.longest_outage, SimDuration::from_secs(1));
        assert!((r.availability() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn longest_outage_spans_multiple_probes() {
        let mut t = SlaTracker::new();
        t.probe("a", SimTime::from_secs(0), true);
        t.probe("a", SimTime::from_secs(1), false);
        t.probe("a", SimTime::from_secs(2), false);
        t.probe("a", SimTime::from_secs(4), false);
        t.probe("a", SimTime::from_secs(5), true);
        t.probe("a", SimTime::from_secs(6), false);
        t.probe("a", SimTime::from_secs(7), true);
        let r = t.record("a");
        assert_eq!(r.outages, 2);
        assert_eq!(r.longest_outage, SimDuration::from_secs(4));
    }

    #[test]
    fn meets_compares_target() {
        let mut t = SlaTracker::new();
        t.probe("a", SimTime::from_secs(0), true);
        t.probe("a", SimTime::from_secs(999), true);
        t.probe("a", SimTime::from_secs(1000), false);
        t.probe("a", SimTime::from_secs(1001), true);
        let spec = SlaSpec {
            availability: 0.999,
            ..SlaSpec::standard()
        };
        // 1000s up, 1s down: 0.999001 ≥ 0.999.
        assert!(t.meets("a", &spec));
        let strict = SlaSpec {
            availability: 0.9999,
            ..spec
        };
        assert!(!t.meets("a", &strict));
    }

    /// The merged per-instance track against a reference model written
    /// from the definitions: every interval goes to the state probed at
    /// its start, so up + down covers the whole probed span; an outage is
    /// an up→down transition; and a run of down probes lasts until the
    /// next up probe (or the last probe), the longest run being the
    /// longest outage.
    #[test]
    fn prop_tracker_matches_a_reference_model() {
        use dosgi_testkit::{prop, prop_verify_eq, Gen};
        const NAMES: [&str; 3] = ["a", "b", "c"];
        let probe = Gen::new(|rng| {
            (
                rng.usize_in(0, NAMES.len() - 1),
                rng.u64_below(4_000),
                rng.u64_below(3) != 0,
            )
        });
        let gen = prop::vecs(probe, 0, 40);
        prop::check("prop_tracker_matches_a_reference_model", &gen, |probes| {
            let mut t = SlaTracker::new();
            let mut at = 0u64;
            let mut seen: Vec<Vec<(u64, bool)>> = vec![Vec::new(); NAMES.len()];
            for &(i, dt, up) in probes {
                at += dt;
                t.probe(NAMES[i], SimTime::from_micros(at), up);
                seen[i].push((at, up));
            }
            for (name, history) in NAMES.iter().zip(&seen) {
                let us = SimDuration::from_micros;
                let mut want = AvailabilityRecord::default();
                for w in history.windows(2) {
                    let ((t0, up0), (t1, up1)) = (w[0], w[1]);
                    if up0 {
                        want.up += us(t1 - t0);
                    } else {
                        want.down += us(t1 - t0);
                    }
                    if up0 && !up1 {
                        want.outages += 1;
                    }
                }
                // Each maximal run of down probes lasts from its first
                // probe to the next up probe (or the last probe).
                for (i, &(start, up)) in history.iter().enumerate() {
                    let run_starts = !up && (i == 0 || history[i - 1].1);
                    if run_starts {
                        let end = history[i..]
                            .iter()
                            .find(|p| p.1)
                            .or(history.last())
                            .map_or(start, |p| p.0);
                        want.longest_outage = want.longest_outage.max(us(end - start));
                    }
                }
                let span = match history.as_slice() {
                    [first, .., last] => us(last.0 - first.0),
                    _ => SimDuration::ZERO,
                };
                let got = t.record(name);
                prop_verify_eq!(got, want, "instance {name}, history {history:?}");
                prop_verify_eq!(got.up + got.down, span);
            }
            let probed: Vec<&str> = NAMES
                .iter()
                .zip(&seen)
                .filter(|(_, h)| !h.is_empty())
                .map(|(n, _)| *n)
                .collect();
            prop_verify_eq!(t.instances(), probed);
            Ok(())
        });
    }

    #[test]
    fn unknown_instance_is_fully_available() {
        let t = SlaTracker::new();
        assert_eq!(t.record("ghost").availability(), 1.0);
        assert!(t.instances().is_empty());
    }
}
