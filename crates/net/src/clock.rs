//! Clock abstraction: virtual (driver-advanced) or real (monotonic) time.
//!
//! Both backends express time as [`SimTime`] — microseconds since an
//! epoch — so every layer above (GCS heartbeat deadlines, lease expiry,
//! SLA probes) is oblivious to which clock is underneath. The sim epoch is
//! the start of the run; the real epoch is the [`RealClock`]'s creation
//! instant, read from the OS monotonic clock so it never goes backwards.

use crate::SimTime;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of the current instant.
pub trait Clock {
    /// The current instant, as microseconds since this clock's epoch.
    fn now(&self) -> SimTime;
}

/// A monotonic wall-clock anchored at its creation instant.
///
/// Cheap to clone (an `Arc` around the anchor) and `Send + Sync`, so every
/// node thread of a real-clock runtime shares one epoch and their
/// timestamps are mutually comparable.
#[derive(Debug, Clone)]
pub struct RealClock {
    epoch: Arc<Instant>,
}

impl RealClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        RealClock {
            epoch: Arc::new(Instant::now()),
        }
    }

    /// The wall-clock instant at which this clock reads `t`, or `None`
    /// when it never will: `t` is [`SimTime::MAX`] or lies beyond what
    /// `Instant` can represent.
    pub fn instant_at(&self, t: SimTime) -> Option<Instant> {
        if t == SimTime::MAX {
            return None;
        }
        self.epoch.checked_add(Duration::from_micros(t.as_micros()))
    }

    /// The first reading of this clock at or after `at`: the instant in
    /// µs since the epoch, rounded up, so waiting until the reading has
    /// passed never returns before `at`.
    pub fn reading_at(&self, at: Instant) -> SimTime {
        let since = at.saturating_duration_since(*self.epoch);
        SimTime::from_micros(since.as_nanos().div_ceil(1_000) as u64)
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_and_shared() {
        let c = RealClock::new();
        let c2 = c.clone();
        let a = c.now();
        let b = c2.now();
        assert!(b >= a, "clones share one epoch and never go backwards");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now() >= a + crate::SimDuration::from_millis(1));
    }

    #[test]
    fn readings_and_instants_round_trip_without_undershoot() {
        let c = RealClock::new();
        let at = Instant::now() + Duration::from_nanos(1_500_300);
        let t = c.reading_at(at);
        // Rounded up: the instant of that reading is never before `at`,
        // and at most one µs after it.
        let back = c.instant_at(t).expect("representable");
        assert!(back >= at);
        assert!(back - at < Duration::from_micros(1));
        assert_eq!(c.instant_at(SimTime::MAX), None);
    }
}
