//! The Autonomic Module: policies over the monitoring blackboard.
//!
//! §3.3: *"By using the Monitoring Module to build the view of the system
//! and the Migration Module to know about other nodes … the Autonomic
//! Module is able to enforce the business policies."*
//!
//! Each sampling period the module refreshes a [`Blackboard`] with:
//!
//! | metric | scope | meaning |
//! |---|---|---|
//! | `cpu_share($i)` | instance | CPU cores consumed (0.5 = half a core) |
//! | `memory($i)` | instance | resident bytes |
//! | `disk($i)` | instance | persistent bytes written |
//! | `call_rate($i)` | instance | service calls per second |
//! | `quota_cpu($i)` | instance | SLA CPU entitlement (cores) |
//! | `quota_mem($i)` | instance | SLA memory entitlement (bytes) |
//! | `quota_disk($i)` | instance | SLA disk entitlement (bytes) |
//! | `node_cpu()` | node | total CPU utilization (0..1) |
//! | `node_mem()` | node | total memory utilization (0..1) |
//! | `instance_count()` | node | local running instances |
//! | `node_count()` | node | live nodes in the current view |
//!
//! and evaluates the configured policy script, yielding
//! [`PolicyDecision`]s the node executes (migrate / stop / throttle /
//! restart / hibernate / alert).

use dosgi_monitor::{MonitoringModule, NodeCapacity};
use dosgi_net::{SimDuration, SimTime};
use dosgi_policy::{Blackboard, ParseError, PolicyDecision, PolicyEngine};
use dosgi_vosgi::ResourceQuota;
use std::collections::BTreeMap;

/// The default SLA-enforcement policy used by examples and experiment E10:
/// sustained CPU overuse migrates the offender; memory overuse stops it;
/// an idle under-utilized node consolidates (hibernates).
pub const DEFAULT_POLICY: &str = r#"
rule cpu_hog {
    when cpu_share($i) > quota_cpu($i) * 1.2 for 3
    then migrate($i); alert("cpu quota exceeded")
}
rule mem_hog {
    when memory($i) > quota_mem($i)
    then stop($i); alert("memory quota exceeded")
}
"#;

/// The consolidation add-on policy (paper §4: concentrate idle customers,
/// hibernate freed nodes to save power). The `node_rank()` guard makes
/// consolidation *rolling*: only the highest-ranked member of the current
/// view packs up and hibernates; once it leaves the view, the next one
/// fires — so the cluster drains one node at a time instead of
/// stampeding.
pub const CONSOLIDATION_POLICY: &str = r#"
rule consolidate {
    when node_cpu() < 0.05 and instance_count() > 0 and node_count() > 1
         and node_rank() == node_count() - 1 for 5
    then migrate_all(); hibernate()
}
rule empty_node {
    when node_cpu() < 0.05 and instance_count() == 0 and node_count() > 1
         and node_rank() == node_count() - 1 for 5
    then hibernate()
}
"#;

/// The overload-reaction policy (E15/E16), driven by the SLO burn-rate
/// alerts of [`dosgi_telemetry::SloEngine`] instead of raw p95 polling:
/// while the `std-latency` alert fires, the service scales out (adds a
/// replica behind the VIP); sustained queue pressure sheds the
/// background class; once queues drain, shedding is lifted — un-shed is
/// deliberately queue-governed, not alert-governed, because burn-rate
/// alerts reset only after the bad window ages out, long after the
/// overload itself has passed (`stop_shed` is forwarded as a
/// [`dosgi_policy::PolicyAction::Custom`] the driver interprets). The
/// driver feeds the blackboard `alert_firing` per SLO subject
/// (`set_subject_metric(<slo>, "alert_firing", 0/1)` from
/// `SloEngine::firing`) plus the `queue_depth` / `queue_capacity`
/// globals from the admission layer. No debounce on the scale-out rule:
/// the burn-rate pairs already require two breaching windows, so the
/// alert itself is the debounce.
pub const OVERLOAD_POLICY: &str = r#"
rule slo_burn {
    when alert_firing("std-latency") > 0
    then scale_out(); alert("std-latency error budget burning")
}
rule queue_pressure {
    when queue_depth() > queue_capacity() * 0.8 for 2
    then shed_class("background")
}
rule pressure_cleared {
    when queue_depth() < queue_capacity() * 0.2 for 4
    then stop_shed("background")
}
"#;

/// The pre-E16 overload policy: polls the raw p95 gauge against the SLO
/// every tick and debounces by rule repetition. Kept as the naive
/// baseline the `e16_slo` experiment races burn-rate alerting against —
/// the `for 3` debounce plus the rolling-window p95 lag is exactly the
/// reaction time the alert path beats. Blackboard globals:
/// `p95_latency_us`, `slo_us`, `queue_depth`, `queue_capacity`.
pub const POLLED_OVERLOAD_POLICY: &str = r#"
rule p95_breach {
    when p95_latency_us() > slo_us() for 3
    then scale_out(); alert("sustained p95 SLO breach")
}
rule queue_pressure {
    when queue_depth() > queue_capacity() * 0.8 for 2
    then shed_class("background")
}
rule pressure_cleared {
    when queue_depth() < queue_capacity() * 0.2
         and p95_latency_us() < slo_us() for 4
    then stop_shed("background")
}
"#;

/// The per-node autonomic controller.
#[derive(Debug, Clone)]
pub struct AutonomicModule {
    engine: PolicyEngine,
    blackboard: Blackboard,
    interval: SimDuration,
    last: Option<SimTime>,
}

impl AutonomicModule {
    /// Compiles `script` into a module evaluated every `interval`.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed scripts.
    pub fn new(script: &str, interval: SimDuration) -> Result<Self, ParseError> {
        Ok(AutonomicModule {
            engine: PolicyEngine::compile(script)?,
            blackboard: Blackboard::new(),
            interval,
            last: None,
        })
    }

    /// True when an evaluation is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.due_at()
    }

    /// When the next evaluation falls due ([`SimTime::ZERO`] before the
    /// first one).
    pub fn due_at(&self) -> SimTime {
        self.last.map_or(SimTime::ZERO, |at| at + self.interval)
    }

    /// Refreshes the blackboard from the monitoring module and evaluates
    /// the policy. `quotas` maps instance name → SLA quota; `node_count` is
    /// the current view size and `node_rank` this node's position in it
    /// (0 = lowest id; consolidation policies key off the highest rank).
    pub fn evaluate(
        &mut self,
        now: SimTime,
        monitor: &MonitoringModule,
        quotas: &BTreeMap<String, ResourceQuota>,
        capacity: &NodeCapacity,
        node_count: usize,
        node_rank: usize,
    ) -> Vec<PolicyDecision> {
        self.last = Some(now);
        let subjects: Vec<String> = quotas.keys().cloned().collect();
        for name in &subjects {
            if let Some(w) = monitor.latest(name) {
                self.blackboard
                    .set_subject_metric(name, "cpu_share", w.cpu_share);
                self.blackboard
                    .set_subject_metric(name, "memory", w.memory as f64);
                self.blackboard
                    .set_subject_metric(name, "disk", w.disk as f64);
                self.blackboard
                    .set_subject_metric(name, "call_rate", w.call_rate);
            }
            if let Some(q) = quotas.get(name) {
                self.blackboard
                    .set_subject_metric(name, "quota_cpu", q.cpu_per_sec.as_secs_f64());
                self.blackboard
                    .set_subject_metric(name, "quota_mem", q.memory_bytes as f64);
                self.blackboard
                    .set_subject_metric(name, "quota_disk", q.disk_bytes as f64);
            }
        }
        self.blackboard.set_global_metric(
            "node_cpu",
            capacity.cpu_utilization(monitor.total_cpu_share()),
        );
        self.blackboard.set_global_metric(
            "node_mem",
            capacity.memory_utilization(monitor.total_memory()),
        );
        self.blackboard
            .set_global_metric("instance_count", subjects.len() as f64);
        self.blackboard
            .set_global_metric("node_count", node_count as f64);
        self.blackboard
            .set_global_metric("node_rank", node_rank as f64);
        self.engine.evaluate(&self.blackboard, &subjects)
    }

    /// Removes a migrated/destroyed instance's metrics.
    pub fn forget(&mut self, subject: &str) {
        self.blackboard.forget_subject(subject);
    }

    /// The blackboard (tests and custom embeddings).
    pub fn blackboard_mut(&mut self) -> &mut Blackboard {
        &mut self.blackboard
    }

    /// Evaluation errors from the last pass.
    pub fn last_errors(&self) -> &[String] {
        self.engine.last_errors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_osgi::UsageSnapshot;
    use dosgi_policy::PolicyAction;

    fn monitor_with(name: &str, cpu_ms_per_s: u64, memory: u64) -> MonitoringModule {
        let mut m = MonitoringModule::new();
        m.record(name, SimTime::from_secs(0), UsageSnapshot::default());
        m.record(
            name,
            SimTime::from_secs(1),
            UsageSnapshot {
                cpu: SimDuration::from_millis(cpu_ms_per_s),
                memory,
                disk: 0,
                calls: 10,
            },
        );
        m
    }

    fn quotas(name: &str) -> BTreeMap<String, ResourceQuota> {
        let mut q = BTreeMap::new();
        q.insert(name.to_owned(), ResourceQuota::small()); // 100ms/s, 16MiB
        q
    }

    #[test]
    fn default_policy_migrates_sustained_cpu_hogs() {
        let mut a = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_secs(1)).unwrap();
        // 400ms/s over a 100ms/s quota: over 1.2x.
        let m = monitor_with("acme", 400, 0);
        let cap = NodeCapacity::standard();
        let q = quotas("acme");
        let mut all = Vec::new();
        for s in 1..=3 {
            all.extend(a.evaluate(SimTime::from_secs(s), &m, &q, &cap, 3, 0));
        }
        let migrates: Vec<_> = all
            .iter()
            .filter(|d| matches!(d.action, PolicyAction::Migrate { .. }))
            .collect();
        assert_eq!(migrates.len(), 1, "for 3 debounces to a single firing");
        assert!(a.last_errors().is_empty(), "{:?}", a.last_errors());
    }

    #[test]
    fn default_policy_stops_memory_hogs_immediately() {
        let mut a = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_secs(1)).unwrap();
        let m = monitor_with("acme", 0, 64 << 20); // 64MiB over a 16MiB quota
        let d = a.evaluate(
            SimTime::from_secs(1),
            &m,
            &quotas("acme"),
            &NodeCapacity::standard(),
            3,
            0,
        );
        assert!(d
            .iter()
            .any(|d| matches!(&d.action, PolicyAction::Stop { subject } if subject == "acme")));
    }

    #[test]
    fn within_quota_is_quiet() {
        let mut a = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_secs(1)).unwrap();
        let m = monitor_with("acme", 50, 1 << 20);
        for s in 1..=5 {
            let d = a.evaluate(
                SimTime::from_secs(s),
                &m,
                &quotas("acme"),
                &NodeCapacity::standard(),
                3,
                0,
            );
            assert!(d.is_empty(), "tick {s}: {d:?}");
        }
    }

    #[test]
    fn due_respects_interval() {
        let mut a = AutonomicModule::new(DEFAULT_POLICY, SimDuration::from_secs(5)).unwrap();
        assert!(a.due(SimTime::ZERO));
        a.evaluate(
            SimTime::from_secs(1),
            &MonitoringModule::new(),
            &BTreeMap::new(),
            &NodeCapacity::standard(),
            1,
            0,
        );
        assert!(!a.due(SimTime::from_secs(3)));
        assert!(a.due(SimTime::from_secs(6)));
    }

    #[test]
    fn overload_policy_scales_out_while_alert_fires() {
        let mut a = AutonomicModule::new(OVERLOAD_POLICY, SimDuration::from_secs(1)).unwrap();
        let m = MonitoringModule::new();
        let cap = NodeCapacity::standard();
        let q = BTreeMap::new();
        // Feed the alert state and queue signals straight into the
        // blackboard (the E16 driver does the same from the SLO engine
        // and the admission-layer stats).
        let bb = a.blackboard_mut();
        bb.set_subject_metric("std-latency", "alert_firing", 1.0);
        bb.set_global_metric("queue_depth", 120.0);
        bb.set_global_metric("queue_capacity", 128.0);
        let mut fired = Vec::new();
        for s in 1..=2 {
            fired.extend(a.evaluate(SimTime::from_secs(s), &m, &q, &cap, 3, 0));
        }
        assert!(
            fired.iter().any(|d| d.action == PolicyAction::ScaleOut),
            "{fired:?}"
        );
        assert!(
            fired.iter().any(|d| matches!(
                &d.action,
                PolicyAction::ShedClass { class } if class == "background"
            )),
            "{fired:?}"
        );
        assert!(a.last_errors().is_empty(), "{:?}", a.last_errors());

        // Alert resolved, queues drained: shedding lifts after `for 4`.
        let bb = a.blackboard_mut();
        bb.set_subject_metric("std-latency", "alert_firing", 0.0);
        bb.set_global_metric("queue_depth", 2.0);
        let mut cleared = Vec::new();
        for s in 3..=7 {
            cleared.extend(a.evaluate(SimTime::from_secs(s), &m, &q, &cap, 3, 0));
        }
        assert!(
            cleared.iter().any(|d| matches!(
                &d.action,
                PolicyAction::Custom { name, args, .. } if name == "stop_shed"
                    && args == &["background".to_owned()]
            )),
            "{cleared:?}"
        );
        assert!(a.last_errors().is_empty(), "{:?}", a.last_errors());
    }

    #[test]
    fn polled_overload_policy_scales_out_on_sustained_p95_breach() {
        let mut a =
            AutonomicModule::new(POLLED_OVERLOAD_POLICY, SimDuration::from_secs(1)).unwrap();
        let m = MonitoringModule::new();
        let cap = NodeCapacity::standard();
        let q = BTreeMap::new();
        let bb = a.blackboard_mut();
        bb.set_global_metric("p95_latency_us", 400_000.0);
        bb.set_global_metric("slo_us", 250_000.0);
        bb.set_global_metric("queue_depth", 120.0);
        bb.set_global_metric("queue_capacity", 128.0);
        let mut fired = Vec::new();
        for s in 1..=3 {
            fired.extend(a.evaluate(SimTime::from_secs(s), &m, &q, &cap, 3, 0));
        }
        assert!(
            fired.iter().any(|d| d.action == PolicyAction::ScaleOut),
            "{fired:?}"
        );
        assert!(
            fired.iter().any(|d| matches!(
                &d.action,
                PolicyAction::ShedClass { class } if class == "background"
            )),
            "{fired:?}"
        );
        assert!(a.last_errors().is_empty(), "{:?}", a.last_errors());
    }

    #[test]
    fn consolidation_policy_compiles_and_fires_on_idle() {
        let mut a = AutonomicModule::new(CONSOLIDATION_POLICY, SimDuration::from_secs(1)).unwrap();
        let m = MonitoringModule::new(); // nothing running: node_cpu 0
        let mut fired = Vec::new();
        for s in 1..=5 {
            fired.extend(a.evaluate(
                SimTime::from_secs(s),
                &m,
                &BTreeMap::new(),
                &NodeCapacity::standard(),
                2,
                1, // highest rank in a 2-node view: the consolidator
            ));
        }
        assert!(fired
            .iter()
            .any(|d| matches!(d.action, PolicyAction::HibernateNode)));
    }
}
