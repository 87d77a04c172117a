//! Results of a serving run: decision counters, per-tenant outcomes, and
//! the aggregate [`ServeOutcome`].

use rtseed_model::{QosSummary, TaskId, TenantId, TenantState};

use crate::executor::Outcome;
use crate::obs::{Histogram, Trace, TraceEvent};

use super::guard::GuardStats;

/// Counters of serving-layer decisions over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Tenant submissions received ([`SessionManager::submit`] calls plus
    /// churn arrivals).
    ///
    /// [`SessionManager::submit`]: super::SessionManager::submit
    pub submissions: u64,
    /// Submissions that passed the admission test.
    pub admissions: u64,
    /// Submissions turned away by the admission test.
    pub rejections: u64,
    /// Admitted tenants that departed (voluntarily or via churn).
    pub departures: u64,
    /// Optional-deadline updates applied to running tasks (shrinks on
    /// admission, growths on departure).
    pub od_updates_applied: u64,
    /// Churn-plan events replayed.
    pub churn_events: u64,
    /// Rejections for capacity
    /// ([`RejectReason::Unschedulable`](super::RejectReason::Unschedulable)).
    pub rejected_capacity: u64,
    /// Rejections of empty submissions.
    pub rejected_empty: u64,
    /// Rejections because the tenant was quarantined.
    pub rejected_quarantined: u64,
    /// Rejections because the tenant had been evicted.
    pub rejected_evicted: u64,
    /// Rejections because the deferred queue was full (backpressure).
    pub rejected_queue_full: u64,
    /// Deferred submissions whose retry deadline expired unadmitted.
    pub rejected_deadline: u64,
    /// Submissions parked on the deferred queue (guard mode only).
    pub deferred_submissions: u64,
    /// Deferred submissions eventually admitted.
    pub deferred_admissions: u64,
    /// Batched admission rounds run over a non-empty deferred queue.
    pub admission_rounds: u64,
    /// Always 0: admission runs on the caller's thread through one engine.
    /// The field stays because the benchmark's digest names it.
    pub parallel_admission_rounds: u64,
    /// Guard ladder escalations to
    /// [`LadderRung::Shed`](super::LadderRung::Shed).
    pub sheds: u64,
    /// Guard ladder escalations to
    /// [`LadderRung::Quarantined`](super::LadderRung::Quarantined).
    pub quarantines: u64,
    /// Guard ladder escalations to
    /// [`LadderRung::Evicted`](super::LadderRung::Evicted).
    pub evictions: u64,
    /// Guard ladder step-downs after a clean streak.
    pub recoveries: u64,
}

/// Per-tenant results of a serving run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// The tenant's identity (submission order).
    pub tenant: TenantId,
    /// The name it submitted under.
    pub name: String,
    /// Terminal lifecycle state (`Rejected`, `Departed`, or — for tenants
    /// still resident at the end of the run — `Admitted`).
    pub state: TenantState,
    /// Engine task ids bound to this tenant (empty if rejected); keys for
    /// scoping the shared trace via [`ServeOutcome::tenant_trace`].
    pub tasks: Vec<TaskId>,
    /// QoS accounting over this tenant's jobs only.
    pub qos: QosSummary,
    /// Degradation-ladder statistics (all zero when no guard was armed or
    /// the tenant never faulted).
    pub guard: GuardStats,
}

/// Everything a serving run produced: the aggregate [`Outcome`] (same
/// shape as the one-shot executors), per-tenant outcomes, and the
/// admission/churn counters.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Aggregate measurements across all tenants.
    pub outcome: Outcome,
    /// Per-tenant outcomes in submission order (including rejected
    /// tenants, with empty QoS).
    pub tenants: Vec<TenantOutcome>,
    /// Serving-layer decision counters.
    pub counters: ServeCounters,
    /// Time deferred submissions waited until admission (empty when no
    /// submission was deferred and then admitted).
    pub deferred_latency: Histogram,
}

impl ServeOutcome {
    /// The outcome of the most recent tenant submitted under `name`.
    pub fn tenant(&self, name: &str) -> Option<&TenantOutcome> {
        self.tenants.iter().rev().find(|t| t.name == name)
    }

    /// The slice of the shared trace concerning `tenant`: its lifecycle
    /// events plus every event of its tasks' jobs. Empty when tracing was
    /// disabled for the run.
    pub fn tenant_trace(&self, tenant: TenantId) -> Trace {
        let tasks: &[TaskId] = self
            .tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .map(|t| t.tasks.as_slice())
            .unwrap_or(&[]);
        let mut out = Trace::new();
        for (at, ev) in self.outcome.trace.events() {
            let ours = match ev {
                TraceEvent::TenantAdmitted { tenant: t, .. }
                | TraceEvent::TenantRejected { tenant: t, .. }
                | TraceEvent::TenantDeparted { tenant: t }
                | TraceEvent::TenantShed { tenant: t }
                | TraceEvent::TenantQuarantined { tenant: t }
                | TraceEvent::TenantEvicted { tenant: t }
                | TraceEvent::TenantRecovered { tenant: t }
                | TraceEvent::DeferredAdmitted { tenant: t, .. } => *t == tenant,
                TraceEvent::PolicyDecision { task, .. } => tasks.contains(task),
                _ => ev.job().is_some_and(|j| tasks.contains(&j.task)),
            };
            if ours {
                out.record(*at, ev.clone());
            }
        }
        out
    }
}
