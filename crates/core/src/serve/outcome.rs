//! Results of a serving run: decision counters, per-tenant outcomes, and
//! the aggregate [`ServeOutcome`].

use std::sync::OnceLock;

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
    /// The shared trace grouped by owning tenant (see [`group_by_tenant`]),
    /// built by the first [`tenant_trace`](ServeOutcome::tenant_trace)
    /// call: a run nobody slices pays nothing for it.
    pub(super) groups: OnceLock<Vec<Vec<u32>>>,
}

/// Position of `tenant` in the table. Ids are handed out in submission
/// order, so the id is the position unless a caller rearranged the table.
fn position_of(tenants: &[TenantOutcome], tenant: TenantId) -> Option<usize> {
    let at = tenant.index();
    if tenants.get(at).is_some_and(|t| t.tenant == tenant) {
        return Some(at);
    }
    tenants.iter().position(|t| t.tenant == tenant)
}

/// One pass over `trace`: for each of `tenants`, in table order, the
/// positions of its events, in time order. A tenant owns its lifecycle
/// events and every event of its tasks; task ids are never reused, so an
/// event has at most one owner.
fn group_by_tenant(tenants: &[TenantOutcome], trace: &Trace) -> Vec<Vec<u32>> {
    assert!(
        trace.len() <= u32::MAX as usize,
        "positions are kept as u32"
    );
    // Task ids are engine indices, dense from 0; an event may still name a
    // task no tenant owns, so the table is read with `get`.
    let tasks = tenants.iter().flat_map(|t| &t.tasks);
    let mut owner_of_task = vec![None; tasks.map(|id| id.index() + 1).max().unwrap_or(0)];
    for (at, t) in tenants.iter().enumerate() {
        for task in &t.tasks {
            owner_of_task[task.index()] = Some(at);
        }
    }
    let owner_of = |task: TaskId| owner_of_task.get(task.index()).copied().flatten();
    let mut groups = vec![Vec::new(); tenants.len()];
    for (position, (_, ev)) in (0u32..).zip(trace.events()) {
        let owner = match ev {
            TraceEvent::TenantAdmitted { tenant, .. }
            | TraceEvent::TenantRejected { tenant, .. }
            | TraceEvent::TenantDeparted { tenant }
            | TraceEvent::TenantShed { tenant }
            | TraceEvent::TenantQuarantined { tenant }
            | TraceEvent::TenantEvicted { tenant }
            | TraceEvent::TenantRecovered { tenant }
            | TraceEvent::DeferredAdmitted { tenant, .. } => position_of(tenants, *tenant),
            TraceEvent::PolicyDecision { task, .. } => owner_of(*task),
            _ => ev.job().and_then(|j| owner_of(j.task)),
        };
        if let Some(at) = owner {
            groups[at].push(position);
        }
    }
    groups
}

impl ServeOutcome {
    /// The outcome of the most recent tenant submitted under `name`.
    pub fn tenant(&self, name: &str) -> Option<&TenantOutcome> {
        self.tenants.iter().rev().find(|t| t.name == name)
    }

    /// The slice of the shared trace concerning `tenant`: its lifecycle
    /// events plus every event of its tasks' jobs. Empty when tracing was
    /// disabled for the run, and for an id not in [`tenants`].
    ///
    /// The slice's [`dropped`](Trace::dropped) is the shared trace's: the
    /// events the shared ring lost before this slice begins — an upper
    /// bound on this tenant's own loss, and non-zero exactly when the
    /// slice may be missing its head.
    ///
    /// Cost: the first call groups the whole shared trace by tenant (one
    /// pass over it, as [`tenants`] and the trace stand at that moment);
    /// every call then copies its own tenant's events and nothing else.
    ///
    /// [`tenants`]: ServeOutcome::tenants
    pub fn tenant_trace(&self, tenant: TenantId) -> Trace {
        let Some(at) = position_of(&self.tenants, tenant) else {
            return Trace::new();
        };
        let shared = &self.outcome.trace;
        let groups = self
            .groups
            .get_or_init(|| group_by_tenant(&self.tenants, shared));
        let ours = groups[at].iter();
        let events = ours.map(|&i| shared.events()[i as usize].clone());
        Trace::from_parts(events.collect(), shared.dropped())
    }
}
